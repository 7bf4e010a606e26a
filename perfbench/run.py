"""Seeded benchmark of vitalwatch: replay, tune and the live socket monitor.

Run from the repository root:

    python3 perfbench/run.py --workload replay-archive --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
traced run that reports the per-layer metrics and the tracing overhead.
Metric names and units are those of BENCHMARK.json. Human-readable notes
go first; the last line of standard output is the JSON result. A failed
correctness check prints ``"correct": false`` and exits with 1; a missing
checkout exits with 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import harness


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        harness.require_checkout()
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (harness.CheckoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # the program is importable only now
    import checks
    import monitor
    import workloads

    runners = {
        "replay-archive": workloads.replay_archive,
        "tune-grid": workloads.tune_grid,
        "monitor-socket": monitor.monitor_socket,
    }
    if args.workload not in runners:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = harness.environment(args.seed)
    print(f"environment: {json.dumps(env)}")
    work = harness.OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    started = time.perf_counter()
    correct = True
    try:
        result = runners[args.workload](args.seed, args.seconds, bool(args.trace), work)
        values = result.layers if args.trace else result.metrics
        checks.require(
            set(values) == set(units),
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
        )
        checks.finite(values)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}")
        correct = False
        result, values = None, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is not None and result.tracer is not None:
        result.tracer.write(harness.OUT / f"trace-{args.workload}.npz")
    if result is not None:
        for note in result.notes:
            print(note)
        if args.trace:
            ratios = {k: round(float(v), 4) for k, v in values.items() if k.startswith("trace.")}
            print(f"tracing overhead (traced / untraced): {ratios}")
    print(f"elapsed {time.perf_counter() - started:.1f} s")

    output = {
        "correct": correct,
        "attempted": result.attempted if result else 1,
        "failed": result.failed if result else 1,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units if name in values
        },
    }
    record = dict(output, workload=args.workload, trace=args.trace, environment=env)
    harness.OUT.mkdir(exist_ok=True)
    suffix = "trace" if args.trace else "e2e"
    (harness.OUT / f"BENCH_{args.workload}_{suffix}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(output))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
