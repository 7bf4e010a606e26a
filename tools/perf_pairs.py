"""Paired benchmark runs of two git revisions, and the rules that judge them.

Run from the repository root:

    python3 tools/perf_pairs.py --base HEAD~1 --change HEAD --workload replay-archive \\
        --pairs 10 --seconds 30 --seed 9001 --claim latency_p50_ms
    python3 tools/perf_pairs.py --base HEAD --change HEAD --workload tune-grid \\
        --pairs 1 --seconds 1

It extracts each revision's whole tree with ``git archive`` into a temporary
directory and runs ``perfbench/run.py --trace 0`` in each copy, so both
sides run their own benchmark code. Pair i runs seed ``--seed`` + i on both
sides; the side that goes first alternates from pair to pair, the base
first in the first pair. Passing one revision twice is an A/A run.

For every end-to-end metric in the working tree's ``BENCHMARK.json`` it
prints each side's median and quartiles over the pairs, the ratio of the
medians (change / base), the pairs the change won in the metric's
``better`` direction (ties count for neither), and whether the change's
median is within the metric's bound of the base's, worse than it, or
unresolved: the base's own quartiles lie further apart than the bound
allows, and not every change run reads better than every base run. With
``--claim METRIC`` it also says whether a gain on that metric is met: the
change won at least nine tenths of the pairs, and its median is better than
the base's by more than the distance between the base's quartiles.

The run exits 1 at the first benchmark run that fails or prints
``"correct": false``, and 2 with one line on standard error when git cannot
archive a revision.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A benchmark run exited non-zero or reported a failed check."""


def run_record(returncode: int, stdout: str) -> dict:
    """The JSON result a benchmark run printed as its last line; refuses a
    run that exited non-zero, printed no result, or was not correct."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(f"exit {returncode}, no result line") from None
    if returncode or record.get("correct") is not True:
        raise RunFailed(f"exit {returncode}, correct: {json.dumps(record.get('correct'))}")
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def judge(metric: dict, base: list[float], change: list[float]) -> dict:
    """One end-to-end metric over paired runs, base[i] paired with change[i]:
    both sides' quartiles, the ratio of the medians, the change's wins and
    its verdict against the metric's bound."""
    lower = metric["better"] == "lower"
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change, strict=True))
    worse = (cmed - bmed) if lower else (bmed - cmed)  # > 0: the change is worse
    scale = abs(bmed)
    if (max(change) < min(base)) if lower else (min(change) > max(base)):
        verdict = "within bound"  # every change run reads better than every base run
    elif b3 - b1 > metric["bound"] * scale:
        verdict = "unresolved (base spread wider than bound)"
    elif worse > metric["bound"] * scale:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "base": (b1, bmed, b3),
        "change": (c1, cmed, c3),
        "ratio": cmed / bmed if bmed else float("nan"),
        "wins": wins,
        "gain": -worse,
        "verdict": verdict,
    }


def claim_met(judged: dict, pairs: int) -> bool:
    """A gain is met when the change won at least nine tenths of the pairs
    and its median is better than the base's by more than the distance
    between the base's quartiles."""
    b1, _, b3 = judged["base"]
    return judged["wins"] * 10 >= 9 * pairs and judged["gain"] > b3 - b1


def table(metrics: list[dict], base: list[dict], change: list[dict], claim: str | None) -> list[str]:
    """The report lines for the paired run records of both sides."""
    pairs = len(base)
    lines = [
        f"{'metric':<20} {'unit':<9} {'base median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'ratio':>7} {'wins':>7}  bound"
    ]
    judged = {}
    for metric in metrics:
        name = metric["name"]
        judged[name] = j = judge(
            metric,
            [r["metrics"][name]["value"] for r in base],
            [r["metrics"][name]["value"] for r in change],
        )
        (b1, bmed, b3), (c1, cmed, c3) = j["base"], j["change"]
        base_text = f"{bmed:.5g} [{b1:.5g}, {b3:.5g}]"
        change_text = f"{cmed:.5g} [{c1:.5g}, {c3:.5g}]"
        wins = f"{j['wins']}/{pairs}"
        lines.append(
            f"{name:<20} {metric['unit']:<9} {base_text:<32} {change_text:<32} "
            f"{j['ratio']:>7.3f} {wins:>7}  {j['verdict']}"
        )
    for side, records in (("base", base), ("change", change)):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        lines.append(f"{side}: {failed} of {attempted} operations failed")
    if claim is not None:
        met = claim_met(judged[claim], pairs)
        lines.append(f"claim {claim}: {'met' if met else 'not met'}")
    return lines


def extract(rev: str, into: Path) -> None:
    """Write ``rev``'s tree into the directory ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
    if archive.returncode:
        message = archive.stderr.decode(errors="replace").strip().splitlines()
        raise ValueError(f"cannot archive {rev}: {' '.join(message)}")
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``; its record."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return run_record(done.returncode, done.stdout)
    except RunFailed as exc:
        tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])
        raise RunFailed(f"{checkout.name} seed {seed}: {exc}\n{tail}") from None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV")
    parser.add_argument("--change", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs seed K + i (default 1)")
    parser.add_argument("--claim", metavar="METRIC", help="judge a gain on this metric")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim names no end-to-end metric: {args.claim}")
    records: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        try:
            extract(args.base, checkouts["base"])
            extract(args.change, checkouts["change"])
        except ValueError as exc:
            print(f"perf_pairs: {exc}", file=sys.stderr)
            return 2
        print(
            f"{args.workload}: {args.pairs} pair(s) x {args.seconds:g} s, seeds "
            f"{args.seed}-{args.seed + args.pairs - 1}; base {args.base}, change {args.change}"
        )
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                try:
                    record = bench(checkouts[side], args.workload, seed, args.seconds)
                except RunFailed as exc:
                    print(f"perf_pairs: {side} run failed: {exc}", file=sys.stderr)
                    return 1
                records[side].append(record)
                values = " ".join(
                    f"{m['name']}={record['metrics'][m['name']]['value']:.5g}" for m in metrics
                )
                print(f"pair {i + 1} seed {seed} {side}: {values}", flush=True)
    for line in table(metrics, records["base"], records["change"], args.claim):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
