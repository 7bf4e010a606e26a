"""The monitor-socket workload: ``monitor_run`` with two socket beds, fed by
a generator process (sender.py) in an open loop and then a burst.

It is not in BENCHMARK.json: on a shared 2-core machine its open-loop p99
latency follows scheduling stalls of 5-15 ms that hit both processes, and
it moved 1.0-2.8 ms between runs of the same code. Run it by name.

Each cycle is one fresh ``monitor_run`` on fresh loopback ports into a fresh
archive directory (the monitor appends to archives and never clears them).
The board goes to a sink; once every line sent has been fed, the sink ends
the run at the next refresh the way Ctrl-C would.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
import inputs
import vitalwatch.pipeline as pipeline
from harness import BENCH_DIR, ROOT, median_setup_s, peak_rss_mb, percentile, timed
from vitalwatch import BedPipeline, Verdict, load_settings
from workloads import (
    TIMED,
    Result,
    baseline_checks,
    baselines,
    inmem_pass,
    median_of,
    quality,
    timed_rounds,
    trace_layers,
)

BEDS = 2
OPEN_RATE = 500.0  # aggregate frames/s in the open loop, well below capacity
OPEN_PER_BED = 500  # 2 s of open loop
BURST_PER_BED = 2_000
REFRESH_S = 0.25  # board redraws per cycle: per-refresh work shows
RUN_LIMIT_S = 60.0  # a cycle that has not drained by then counts its losses


def free_ports(count: int) -> list[int]:
    socks = [socket.create_server(("127.0.0.1", 0)) for _ in range(count)]
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


class FeedClock:
    """Records, per bed, each frame's received_at and the wall time its
    ``feed_line`` returned."""

    def __init__(self) -> None:
        self.received: dict[str, list[float]] = {}
        self.returned: dict[str, list[float]] = {}
        self.fed = 0

    @contextmanager
    def installed(self):
        original = BedPipeline.__dict__["feed_line"]
        clock = self

        def feed_line(pipe, line, received_at):
            events = original(pipe, line, received_at)
            clock.returned.setdefault(pipe.bed, []).append(time.time())
            clock.received.setdefault(pipe.bed, []).append(received_at)
            clock.fed += 1
            return events

        BedPipeline.feed_line = feed_line
        try:
            yield self
        finally:
            BedPipeline.feed_line = original


class StopSink:
    """Discards the board; raises KeyboardInterrupt at the first redraw
    after ``expected`` frames were fed."""

    def __init__(self, clock: FeedClock, expected: int) -> None:
        self.clock = clock
        self.expected = expected
        self.stopped = False

    def write(self, text: str) -> None:
        if not self.stopped and self.clock.fed >= self.expected:
            self.stopped = True
            raise KeyboardInterrupt


def monitor_config(directory: Path, ports: list[int]) -> Path:
    return inputs.write_config(
        directory, f"refresh = {REFRESH_S}",
        *(f"bed.bed{b}.source = socket:127.0.0.1:{port}" for b, port in enumerate(ports)),
    )


def run_cycle(files: list[Path], work: Path, index: int) -> dict:
    """One monitor_run fed by one generator process; checks its archives."""
    ports = free_ports(BEDS)
    settings = load_settings(monitor_config(work / f"cycle{index}", ports))
    plan = work / f"plan{index}.json"
    plan.write_text(json.dumps({
        "ports": ports, "files": [str(f) for f in files],
        "rate": OPEN_RATE, "open_per_bed": OPEN_PER_BED,
    }), encoding="utf-8")
    out = work / f"monitor{index}"
    clock = FeedClock()
    expected = BEDS * (OPEN_PER_BED + BURST_PER_BED)
    sender = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "sender.py"), str(plan)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        with clock.installed():
            counts = pipeline.monitor_run(
                settings, out_dir=out, duration=RUN_LIMIT_S, screen=StopSink(clock, expected)
            )
        stdout, _ = sender.communicate(timeout=60)
    finally:
        if sender.poll() is None:
            sender.kill()
            sender.wait()
    checks.require(sender.returncode == 0, f"sender exited with {sender.returncode}")
    return {"clock": clock, "sender": json.loads(stdout), "out": out,
            "events": counts["events"], "expected": expected}


def cycle_metrics(cycle: dict, scale: float) -> dict[str, float]:
    """Open-loop latency (due time to feed_line return), burst drain rate,
    and where the time went: generator lateness and socket lag."""
    clock, sender = cycle["clock"], cycle["sender"]
    t0 = sender["t0"]
    latency, lag = [], []
    for b in range(BEDS):
        returned = clock.returned.get(f"bed{b}", [])[:OPEN_PER_BED]
        received = clock.received.get(f"bed{b}", [])[:OPEN_PER_BED]
        due = t0 + (np.arange(len(returned)) * BEDS + b) / OPEN_RATE
        latency.extend(np.subtract(returned, due))
        lag.extend(np.subtract(received, due))
    open_due = t0 + np.arange(len(sender["open_sent_at"])) / OPEN_RATE
    late = np.subtract(sender["open_sent_at"], open_due)
    burst_done = np.concatenate(
        [clock.returned.get(f"bed{b}", [])[OPEN_PER_BED:] for b in range(BEDS)]
    )
    drain_s = (burst_done.max() - burst_done.min()) * scale
    return {
        "frames_per_s": (len(burst_done) - 1) / drain_s,
        "latency_p50_ms": percentile(latency, 50) * scale * 1e3,
        "latency_p99_ms": percentile(latency, 99) * scale * 1e3,
        "samples": len(latency),
        "lag_p50_ms": percentile(lag, 50) * 1e3,
        "lag_p99_ms": percentile(lag, 99) * 1e3,
        "late_p50_ms": percentile(late, 50) * 1e3,
        "late_p99_ms": percentile(late, 99) * 1e3,
        "backlog_max": backlog_max(cycle),
    }


def backlog_max(cycle: dict) -> int:
    """Most frames sent and not yet fed at any moment."""
    sender, clock = cycle["sender"], cycle["clock"]
    moves = [(t, 1) for t in sender["open_sent_at"]]
    done = [0] * BEDS
    for t, bed, lines in sender["burst_log"]:
        moves.append((t, lines - done[bed]))
        done[bed] = lines
    for times in clock.returned.values():
        moves.extend((t, -1) for t in times)
    moves.sort()
    return int(np.max(np.cumsum([m for _, m in moves])))


def check_cycle(cycle: dict, replayed: dict[str, list]) -> None:
    """Each bed's archived events equal a replay of its lines (wall clock
    stripped), and archive row counts equal what was fed and emitted."""
    out, clock = cycle["out"], cycle["clock"]
    rows = checks.archive_rows(out / "events.csv")
    checks.require(len(rows) == cycle["events"], f"{out.name}: event rows vs emitted")
    for bed, events in replayed.items():
        checks.same_rows(
            checks.archive_rows(out / "events.csv", bed=bed),
            checks.stripped_rows(bed, events),
            f"{out.name} {bed} events vs a replay of its lines",
        )
        frames = checks.line_count(out / f"frames_{bed}.csv")
        fed = len(clock.returned.get(bed, []))
        checks.require(frames == fed, f"{out.name} {bed}: {frames} archived frames, {fed} fed")


def monitor_socket(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    streams = inputs.monitor_beds(OPEN_PER_BED + BURST_PER_BED, seed, BEDS)
    files = [inputs.write_stream(s, work, f"bed{b}")[0] for b, s in enumerate(streams)]
    probe_config = monitor_config(work / "probe", free_ports(BEDS))
    setup_s = median_setup_s("monitor", [str(probe_config), str(work / "probe")])
    settings = load_settings(inputs.write_config(work))
    fronts = [pipeline.standardized_stream(s.lines, settings) for s in streams]
    replayed = {f"bed{b}": inmem_pass(s.lines, settings, f"bed{b}") for b, s in enumerate(streams)}
    verdicts = {bed: [e for e in events if isinstance(e, Verdict)] for bed, events in replayed.items()}
    totals = {"attempted": 0, "failed": 0, "cycles": 0}

    def one_round(tracer) -> dict:
        cycle, wall, scale = timed(run_cycle, files, work, totals["cycles"])
        totals["cycles"] += 1
        totals["attempted"] += cycle["expected"]
        totals["failed"] += cycle["expected"] - cycle["clock"].fed
        check_cycle(cycle, replayed)
        shutil.rmtree(cycle["out"])
        base = baselines(streams[0].lines, fronts[0], settings, tracer, "bed0")
        checks.same_rows(
            checks.stripped_rows("bed0", base.pop("verdicts")),
            checks.stripped_rows("bed0", verdicts["bed0"]),
            "run_detector vs the bed0 pipeline",
        )
        base.pop("events")
        return {**base, **cycle_metrics(cycle, scale), "wall": wall + base["baseline_s"]}

    plain, traced, tracer = timed_rounds(seconds, trace, one_round)
    detection = quality(*(
        (verdicts[f"bed{b}"], s.labels, len(fronts[b][1]) - settings.train_steps)
        for b, s in enumerate(streams)
    ))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        **{key: median_of(plain, key) for key in TIMED},
        "recall": detection["recall"],
    }
    checks.require(totals["failed"] == 0, f"{totals['failed']} frames sent were never fed")
    baseline_checks(fronts[0], settings, verdicts["bed0"])

    result = Result(metrics, attempted=totals["attempted"], failed=totals["failed"])
    result.notes.append(
        f"monitor-socket: {BEDS} beds x ({OPEN_PER_BED} open-loop at {OPEN_RATE:g}/s "
        f"aggregate + {BURST_PER_BED} burst) a cycle; {len(plain)} untraced cycles; "
        f"latency over {plain[0]['samples']} frames a cycle; generator late "
        f"p50 {median_of(plain, 'late_p50_ms'):.3f} ms, p99 {median_of(plain, 'late_p99_ms'):.3f} ms"
    )
    if trace:
        result.layers = trace_layers(tracer, plain, traced, detection)
        result.layers.update(monitor_layers(tracer, traced))
        result.tracer = tracer
    return result


def monitor_layers(tracer, traced: list[dict]) -> dict[str, float]:
    """Medians over traced cycles; queue wait over open-loop frames only."""
    per_bed = OPEN_PER_BED + BURST_PER_BED
    waits = [
        w * 1e3 for bed_waits in tracer.queue_waits.values()
        for i, w in enumerate(bed_waits) if i % per_bed < OPEN_PER_BED
    ]
    return {
        "sources.socket_lag_ms_p50": median_of(traced, "lag_p50_ms"),
        "sources.socket_lag_ms_p99": median_of(traced, "lag_p99_ms"),
        "pipeline.queue_wait_ms_p50": percentile(waits, 50),
        "pipeline.queue_wait_ms_p99": percentile(waits, 99),
        "pipeline.backlog_max": float(max(c["backlog_max"] for c in traced)),
        "generator.late_ms_p50": median_of(traced, "late_p50_ms"),
        "generator.late_ms_p99": median_of(traced, "late_p99_ms"),
    }
