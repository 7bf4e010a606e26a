"""The replay-archive and tune-grid workloads, and the pieces every workload
shares.

Each run repeats a round of work until ``--seconds`` have passed. Every
timed piece of a round is scaled to the reference machine (see
``harness.timed``); a metric is the median over rounds. Detection quality
and counts do not depend on timing.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing
import vitalwatch.pipeline as pipeline
import vitalwatch.tuning as tuning
from harness import Segments, median_setup_s, peak_rss_mb, percentile, timed
from vitalwatch import (
    BedPipeline,
    DetectionReport,
    MatchPolicy,
    ReplaySource,
    Settings,
    Verdict,
    load_settings,
    read_labels,
    replay_run,
)

SEGMENT = 2_000  # frames between calibrations inside a pass
REPLAY_LINES = 20_000
# tune-grid tunes several captures a round: at sigma = 1.0 the detector's work
# depends on the stream (Red1 flood or churn), and more streams average it.
TUNE_STREAMS = 6
TUNE_LINES = 2_500
TUNE_SIGMAS = (1.0, 1.5, 2.5)  # Red1 flood, Orange/Red2 churn, mostly Green
TUNE_ELLS = (10, 20)
TIMED = ("frames_per_s", "inmem_frames_per_s", "us_per_config_step",
         "latency_p50_ms", "latency_p99_ms")


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


class FrameClock:
    """Stamps each frame ReplaySource hands out, and when the next is asked
    for: the gap is the frame's time in replay_run's loop body. Every
    SEGMENT frames it cuts ``segments`` so the run is scaled piecewise."""

    def __init__(self, segments: Segments) -> None:
        self.segments = segments
        self.handed: list[float] = []
        self.done: list[float] = []

    def scaled_latency_ms(self) -> np.ndarray:
        scale = np.repeat(self.segments.scales(), SEGMENT)[: len(self.done)]
        return np.subtract(self.done, self.handed) * scale * 1e3

    @contextmanager
    def installed(self):
        original = ReplaySource.__dict__["frames"]
        clock = self

        def frames(source):
            for i, item in enumerate(original(source)):
                if i and i % SEGMENT == 0:
                    clock.segments.cut()
                clock.handed.append(time.perf_counter())
                yield item
                clock.done.append(time.perf_counter())

        ReplaySource.frames = frames
        try:
            yield self
        finally:
            ReplaySource.frames = original


@contextmanager
def rows_timed(segments: Segments):
    """Cuts ``segments`` at each grid row ``grid_search`` finishes (when its
    ``score_run`` returns)."""
    original = tuning.score_run

    def score_run(*args, **kwargs):
        result = original(*args, **kwargs)
        segments.cut()
        return result

    tuning.score_run = score_run
    try:
        segments.start()
        yield segments
    finally:
        tuning.score_run = original


@contextmanager
def steps_timed(segments: Segments):
    """Cuts ``segments`` every SEGMENT vectors ``run_detector`` wraps (its
    calls to ``MeasurementVector``), so a detector pass is scaled piecewise."""
    original = tuning.MeasurementVector
    made = 0

    def measurement_vector(values, timestep):
        nonlocal made
        if made and made % SEGMENT == 0:
            segments.cut()
        made += 1
        return original(values, timestep)

    tuning.MeasurementVector = measurement_vector
    try:
        segments.start()
        yield segments
    finally:
        tuning.MeasurementVector = original
    segments.cut()


def inmem_pass(lines: list[str], settings: Settings, bed: str = "bed1",
               segments: Segments | None = None) -> list:
    """The README library path: a BedPipeline with no archive."""
    pipe = BedPipeline(bed, settings)
    events = []
    for i, line in enumerate(lines):
        if segments is not None and i and i % SEGMENT == 0:
            segments.cut()
        events.extend(pipe.feed_line(line, 0.0))
    return events


def detector_pass(front, settings: Settings) -> list[Verdict]:
    """One default-config detector run over the standardized vectors."""
    timesteps, vectors = front
    return tuning.run_detector(
        vectors, settings.threshold_config(), settings.train_steps, timesteps
    )


def baselines(lines: list[str], front, settings: Settings, tracer, bed: str = "bed1") -> dict:
    """The single-threaded in-memory chain and the bare detector, timed on
    the workload's own lines. Traced rounds time the detector pass whole:
    calibrations inside it would land in the ``tuning.run_detector`` span."""
    inmem = Segments()
    inmem.start()
    events = inmem_pass(lines, settings, bed, inmem)
    inmem.cut()
    if tracer is None:
        with steps_timed(Segments()) as detector:
            verdicts = detector_pass(front, settings)
        detector_s, detector_ref_s = sum(detector.seconds), detector.scaled().sum()
    else:
        verdicts, detector_s, scale = timed(detector_pass, front, settings)
        detector_ref_s = detector_s * scale
    return {
        "inmem_frames_per_s": len(lines) / inmem.scaled().sum(),
        "us_per_config_step": detector_ref_s / len(front[1]) * 1e6,
        "baseline_s": sum(inmem.seconds) + detector_s,
        "events": events,
        "verdicts": verdicts,
    }


def quality(*beds: tuple[list[Verdict], list, int]) -> dict[str, float]:
    """Recall and false alarms per 1000 scored frames under the default
    MatchPolicy, pooled over beds given as (verdicts, labels, scored)."""
    reports = [tuning.score_run(verdicts, labels, MatchPolicy()) for verdicts, labels, _ in beds]
    return {
        "recall": sum(r.detected for r in reports) / sum(len(b[1]) for b in beds),
        "false_alarms_per_1k": (
            sum(r.false_alarms for r in reports) / sum(b[2] for b in beds) * 1000.0
        ),
    }


def timed_rounds(seconds: float, trace: bool, round_fn):
    """Call ``round_fn(tracer)`` until ``seconds`` pass. Untraced rounds get
    ``None``; with ``trace`` a traced round follows each untraced one, all
    recording into one tracer. Returns both lists of round records."""
    plain, traced = [], []
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(round_fn(None))
        if tracer is not None:
            with tracer.installed():
                traced.append(round_fn(tracer))
        if time.perf_counter() >= deadline:
            return plain, traced, tracer


def trace_layers(tracer, plain, traced, detection: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics plus the tracing overhead (traced over untraced
    frames_per_s and us_per_config_step, medians over rounds) and the false
    alarm rate, too uneven between inputs to carry an end-to-end bound."""
    layers = tracing.layer_metrics(tracer, sum(r["wall"] for r in traced), len(traced))
    layers["tuning.false_alarms_per_1k"] = detection["false_alarms_per_1k"]
    layers["trace.frames_per_s_ratio"] = (
        median_of(traced, "frames_per_s") / median_of(plain, "frames_per_s")
    )
    layers["trace.us_per_config_step_ratio"] = (
        median_of(traced, "us_per_config_step") / median_of(plain, "us_per_config_step")
    )
    return layers


def baseline_checks(front, settings: Settings, verdicts: list[Verdict]) -> None:
    """The default-config verdicts agree with the dense reference detector."""
    timesteps, vectors = front
    checks.reference_prefix(
        vectors, timesteps, settings.threshold_config(), settings.train_steps, verdicts
    )


# -- replay-archive ---------------------------------------------------------------


def replay_archive(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    config = inputs.write_config(work)
    settings = load_settings(config)
    stream, faults = inputs.replay_capture(REPLAY_LINES, seed, settings.warn_threshold)
    path, _ = inputs.write_stream(stream, work, "capture")
    lines = stream.lines
    setup_s = median_setup_s("replay", [str(config), str(path), str(work / "probe")])
    front = pipeline.standardized_stream(lines, settings)
    first: dict = {}
    failed = 0

    def one_round(tracer) -> dict:
        nonlocal failed
        out = work / "archive"
        clock = FrameClock(Segments())
        with clock.installed():
            clock.segments.start()
            counts = replay_run(settings, path, out_dir=out)
            clock.segments.cut()
        base = baselines(lines, front, settings, tracer)

        # checks, outside the timed pieces
        rows = checks.archive_rows(out / "events.csv")
        checks.require(
            len(rows) == counts["events"], f"{len(rows)} event rows, {counts['events']} emitted"
        )
        failed += len(lines) - checks.line_count(out / "frames_bed1.csv")
        first.setdefault("rows", rows)
        first.setdefault("verdicts", base["verdicts"])
        checks.same_rows(rows, first["rows"], "replay archive vs the first replay")
        checks.same_rows(
            checks.stripped_rows("bed1", base.pop("events")), rows,
            "in-memory BedPipeline events vs replay archive",
        )
        checks.same_rows(
            checks.stripped_rows("bed1", base.pop("verdicts")), checks.verdicts_only(rows),
            "run_detector on standardized_stream vs replay verdicts",
        )
        frame_ms = clock.scaled_latency_ms()
        return {
            **base,
            "wall": sum(clock.segments.seconds) + base["baseline_s"],
            "frames_per_s": len(lines) / clock.segments.scaled().sum(),
            "latency_p50_ms": percentile(frame_ms, 50),
            "latency_p99_ms": percentile(frame_ms, 99),
        }

    plain, traced, tracer = timed_rounds(seconds, trace, one_round)
    detection = quality((first["verdicts"], stream.labels, len(front[1]) - settings.train_steps))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        **{key: median_of(plain, key) for key in TIMED},
        "recall": detection["recall"],
    }
    checks.require(failed == 0, f"{failed} frames never got an archive row")
    baseline_checks(front, settings, first["verdicts"])

    rounds = len(plain) + len(traced)
    result = Result(metrics, attempted=len(lines) * rounds, failed=failed)
    result.notes.append(
        f"replay-archive: {len(lines)} lines, {faults} corrupted, "
        f"{len(stream.labels)} labels, {len(front[1])} standardized vectors; "
        f"{len(plain)} untraced rounds; latency over {len(lines)} frames a round"
    )
    if trace:
        result.layers = trace_layers(tracer, plain, traced, detection)
        result.tracer = tracer
    return result


# -- tune-grid ----------------------------------------------------------------------


def tune_grid(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    config = inputs.write_config(
        work, "grid_sigma = " + ", ".join(map(str, TUNE_SIGMAS)),
        "grid_ell = " + ", ".join(map(str, TUNE_ELLS)),
    )
    settings = load_settings(config)
    streams = inputs.tune_streams(TUNE_LINES, seed, TUNE_STREAMS)
    files = [inputs.write_stream(s, work, f"labelled{k}") for k, s in enumerate(streams)]
    setup_s = median_setup_s("tune", [str(config), *map(str, files[0])])
    deployed = settings.threshold_config()
    configs = len(settings.tuning_grid())
    first_reports: dict[int, list] = {}
    scored: dict[int, tuple] = {}  # stream -> (verdicts, labels, scored steps)
    best_rows: dict[int, DetectionReport] = {}
    failed = 0

    def front_half(path, labels_path):
        # the calls cmd_tune makes before the grid, in its order
        source = ReplaySource(path, settings.password)
        lines = [line for line, _ in source.frames()]
        timesteps, vectors = pipeline.standardized_stream(lines, settings)
        return lines, timesteps, vectors, read_labels(labels_path)

    def tune_one(k: int, path: Path, labels_path: Path, tracer) -> dict:
        nonlocal failed
        (lines, timesteps, vectors, labels), front_s, front_scale = timed(
            front_half, path, labels_path
        )
        with rows_timed(Segments()) as rows:
            reports, best = tuning.grid_search(
                settings.tuning_grid(), vectors, labels,
                policy=settings.match_policy(), train_steps=settings.train_steps,
                timesteps=timesteps,
            )
        base = baselines(lines, (timesteps, vectors), settings, tracer)

        # checks, outside the timed pieces
        failed += configs - len(reports)
        for report in reports:
            checks.require(
                report.detected + report.missed == len(labels),
                f"grid row {report.config} does not account for every label",
            )
        first_reports.setdefault(k, reports)
        checks.require(reports == first_reports[k], "tune reports differ between rounds")
        events, verdicts = base.pop("events"), base.pop("verdicts")
        if k not in scored:
            row = next(r for r in reports if r.config == deployed)
            replayed = [e for e in events if isinstance(e, Verdict)]
            via_replay = tuning.score_run(
                replayed, labels, settings.match_policy(), config=deployed
            )
            checks.require(
                via_replay == row,
                f"grid row {row} differs from scoring the replay path {via_replay}",
            )
            checks.same_rows(
                checks.stripped_rows("bed1", verdicts), checks.stripped_rows("bed1", replayed),
                "run_detector vs the in-memory BedPipeline",
            )
            if k == 0:
                baseline_checks((timesteps, vectors), settings, replayed)
            scored[k] = (replayed, labels, len(vectors) - settings.train_steps)
            best_rows[k] = best
        return {
            **base,
            "lines": len(lines),
            "config_steps": configs * len(vectors),
            "tune_s": front_s * front_scale + rows.scaled().sum(),
            "rows_ms": rows.scaled() * 1e3,
            "wall": front_s + sum(rows.seconds) + base["baseline_s"],
        }

    def one_round(tracer) -> dict:
        tunes = [tune_one(k, *paths, tracer) for k, paths in enumerate(files)]
        tune_s = sum(t["tune_s"] for t in tunes)
        rows_ms = np.concatenate([t["rows_ms"] for t in tunes])
        return {
            "wall": sum(t["wall"] for t in tunes),
            "frames_per_s": sum(t["lines"] for t in tunes) / tune_s,
            "us_per_config_step": tune_s / sum(t["config_steps"] for t in tunes) * 1e6,
            "latency_p50_ms": percentile(rows_ms, 50),
            "latency_p99_ms": percentile(rows_ms, 99),
            "inmem_frames_per_s": statistics.median(t["inmem_frames_per_s"] for t in tunes),
        }

    plain, traced, tracer = timed_rounds(seconds, trace, one_round)
    detection = quality(*scored.values())
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        **{key: median_of(plain, key) for key in TIMED},
        "recall": detection["recall"],
    }
    checks.require(failed == 0, f"{failed} grid rows missing")

    rounds = len(plain) + len(traced)
    result = Result(metrics, attempted=configs * len(files) * rounds, failed=failed)
    result.notes.append(
        f"tune-grid: {len(files)} streams x {TUNE_LINES} lines, {configs} configs each; "
        f"{len(plain)} untraced rounds; latency over {configs * len(files)} grid rows; "
        "best rows " + "; ".join(
            f"nu1={b.nu1} nu2={b.nu2} sigma={b.config.sigma} ell={b.config.ell}"
            for b in best_rows.values()
        )
    )
    if trace:
        result.layers = trace_layers(tracer, plain, traced, detection)
        result.tracer = tracer
    return result
