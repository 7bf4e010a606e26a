"""Spans around the calls into each layer, recorded from the benchmark side.

Every wrapped call records one span: name, start, end, parent span and the
id of the frame it belongs to. Spans live in flat arrays while the run goes
and are written out once at the end. Functions a caller bound at import
(``pipeline.parse_frame``, ``engine.kernel_vector``, ...) are wrapped in the
caller's namespace, methods on their class. Only the thread that installed
the tracer records spans; the monitor's producer threads are not traced.
"""

from __future__ import annotations

import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import vitalwatch.board as board
import vitalwatch.engine as engine
import vitalwatch.pipeline as pipeline
import vitalwatch.sources as sources
import vitalwatch.standardize as standardize
import vitalwatch.tuning as tuning
from harness import percentile
from vitalwatch import DataWarning, VerdictKind

# (owner, attribute, span name, frame rule). A "feed" span starts a frame
# unless a source read just started one; a "root" span starts a frame only
# when no other span is open (engine steps driven by the tuner).
_TARGETS = [
    (pipeline, "parse_frame", "validity.parse", None),
    (pipeline, "validate", "validity.validate", None),
    (pipeline, "track", "validity.track", None),
    (pipeline, "archive_row", "validity.archive_row", None),
    (pipeline, "render", "board.render", None),
    (pipeline, "standardized_stream", "tuning.front_half", None),
    (pipeline.BedPipeline, "feed_line", "pipeline.feed_line", "feed"),
    (standardize.RunningStandardizer, "push", "standardize.push", None),
    (engine, "kernel_vector", "kernels.kernel_vector", None),
    (engine, "kernel_eval", "kernels.kernel_eval", None),
    (engine.KoadEngine, "step", "engine.step", "root"),
    (engine.KoadEngine, "warm_start", "engine.warm_start", "root"),
    (engine.KoadEngine, "projection_error", "engine.projection", None),
    (engine.KoadEngine, "prune_dictionary", "engine.prune", None),
    (engine.DictionaryState, "admit", "engine.admit", None),
    (engine.DictionaryState, "remove", "engine.remove", None),
    (engine.DictionaryState, "consistency_error", "engine.consistency_check", None),
    (engine.DictionaryState, "refresh_inverse", "engine.refresh_inverse", None),
    (board.BoardState, "apply_event", "board.apply_event", None),
    (board.EventArchive, "append", "board.archive_append", None),
    (tuning, "run_detector", "tuning.run_detector", None),
    (tuning, "score_run", "tuning.score_run", None),
]

ENGINE_SPANS = {
    "engine.step", "engine.warm_start", "engine.projection", "engine.prune",
    "engine.admit", "engine.remove", "engine.consistency_check",
    "engine.refresh_inverse", "kernels.kernel_vector", "kernels.kernel_eval",
}


class Tracer:
    """Flat span store plus the counts observed at the same wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.frame = array("i")
        self._stack: list[int] = []
        self._frame = 0
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self._read_pending = False
        # counts at the wrappers
        self.validated = 0
        self.flagged = 0
        self.warnings_raised = 0
        self.pruned = 0
        self.verdicts = {kind: 0 for kind in VerdictKind}
        self.dict_size_sum = 0
        # per bed, feed_line start (wall clock) minus received_at, seconds
        self.queue_waits: dict[str, list[float]] = {}
        self.wall_offset = time.time() - time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, frame_rule: str | None) -> int:
        if frame_rule == "feed":
            if not self._read_pending:
                self._frame += 1
            self._read_pending = False
        elif frame_rule == "root" and not self._stack:
            self._frame += 1
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.frame.append(self._frame)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        self._thread = threading.get_ident()
        for owner, attr, name, frame_rule in _TARGETS:
            self._wrap(owner, attr, name, frame_rule)
        self._wrap_replay_frames()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _wrap(self, owner, attr: str, name: str, frame_rule: str | None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = self._id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            index = tracer.open(name_id, frame_rule)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer, index, args, result)
            return result

        traced.__wrapped__ = original
        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _wrap_replay_frames(self) -> None:
        """Time each step of the ``ReplaySource.frames`` generator; each
        yielded line starts a frame."""
        original = sources.ReplaySource.__dict__["frames"]
        name_id = self._id("sources.read")
        tracer = self

        def traced(source):
            inner = original(source)
            while True:
                index = tracer.open(name_id, None)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(index)
                    return
                tracer.close(index)
                tracer._frame += 1
                tracer._read_pending = True
                tracer.frame[index] = tracer._frame
                yield item

        self._restore.append((sources.ReplaySource, "frames", original))
        sources.ReplaySource.frames = traced

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "frame": np.frombuffer(self.frame, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _observe_validate(tracer: Tracer, index: int, args, result) -> None:
    tracer.validated += 1
    if not result.ok:
        tracer.flagged += 1


def _observe_track(tracer: Tracer, index: int, args, result) -> None:
    if isinstance(result, DataWarning) and result.active:
        tracer.warnings_raised += 1


def _observe_prune(tracer: Tracer, index: int, args, result) -> None:
    tracer.pruned += len(result)


def _observe_step(tracer: Tracer, index: int, args, result) -> None:
    immediate, resolutions = result
    tracer.verdicts[immediate.kind] += 1
    for verdict in resolutions:
        if verdict.kind is VerdictKind.RED2:
            tracer.verdicts[VerdictKind.RED2] += 1
    tracer.dict_size_sum += args[0].dictionary.size


def _observe_feed(tracer: Tracer, index: int, args, result) -> None:
    pipe, _, received_at = args
    if received_at:
        tracer.queue_waits.setdefault(pipe.bed, []).append(
            tracer.start[index] + tracer.wall_offset - received_at
        )


_OBSERVERS = {
    "validity.validate": _observe_validate,
    "validity.track": _observe_track,
    "engine.prune": _observe_prune,
    "engine.step": _observe_step,
    "pipeline.feed_line": _observe_feed,
}


# -- per-layer metrics ---------------------------------------------------------


def _pct(values, q: float) -> float:
    return percentile(values, q) if len(values) else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, rounds: int) -> dict[str, float]:
    """Per-layer numbers from spans and counts; zero where a layer never ran.
    Times are means per call unless a percentile is named; counts are per
    traced round, which repeats the same work."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(
        a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_time = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def of(name: str) -> np.ndarray:
        return a["name"] == ids[name] if name in ids else np.zeros(len(dur), bool)

    def mean_us(name: str) -> float:
        mask = of(name)
        return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

    def count(name: str) -> int:
        return int(of(name).sum())

    step = of("engine.step")
    steps = int(step.sum())
    feed = of("pipeline.feed_line")
    read = of("sources.read")
    frames_read = len(np.unique(a["frame"][read])) if read.any() else 0
    engine_mask = np.isin(a["name"], [ids[n] for n in ENGINE_SPANS if n in ids])
    orange = tracer.verdicts[VerdictKind.ORANGE]
    waits = np.concatenate([[], *tracer.queue_waits.values()]) * 1e3
    return {
        "sources.read_us_per_frame": (
            float(dur[read].sum() / frames_read * 1e6) if frames_read else 0.0
        ),
        "validity.parse_us": mean_us("validity.parse"),
        "validity.validate_us": mean_us("validity.validate"),
        "validity.track_us": mean_us("validity.track"),
        "validity.archive_row_us": mean_us("validity.archive_row"),
        "validity.flagged_ratio": tracer.flagged / tracer.validated if tracer.validated else 0.0,
        "validity.warnings_raised": tracer.warnings_raised / rounds,
        "standardize.push_us": mean_us("standardize.push"),
        "engine.step_us_p50": _pct(dur[step] * 1e6, 50),
        "engine.step_us_p99": _pct(dur[step] * 1e6, 99),
        "engine.warm_start_us": mean_us("engine.warm_start"),
        "engine.step_self_us": float(self_time[step].mean() * 1e6) if steps else 0.0,
        "engine.projection_us": mean_us("engine.projection"),
        "engine.admit_us": mean_us("engine.admit"),
        "engine.remove_us": mean_us("engine.remove"),
        "engine.prune_us": mean_us("engine.prune"),
        "engine.consistency_check_us": mean_us("engine.consistency_check"),
        "engine.admit_count": count("engine.admit") / rounds,
        "engine.remove_count": count("engine.remove") / rounds,
        "engine.prune_count": tracer.pruned / rounds,
        "engine.refresh_inverse_count": count("engine.refresh_inverse") / rounds,
        "engine.dict_size_mean": tracer.dict_size_sum / steps if steps else 0.0,
        "engine.red2_per_orange": (
            tracer.verdicts[VerdictKind.RED2] / orange if orange else 0.0
        ),
        "engine.self_share_of_wall": float(self_time[engine_mask].sum() / wall_s),
        "kernels.kernel_vector_us": mean_us("kernels.kernel_vector"),
        "kernels.kernel_eval_us": mean_us("kernels.kernel_eval"),
        "kernels.kernel_eval_per_step": count("kernels.kernel_eval") / steps if steps else 0.0,
        "board.apply_event_us": mean_us("board.apply_event"),
        "board.archive_append_us": mean_us("board.archive_append"),
        "board.render_ms": mean_us("board.render") / 1e3,
        "pipeline.feed_line_us": mean_us("pipeline.feed_line"),
        "pipeline.feed_line_self_us": (
            float(self_time[feed].mean() * 1e6) if feed.any() else 0.0
        ),
        "pipeline.queue_wait_ms_p50": _pct(waits, 50),
        "pipeline.queue_wait_ms_p99": _pct(waits, 99),
        "tuning.front_half_s": mean_us("tuning.front_half") / 1e6,
        "tuning.run_detector_s": mean_us("tuning.run_detector") / 1e6,
        "tuning.score_run_ms": mean_us("tuning.score_run") / 1e3,
        # measured by the monitor harness; zero on the other workloads
        "sources.socket_lag_ms_p50": 0.0,
        "sources.socket_lag_ms_p99": 0.0,
        "pipeline.backlog_max": 0.0,
        "generator.late_ms_p50": 0.0,
        "generator.late_ms_p99": 0.0,
    }
