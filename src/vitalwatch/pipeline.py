"""Per-bed processing chain and the run drivers behind the CLI.

Chain per frame: parse -> validate -> archive -> streak tracking -> column
mask -> running standardization -> detector. The frame's position in the
stream is its timestep; flagged frames keep their slot (the archive carries
them, the detector never sees them), so a stretch of bad data shows up to
the detector as a gap, not as shifted time.

The detector only scores once it has a model of normality: the first
``warmup`` valid frames only settle the standardizer, the next
``train_steps`` build the dictionary silently, and everything after is
scored live.

Each half of the chain has one implementation. ``BedPipeline.screen`` is the
front half, up to the standardized vector; ``KoadEngine.feed`` is the
detector half, training then scoring. ``replay`` and ``monitor`` run both
through ``feed_line``; ``tune`` runs the front half once
(``standardized_stream``) and the detector half once per grid row
(``tuning.run_detector``, through ``KoadEngine.feed_run``, which scores
blocks of arrivals with verdicts bitwise equal to ``feed``'s).
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from pathlib import Path
from queue import Empty, Full, Queue

import numpy as np

from .board import BoardState, EventArchive, needs_flush, render
from .config import BedSource, Settings
from .engine import KoadEngine, MeasurementVector, Verdict
from .sources import (
    ReplaySource,
    SocketSource,
    SourceError,
    SyntheticSource,
    TailSource,
    socket_address,
)
from .synth import default_spec
from .validity import (
    DataWarning,
    FlagStreak,
    archive_header,
    archive_row,
    parse_frame,
    track,
    validate,
)
from .standardize import RunningStandardizer


class BedPipeline:
    """Single-writer chain turning raw lines into verdicts for one bed.

    The frame archive, when given, gets one row per record. It is flushed
    after a flagged frame's row and after a frame whose events include one
    that ``needs_flush``, so the frames behind an alarm or a data warning
    survive a killed process.
    """

    def __init__(self, bed: str, settings: Settings, frame_archive=None) -> None:
        self.bed = bed
        self.settings = settings
        self.schema = settings.schema()
        self.streak = FlagStreak(warn_threshold=settings.warn_threshold)
        self.standardizer = RunningStandardizer(
            self.schema.dim, warmup=settings.warmup, var_floor=settings.var_floor
        )
        self.engine = KoadEngine(self.schema.dim, settings.threshold_config())
        self.frame_index = 0
        self._archive = frame_archive
        if frame_archive is not None and frame_archive.tell() == 0:
            frame_archive.write(archive_header(self.schema) + "\n")

    @property
    def phase(self) -> str:
        if not self.standardizer.warmed_up:
            return "warmup"
        if self.engine.steps_seen < self.settings.train_steps:
            return "training"
        return "live"

    def screen(
        self, line: str, received_at: float
    ) -> tuple[DataWarning | None, MeasurementVector | None]:
        """Front half of the chain for one raw record.

        Returns the streak's warning transition, if this frame caused one,
        and the standardized vector for the detector, or None for a flagged
        or warm-up frame.
        """
        timestep = self.frame_index
        self.frame_index += 1
        frame = parse_frame(line)
        result = validate(frame, self.settings.password, self.schema)
        if self._archive is not None:
            self._archive.write(
                archive_row(self.bed, timestep, received_at, result, frame, self.schema)
                + "\n"
            )
            if not result.ok:
                self._archive.flush()
        warning = track(self.streak, result, timestep)
        if not result.ok:
            return warning, None
        z = self.standardizer.push(self.schema.project(result.vector))
        if self.standardizer.count <= self.settings.warmup:
            return warning, None  # raw passthrough frames never reach the detector
        return warning, MeasurementVector(z, timestep)

    def feed_line(self, line: str, received_at: float) -> list[Verdict | DataWarning]:
        """Process one raw record; returns the events it produced."""
        warning, x = self.screen(line, received_at)
        events: list[Verdict | DataWarning] = [] if warning is None else [warning]
        if x is not None:
            events += self.engine.feed(x, self.settings.train_steps)
        if self._archive is not None and any(map(needs_flush, events)):
            self._archive.flush()
        return events


def standardized_stream(
    lines: list[str], settings: Settings, bed: str = "bed1"
) -> tuple[list[int], list[np.ndarray]]:
    """Run only the front half of a fresh ``BedPipeline``; returns the
    model-space vectors with their original stream timesteps (for the
    tuner)."""
    pipe = BedPipeline(bed, settings)
    timesteps: list[int] = []
    vectors: list[np.ndarray] = []
    for line in lines:
        _, x = pipe.screen(line, 0.0)
        if x is not None:
            timesteps.append(x.timestep)
            vectors.append(x.values)
    return timesteps, vectors


def build_source(bed: BedSource, settings: Settings, stop: threading.Event):
    if bed.kind == "replay":
        return ReplaySource(
            bed.target, settings.password, settings.poll_interval, settings.speedup
        )
    if bed.kind == "tail":
        return TailSource(bed.target, settings.poll_interval, stop=stop)
    if bed.kind == "socket":
        try:
            host, port = socket_address(bed.target)
        except ValueError as exc:
            raise SourceError(str(exc)) from None
        return SocketSource(host, port, stop=stop)
    if bed.kind == "synthetic":
        spec = default_spec(
            steps=10_000,
            n_anomalies=20,
            seed=int(bed.target),
            dim=settings.schema().arity,
            first_anomaly=max(300, 2 * (settings.warmup + settings.train_steps)),
        )
        return SyntheticSource(
            spec, settings.password, settings.poll_interval, settings.speedup
        )
    raise SourceError(f"unknown source kind {bed.kind!r}")


class RunArtifacts:
    """Where one run writes its outputs."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def frame_archive_path(self, bed: str) -> Path:
        return self.out_dir / f"frames_{bed}.csv"

    @property
    def event_archive_path(self) -> Path:
        return self.out_dir / "events.csv"

    def fresh(self) -> None:
        """Remove archives from previous runs (replay wants a clean slate)."""
        for path in [self.event_archive_path, *self.out_dir.glob("frames_*.csv")]:
            path.unlink(missing_ok=True)


def replay_run(
    settings: Settings,
    path: str | Path,
    bed: str = "bed1",
    out_dir: str | Path = "archives",
    speedup: float | None = None,
    screen=None,
) -> dict:
    """Synchronous single-bed replay; returns run counters."""
    source = ReplaySource(
        path,
        settings.password,
        settings.poll_interval,
        settings.speedup if speedup is None else speedup,
    )
    artifacts = RunArtifacts(out_dir)
    artifacts.fresh()
    board = BoardState.for_beds([bed])
    counts = {"frames": 0, "events": 0, "alarms": 0}
    with artifacts.frame_archive_path(bed).open("w", encoding="utf-8") as frames:
        pipeline = BedPipeline(bed, settings, frame_archive=frames)
        with EventArchive(artifacts.event_archive_path) as events:
            for line, received_at in source.frames():
                counts["frames"] += 1
                for event in pipeline.feed_line(line, received_at):
                    counts["events"] += 1
                    if isinstance(event, Verdict):
                        counts["alarms"] += 1
                    board.apply_event(bed, event, now=received_at)
                    events.append(bed, event, wall_time=received_at)
    if screen is not None:
        screen.write(render(board, phase=0))
        screen.write(
            f"replayed {counts['frames']} frames, "
            f"{counts['events']} events -> {artifacts.out_dir}\n"
        )
    counts["board"] = board
    return counts


def monitor_run(
    settings: Settings,
    out_dir: str | Path = "archives",
    duration: float | None = None,
    screen=None,
) -> dict:
    """Threaded multi-bed monitor: one producer per source, one consumer.

    Runs until every source ends, ``duration`` elapses, or Ctrl-C. A source
    failure of any kind, not only a ``SourceError``, degrades its bed
    (DataWarning badge, archive row, screen line) and the rest keep going.
    """
    if not settings.beds:
        raise SourceError("monitor needs at least one bed.<id>.source entry")
    screen = screen or sys.stdout
    artifacts = RunArtifacts(out_dir)
    stop = threading.Event()
    queue: Queue = Queue(maxsize=1024)
    beds = [b.bed for b in settings.beds]
    board = BoardState.for_beds(beds)

    def pump(bed_cfg: BedSource) -> None:
        try:
            source = build_source(bed_cfg, settings, stop)
            for line, received_at in source.frames():
                # bounded put: never block past shutdown
                while not stop.is_set():
                    try:
                        queue.put((bed_cfg.bed, line, received_at), timeout=0.1)
                        break
                    except Full:
                        continue
                if stop.is_set():
                    return
        except SourceError as exc:
            if not stop.is_set():
                queue.put((bed_cfg.bed, None, str(exc)))
        except Exception as exc:
            # Any other failure degrades only this bed too; it is not one the
            # source anticipated, so its traceback goes to stderr.
            traceback.print_exc(file=sys.stderr)
            if not stop.is_set():
                queue.put((bed_cfg.bed, None, f"{type(exc).__name__}: {exc}"))

    threads = [
        threading.Thread(target=pump, args=(b,), daemon=True, name=f"src-{b.bed}")
        for b in settings.beds
    ]
    frame_handles = {
        bed: artifacts.frame_archive_path(bed).open("a", encoding="utf-8")
        for bed in beds
    }
    pipelines = {
        bed: BedPipeline(bed, settings, frame_archive=frame_handles[bed])
        for bed in beds
    }
    counts = {"frames": 0, "events": 0}
    phase = 0
    try:
        with EventArchive(artifacts.event_archive_path) as events:
            for thread in threads:
                thread.start()
            deadline = None if duration is None else time.monotonic() + duration
            last_render = time.monotonic()
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if all(not t.is_alive() for t in threads) and queue.empty():
                    break
                try:
                    bed, line, meta = queue.get(timeout=0.05)
                except Empty:
                    bed = None
                if bed is not None:
                    if line is None:
                        # source died: flag the bed, keep the rest running
                        warning = DataWarning(
                            active=True, at_timestep=pipelines[bed].frame_index
                        )
                        board.apply_event(bed, warning)
                        events.append(bed, warning)
                        screen.write(f"source for {bed} failed: {meta}\n")
                    else:
                        counts["frames"] += 1
                        for event in pipelines[bed].feed_line(line, meta):
                            counts["events"] += 1
                            board.apply_event(bed, event, now=meta)
                            events.append(bed, event, wall_time=meta)
                now = time.monotonic()
                if now - last_render >= settings.refresh:
                    screen.write(render(board, phase=phase))
                    phase += 1
                    last_render = now
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=2.0)
        for handle in frame_handles.values():
            handle.close()
    screen.write(render(board, phase=phase))
    screen.write(f"monitored {counts['frames']} frames, {counts['events']} events\n")
    counts["board"] = board
    return counts
