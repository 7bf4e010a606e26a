"""Per-bed processing chain and the run drivers behind the CLI.

Chain per frame: screen -> archive -> streak tracking -> column mask ->
running standardization -> detector. The screen matches first and
classifies on reject: one compiled match (``frame_matcher``) accepts a clean
frame and yields its values, and only a frame it rejects is parsed and
validated field by field, which names its flags. The frame's position in the
stream is its timestep; flagged frames keep their slot (the archive carries
them, the detector never sees them), so a stretch of bad data shows up to
the detector as a gap, not as shifted time.

The detector only scores once it has a model of normality: the first
``warmup`` valid frames only settle the standardizer, the next
``train_steps`` build the dictionary silently, and everything after is
scored live.

Each half of the chain has one implementation. ``BedPipeline.screen`` is the
front half, up to the standardized vector; the detector half, training then
scoring, is ``KoadEngine.feed`` for one arrival and the engine's block walk
for arrivals known in advance (``feed_run``), which scores blocks of
arrivals from one kernel call per block, patched for each dictionary change
inside it, and projects a block's arrivals in one stacked call until the
dictionary changes, with verdicts bitwise equal to ``feed``'s. ``replay``
and ``monitor`` run both halves in one consumer, the ``Ward``, which owns
what a run writes: a paced replay and ``monitor`` one frame at a time
through ``feed_line``, and a replay at speedup = inf through
``feed_recording``, whose frames the engine's recording walk
(``KoadEngine.feed_recording``) pulls through the screen and hands back in
order, each with its arrival and the screen's warning, and each given the
events ``feed_line`` would. The screen hands the detector its z-scores as
the standardizer's list of floats, which the recording walk writes into
its block row and ``feed`` converts once. The ``Ward`` delivers a frame's
events to the board and the event archive, on both paths, and decides
each event's flush once: a plain Green verdict takes one short delivery
with no flush test (``EventArchive.deliver_green``), and for any other
event one ``needs_flush`` test flushes the bed's frame archive before the
event's row, then the row. On both paths a detector that raises
``EngineError`` restarts in place (``KoadEngine.restart``), so a bed keeps
one engine for its whole run. ``tune`` runs the front half once
(``standardized_stream``, which returns the vectors as one array) and the
walk once per grid row (``tuning.run_detector``, through ``feed_run``).
"""

from __future__ import annotations

import math
import sys
import threading
import time
import traceback
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, suppress
from pathlib import Path
from queue import Empty, Full, Queue

import numpy as np

from .board import BoardState, EventArchive, needs_flush, render
from .config import BedSource, ConfigError, Settings
from .engine import EngineError, KoadEngine, MeasurementVector, Verdict, VerdictKind
from .sources import ReplaySource, SocketSource, SourceError, TailSource, socket_address
from .validity import (
    DataWarning,
    FlagStreak,
    archive_header,
    archive_row,
    frame_matcher,
    parse_frame,
    track,
    validate,
)

# Read on every event: a global lookup, where VerdictKind.GREEN is an Enum
# class attribute lookup.
_GREEN = VerdictKind.GREEN
_tuple_new = tuple.__new__  # builds a MeasurementVector; see MeasurementVector


class BedPipeline:
    """Single-writer chain turning raw lines into verdicts for one bed.

    The frame archive, when given, gets one row per record, and is flushed
    after a flagged frame's row. The flush behind an event is its caller's,
    which archives the events: the ``Ward`` flushes the frame archive before
    the row of each event that ``needs_flush``, so the frames behind an
    alarm or a data warning survive a killed process.
    """

    def __init__(self, bed: str, settings: Settings, frame_archive=None) -> None:
        self.bed = bed
        self.settings = settings
        self.schema = settings.schema()
        self.streak = FlagStreak(warn_threshold=settings.warn_threshold)
        self.standardizer = settings.standardizer()
        self.engine = KoadEngine(self.schema.dim, settings.threshold_config())
        self.frame_index = 0
        self._match = frame_matcher(settings.password, self.schema)
        self._fields_at = len(settings.password) + 1  # a clean record's fields start here
        self._archive = frame_archive
        # a restart's data warning is up and waits for the next verdict
        self._restart_warning = False
        if frame_archive is not None and frame_archive.tell() == 0:
            frame_archive.write(archive_header(self.schema) + "\n")

    def screen(
        self, line: str, received_at: float
    ) -> tuple[DataWarning | None, MeasurementVector | None]:
        """Front half of the chain for one raw record.

        Match first, classify on reject: a clean frame takes one compiled
        match, and its archive row is the record itself behind an empty flags
        column (byte-equal to ``archive_row``'s). Any other frame goes
        through ``parse_frame`` and ``validate``, which name its flags, and
        its row is flushed.

        Returns the streak's warning transition, if this frame caused one,
        and the standardized vector for the detector, its values the
        standardizer's list of floats, or None for a flagged or warm-up
        frame.
        """
        timestep = self.frame_index
        self.frame_index += 1
        record = line.rstrip("\r\n")
        values = self._match(record)
        if values is None:
            values = self._classify(line, timestep, received_at)
        elif self._archive is not None:
            self._archive.write(
                f"{self.bed},{timestep},{received_at:.3f},,{record[self._fields_at:]}\n"
            )
        warning = track(self.streak, values is not None, timestep)
        if values is None:
            return warning, None
        if self.schema.use is not None:
            values = [values[i] for i in self.schema.use]
        z = self.standardizer.push(values)
        if z is None:  # a warm-up frame
            return warning, None
        return warning, _tuple_new(MeasurementVector, (z, timestep))

    def _classify(self, line: str, timestep: int, received_at: float) -> list[float] | None:
        """The field-by-field screen for a frame the matcher rejected: archive
        and flush its row, and return its values if it passes after all."""
        frame = parse_frame(line)
        result = validate(frame, self.settings.password, self.schema)
        if self._archive is not None:
            self._archive.write(
                archive_row(self.bed, timestep, received_at, result, frame, self.schema)
                + "\n"
            )
            if not result.ok:
                self._archive.flush()
        return None if result.vector is None else result.vector.tolist()

    def feed_line(self, line: str, received_at: float) -> list[Verdict | DataWarning]:
        """Process one raw record; returns the events it produced (see
        ``_events``). A detector that raises ``EngineError`` restarts."""
        warning, x = self.screen(line, received_at)
        outcome = None
        if x is not None:
            try:
                outcome = self.engine.feed(x, self.settings.train_steps)
            except EngineError as exc:
                self.engine.restart()
                outcome = exc
        return self._events(warning, x, outcome)

    def feed_recording(
        self, frames: Iterable[tuple[str, float]]
    ) -> Iterator[tuple[list[Verdict | DataWarning], float]]:
        """``feed_line`` over a recording known in advance: yields each
        frame's events, equal to ``feed_line``'s, with the frame's own
        ``received_at``, in frame order.

        Each frame is screened as the engine's recording walk
        (``KoadEngine.feed_recording``) takes it; the walk moves one arrival
        forward per frame taken and keeps up to two blocks of arrivals
        behind the screen. A frame's events are yielded once the walk hands
        it back, so its archive row is written before them, with the rows
        of the later frames the walk has not reached in between. An arrival
        on which the detector raises ``EngineError`` restarts it, as in
        ``feed_line``. Between two frames it yields, nothing else may feed
        this pipeline: the engine holds the walk's block. A ``SourceError``
        from ``frames`` ends the recording there: it is raised once every
        frame taken before it has had its events.
        """
        failed: list[SourceError] = []

        def screened():
            try:
                for line, received_at in frames:
                    warning, x = self.screen(line, received_at)
                    yield x, warning, received_at
            except SourceError as exc:
                failed.append(exc)

        walk = self.engine.feed_recording(screened(), self.settings.train_steps)
        for (x, warning, received_at), outcome in walk:
            yield self._events(warning, x, outcome), received_at
        if failed:
            raise failed[0]

    def _events(
        self,
        warning: DataWarning | None,
        x: MeasurementVector | None,
        outcome: list[Verdict] | EngineError | None,
    ) -> list[Verdict | DataWarning]:
        """One frame's events, the one assembly behind ``feed_line`` and
        ``feed_recording``: the streak's warning transition, if any, then
        the detector's outcome for the frame's arrival ``x`` (none for a
        frame without one). That is its verdicts, or the ``EngineError``
        after which the detector restarted, reported by a data warning that
        the restarted detector's first verdict clears, unless a streak's
        clear comes first (the badge is one flag)."""
        if warning is None and type(outcome) is list and not self._restart_warning:
            return outcome  # the common frame: its verdicts alone
        events = []
        if warning is not None:
            events.append(warning)
            if not warning.active:
                self._restart_warning = False
        if type(outcome) is list:
            if outcome and self._restart_warning:
                self._restart_warning = False
                events.append(DataWarning(active=False, at_timestep=x.timestep))
            events += outcome
        elif outcome is not None:
            self._restart_warning = True
            reason = f"detector for {self.bed} restarted: {outcome}"
            events.append(DataWarning(True, x.timestep, reason))
        return events


def standardized_stream(lines: list[str], settings: Settings) -> tuple[list[int], np.ndarray]:
    """Run only the front half of a fresh ``BedPipeline``; returns the
    original stream timesteps of the model-space vectors and the vectors as
    one (n, dim) array (for the tuner). A line yields at most one vector,
    so an array with a row per line has room for every one. The pipeline
    archives nothing, so its bed id names nothing the result depends on."""
    pipe = BedPipeline("bed1", settings)
    timesteps: list[int] = []
    vectors = np.empty((len(lines), pipe.schema.dim))
    for line in lines:
        _, x = pipe.screen(line, 0.0)
        if x is not None:
            vectors[len(timesteps)] = x.values
            timesteps.append(x.timestep)
    return timesteps, vectors[: len(timesteps)]


def build_source(bed: BedSource, settings: Settings, stop: threading.Event):
    if bed.kind == "replay":
        return ReplaySource(
            bed.target, settings.password, settings.poll_interval, settings.speedup,
            stop=stop,
        )
    if bed.kind == "tail":
        return TailSource(bed.target, settings.poll_interval, stop=stop)
    # socket, the one kind left
    return SocketSource(*socket_address(bed.target), stop=stop)


class Ward:
    """One run's outputs: the board, each bed's ``BedPipeline`` with its
    ``frames_<bed>.csv``, ``events.csv`` and the ``counts``; ``fresh`` first
    removes a previous run's ``events.csv`` and its own beds' frame
    archives, and refuses a directory that holds another bed's (its rows are
    in that ``events.csv`` too). A run that is not ``fresh`` appends to its
    beds' frame archives, and refuses one whose first line is not the
    header of its schema, before it writes any file. Each event ``feed`` or
    ``fail`` produces is counted, applied to the board and archived, and a
    data warning that names its cause gets a screen line."""

    def __init__(self, settings: Settings, beds: list[str], out_dir: str | Path,
                 fresh: bool = False, screen=None) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        owned = [self.out_dir / f"frames_{bed}.csv" for bed in beds]
        if fresh:
            for path in sorted(self.out_dir.glob("frames_*.csv")):
                if path not in owned:
                    raise ConfigError(
                        f"{self.out_dir} holds {path.name}, the frame archive of "
                        f"another bed; a fresh run there would delete that bed's "
                        f"events.csv rows"
                    )
            for path in [self.out_dir / "events.csv", *owned]:
                path.unlink(missing_ok=True)
        else:
            header = archive_header(settings.schema())
            for path in owned:
                with suppress(FileNotFoundError), path.open(
                    encoding="utf-8", errors="replace"
                ) as archive:
                    held = archive.readline()
                    if held not in ("", header + "\n"):
                        raise ConfigError(
                            f"{path} holds frame rows under the header {held.rstrip()!r}; "
                            f"this run's schema writes {header!r}"
                        )
        self.screen = screen
        self.board = BoardState.for_beds(beds)
        self.counts = {"frames": 0, "events": 0, "board": self.board}
        self.pipelines: dict[str, BedPipeline] = {}
        self._frame_archives = {}
        with ExitStack() as opened:
            for bed, path in zip(beds, owned):
                frames = opened.enter_context(path.open("a", encoding="utf-8"))
                self._frame_archives[bed] = frames
                self.pipelines[bed] = BedPipeline(bed, settings, frame_archive=frames)
            self.archive = opened.enter_context(EventArchive(self.out_dir / "events.csv"))
            self._opened = opened.pop_all()

    def feed(self, bed: str, line: str, received_at: float) -> None:
        self.counts["frames"] += 1
        self._deliver(bed, self.pipelines[bed].feed_line(line, received_at), received_at)

    def replay(self, bed: str, frames: Iterable[tuple[str, float]]) -> None:
        """``feed`` for every frame of a recording known in advance, through
        its bed's ``BedPipeline.feed_recording``."""
        for events, received_at in self.pipelines[bed].feed_recording(frames):
            self.counts["frames"] += 1
            self._deliver(bed, events, received_at)

    def fail(self, bed: str, error: str) -> None:
        reason = f"source for {bed} failed: {error}"
        self._deliver(bed, [DataWarning(True, self.pipelines[bed].frame_index, reason)], None)

    def _deliver(self, bed: str, produced: list[Verdict | DataWarning],
                 wall_time: float | None) -> None:
        """Count, show and archive one frame's events, stamped ``wall_time``
        (now, if None: a source failure's warning, the one event without a
        frame). A plain Green verdict, one that resolves no Orange, takes
        the short delivery, ``EventArchive.deliver_green``, with no flush
        test. For any other event one ``needs_flush`` test serves both
        archives: the bed's frame archive is flushed before the event's
        row, so every alarm or data warning on disk has its frame on disk,
        and the row is flushed as written."""
        self.counts["events"] += len(produced)
        for event in produced:
            if (
                type(event) is Verdict
                and event.resolves_timestep is None
                and event.kind is _GREEN
            ):
                self.archive.deliver_green(self.board.tiles[bed], event, wall_time)
                continue
            self.board.apply_event(bed, event, wall_time)
            flush = needs_flush(event)
            if flush:
                self._frame_archives[bed].flush()
            self.archive.append(bed, event, wall_time, flush)
            if self.screen is not None and isinstance(event, DataWarning) and event.reason:
                self.screen.write(event.reason + "\n")

    def close(self) -> None:
        self._opened.close()

    def __enter__(self) -> "Ward":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_run(
    settings: Settings,
    path: str | Path,
    bed: str = "bed1",
    out_dir: str | Path = "archives",
    screen=None,
) -> dict:
    """Synchronous single-bed replay into a fresh ``Ward``; returns its
    counts. At ``speedup = inf`` the whole recording is known before its
    first frame, so it goes through ``Ward.replay``; a paced replay feeds
    one frame at a time, as a live bed does."""
    source = ReplaySource(path, settings.password, settings.poll_interval, settings.speedup)
    with Ward(settings, [bed], out_dir, fresh=True, screen=screen) as ward:
        if math.isinf(settings.speedup):
            ward.replay(bed, source.frames())
        else:
            for line, received_at in source.frames():
                ward.feed(bed, line, received_at)
    if screen is not None:
        screen.write(render(ward.board, phase=0))
        screen.write(
            f"replayed {ward.counts['frames']} frames, "
            f"{ward.counts['events']} events -> {ward.out_dir}\n"
        )
    return ward.counts


def monitor_run(
    settings: Settings,
    out_dir: str | Path = "archives",
    duration: float | None = None,
    screen=None,
) -> dict:
    """Threaded multi-bed monitor: one producer per source, one consumer,
    the ``Ward``.

    Runs until every source ends, ``duration`` elapses, or Ctrl-C. A source
    failure of any kind, not only a ``SourceError``, degrades its bed
    (DataWarning badge, archive row, screen line) and the rest keep going.
    A bed whose detector raises restarts it inside ``feed_line``,
    as in ``replay_run``. A producer's frames and failure go through one
    bounded hand-off that stops waiting once the run stops; what was handed
    over by then, the queue's backlog first, still reaches the ``Ward``
    after the producers are joined.
    """
    if not settings.beds:
        raise ConfigError("monitor needs at least one bed.<id>.source entry")
    screen = screen or sys.stdout
    stop = threading.Event()
    queue: Queue = Queue(maxsize=1024)
    late: list[tuple] = []  # offered once the run had stopped

    def offer(item: tuple) -> bool:
        """Hand ``item`` to the consumer; once the run has stopped, leave it
        in ``late`` and return False."""
        while not stop.is_set():
            with suppress(Full):
                queue.put(item, timeout=0.1)
                return True
        late.append(item)
        return False

    def pump(bed_cfg: BedSource) -> None:
        try:
            source = build_source(bed_cfg, settings, stop)
            for line, received_at in source.frames():
                if not offer((bed_cfg.bed, line, received_at)):
                    return
        except SourceError as exc:
            offer((bed_cfg.bed, None, str(exc)))
        except Exception as exc:
            # Any other failure degrades only this bed too; it is not one the
            # source anticipated, so its traceback goes to stderr.
            traceback.print_exc(file=sys.stderr)
            offer((bed_cfg.bed, None, f"{type(exc).__name__}: {exc}"))

    def take(item: tuple) -> None:
        bed, line, meta = item
        if line is None:  # the source died: flag the bed, keep the rest
            ward.fail(bed, meta)
        else:
            ward.feed(bed, line, meta)

    ward = Ward(settings, [b.bed for b in settings.beds], out_dir, screen=screen)
    threads = [
        threading.Thread(target=pump, args=(b,), daemon=True, name=f"src-{b.bed}")
        for b in settings.beds
    ]
    phase = 0
    with ward:
        try:
            for thread in threads:
                thread.start()
            deadline = None if duration is None else time.monotonic() + duration
            last_render = time.monotonic()
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if all(not t.is_alive() for t in threads) and queue.empty():
                    break
                with suppress(Empty):
                    take(queue.get(timeout=0.05))
                now = time.monotonic()
                if now - last_render >= settings.refresh:
                    screen.write(render(ward.board, phase=phase))
                    phase += 1
                    last_render = now
        except KeyboardInterrupt:
            pass
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=2.0)
        # Frames and failures the producers handed over but the loop never
        # took: each was taken from its source, so each is scored and archived.
        with suppress(Empty):
            while True:
                take(queue.get_nowait())
        for item in late:
            take(item)
    screen.write(render(ward.board, phase=phase))
    screen.write(
        f"monitored {ward.counts['frames']} frames, {ward.counts['events']} events\n"
    )
    return ward.counts
