"""Central display model: per-bed tiles, event summary, terminal rendering.

A tile's clinical state follows the verdict stream: Orange while any Orange
window is open, Green otherwise, and Red after any Red1/Red2. A data warning
that names its cause (a restarted detector or a failed source) closes every
open window, since none of them will resolve. Red latches for the rest of
the run: an emergency that silently clears is the one failure mode this
display must never have. Data warnings are a separate badge that
co-displays with the clinical state and drives the shared console warning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .engine import ALARM_KINDS, Verdict, VerdictKind
from .validity import DataWarning

MAX_BEDS = 5  # the display shows up to five patient statuses

# Module-level names for the kinds every event is tested against: reading
# one is a global lookup, where VerdictKind.GREEN is an Enum class attribute
# lookup.
_GREEN = VerdictKind.GREEN
_ORANGE = VerdictKind.ORANGE


class TileState(Enum):
    UNOCCUPIED = "unoccupied"
    GREEN = "green"
    ORANGE = "orange"
    RED = "red"


class BoardError(Exception):
    pass


@dataclass
class BedTile:
    bed: str
    last_delta: float | None = None
    last_update: float | None = None
    open_orange_count: int = 0
    data_warning: bool = False
    red_latched: bool = False

    @property
    def state(self) -> TileState:
        """What the tile shows; a latched Red wins over everything else."""
        if self.red_latched:
            return TileState.RED
        if self.last_update is None:
            return TileState.UNOCCUPIED
        return TileState.ORANGE if self.open_orange_count > 0 else TileState.GREEN


@dataclass
class BoardState:
    tiles: dict[str, BedTile]
    detected: int = 0  # emergency events seen, each an ALARM_KINDS verdict

    @classmethod
    def for_beds(cls, beds: list[str]) -> "BoardState":
        if not beds:
            raise BoardError("at least one bed required")
        if len(beds) > MAX_BEDS:
            raise BoardError(f"at most {MAX_BEDS} beds supported, got {len(beds)}")
        if len(set(beds)) != len(beds):
            raise BoardError("bed identifiers must be unique")
        return cls(tiles={bed: BedTile(bed) for bed in beds})

    @property
    def console_warning(self) -> bool:
        return any(tile.data_warning for tile in self.tiles.values())

    def _tile(self, bed: str) -> BedTile:
        try:
            return self.tiles[bed]
        except KeyError:
            raise BoardError(f"unknown bed {bed!r}") from None

    def apply_event(
        self, bed: str, event: Verdict | DataWarning, now: float | None = None
    ) -> None:
        tile = self._tile(bed)
        if type(event) is not Verdict:
            tile.data_warning = event.active
            if event.active and event.reason:
                # A restart or a source failure abandons the open windows.
                tile.open_orange_count = 0
            return
        kind, _, tile.last_delta, resolves = event
        tile.last_update = time.time() if now is None else now
        if kind is _GREEN and resolves is None:
            # A plain Green opens, closes and latches nothing. The Ward hands
            # it to EventArchive.deliver_green instead, which repeats these
            # two assignments; this branch is the definition tests hold it to.
            return
        if kind is _ORANGE:
            tile.open_orange_count += 1
        elif resolves is not None:
            # a Green or Red2 resolution closes the Orange window it judged
            tile.open_orange_count = max(0, tile.open_orange_count - 1)
        if kind in ALARM_KINDS:
            self.detected += 1
            tile.red_latched = True


# -- rendering ---------------------------------------------------------------

_STATE_WORDS = {
    TileState.UNOCCUPIED: "unoccupied",
    TileState.GREEN: "GREEN",
    TileState.ORANGE: "ORANGE",
    TileState.RED: "RED",
}
# alternating glyphs approximate the flashing of urgent tiles
_FLASH = {TileState.RED: ("*** RED ***", "    RED    "),
          TileState.ORANGE: ("  ORANGE > ", "  ORANGE   ")}


def render(board: BoardState, phase: int = 0, now: float | None = None) -> str:
    """Deterministic fixed-width screen for one (state, phase, clock) triple."""
    now = time.time() if now is None else now
    lines = []
    lines.append(f"{'bed':<8} {'state':<11} {'delta':>8} {'age':>6}  flags")
    for bed, tile in board.tiles.items():
        if tile.state in _FLASH:
            word = _FLASH[tile.state][phase % 2]
        else:
            word = _STATE_WORDS[tile.state]
        delta = "-" if tile.last_delta is None else f"{tile.last_delta:.4f}"
        if tile.last_update is None:
            age = "-"
        else:
            age = f"{max(0.0, now - tile.last_update):.0f}s"
        badge = "DATA-WARNING" if tile.data_warning else ""
        lines.append(f"{bed:<8} {word:<11} {delta:>8} {age:>6}  {badge}")
    lines.append(f"emergencies detected: {board.detected}")
    if board.console_warning:
        lines.append("!! DATA WARNING: one or more beds sending unreliable data !!")
    return "\n".join(lines) + "\n"


# -- event archive -----------------------------------------------------------

EVENT_HEADER = "timestamp,bed,kind,timestep,delta,resolves_timestep"


def event_row(
    bed: str, event: Verdict | DataWarning, wall_time: float | None = None
) -> str:
    if wall_time is None:
        wall_time = time.time()
    if type(event) is not Verdict:
        kind = "data-warning-raised" if event.active else "data-warning-cleared"
        return f"{wall_time:.3f},{bed},{kind},{event.at_timestep},,"
    kind, t, delta, resolves = event
    # _value_ is the member's plain attribute; .value is a Python-level
    # property, and a dict keyed by kind would call Enum.__hash__.
    return _verdict_line(wall_time, bed, kind._value_, t, delta, resolves)[:-1]


def _verdict_line(
    wall_time: float, bed: str, kind: str, t: int, delta: float, resolves: int | None
) -> str:
    """A verdict's line in the event archive, its end included: the one
    format behind ``event_row`` and ``EventArchive.deliver_green``."""
    resolved = "" if resolves is None else resolves
    return f"{wall_time:.3f},{bed},{kind},{t},{delta:.6f},{resolved}\n"


def needs_flush(event: Verdict | DataWarning) -> bool:
    """Whether an archive flushes once this event's rows are written, so they
    survive a killed process: every event other than a Green verdict."""
    return type(event) is not Verdict or event.kind is not _GREEN


class EventArchive:
    """Append-only CSV log of every verdict and data-warning transition.

    The caller flushes every event ``needs_flush`` names as it is written,
    so an alarm or data warning survives a killed process; it decides once
    per event, for this archive and any other it keeps in step with. A
    plain Green verdict, the commonest event, needs no such decision: its
    caller hands it to ``deliver_green``, which also shows it on its tile.
    """

    def __init__(self, path: str | Path) -> None:
        self._handle = Path(path).open("a", encoding="utf-8")
        if self._handle.tell() == 0:
            self._handle.write(EVENT_HEADER + "\n")

    def append(
        self, bed: str, event: Verdict | DataWarning, wall_time: float | None, flush: bool
    ) -> None:
        """Write the event's row, stamped ``wall_time`` (now, if None), and
        with ``flush`` flush it to the file at once."""
        self._handle.write(event_row(bed, event, wall_time) + "\n")
        if flush:
            self._handle.flush()

    def deliver_green(self, tile: BedTile, verdict: Verdict, wall_time: float) -> None:
        """Deliver a plain Green verdict, one that resolves no Orange, to its
        bed's ``tile`` and to this archive, stamped ``wall_time``: in one
        call, what ``BoardState.apply_event`` and ``append`` do with it. The
        tile takes its delta and age and nothing else, since a plain Green
        opens, closes and latches nothing, and its row is written without a
        flush, since ``needs_flush`` names no Green verdict."""
        _, t, delta, _ = verdict
        tile.last_delta, tile.last_update = delta, wall_time
        self._handle.write(_verdict_line(wall_time, tile.bed, _GREEN._value_, t, delta, None))

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "EventArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
