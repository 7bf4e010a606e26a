"""Board semantics: the Red latch, badges, summary counts, deterministic render."""

from __future__ import annotations

import csv

import pytest

from vitalwatch.board import (
    EVENT_HEADER,
    BedTile,
    BoardError,
    BoardState,
    EventArchive,
    TileState,
    event_row,
    needs_flush,
    render,
)
from vitalwatch.engine import Verdict, VerdictKind
from vitalwatch.validity import DataWarning, WarningCause

FLAGS, RESTART, SOURCE = WarningCause


def green(t, resolves=None):
    return Verdict(VerdictKind.GREEN, t, 0.01, resolves)


def orange(t):
    return Verdict(VerdictKind.ORANGE, t, 0.1)


def red1(t):
    return Verdict(VerdictKind.RED1, t, 0.9)


def red2(t, raised):
    return Verdict(VerdictKind.RED2, t, 0.12, raised)


def board():
    return BoardState.for_beds(["bed1", "bed2"])


def test_green_then_red1_goes_red_and_counts():
    b = board()
    b.apply_event("bed1", green(1), now=0.0)
    assert b.tiles["bed1"].state is TileState.GREEN
    b.apply_event("bed1", red1(2), now=1.0)
    assert b.tiles["bed1"].state is TileState.RED
    assert b.detected == 1


def test_red_stays_latched_through_later_greens():
    b = board()
    b.apply_event("bed1", red1(1), now=0.0)
    b.apply_event("bed1", green(2), now=1.0)
    b.apply_event("bed1", green(3), now=2.0)
    assert b.tiles["bed1"].state is TileState.RED
    assert b.detected == 1


def test_a_latched_red_keeps_counting_orange_windows():
    b = board()
    b.apply_event("bed1", orange(1), now=0.0)
    b.apply_event("bed1", red1(2), now=1.0)
    tile = b.tiles["bed1"]
    assert tile.state is TileState.RED
    # the Orange raised at t=1 has not resolved yet
    assert tile.open_orange_count == 1
    b.apply_event("bed1", green(21, resolves=1), now=2.0)
    assert tile.open_orange_count == 0
    assert tile.state is TileState.RED


def test_orange_opens_and_green_resolution_closes():
    b = board()
    b.apply_event("bed1", orange(5), now=0.0)
    assert b.tiles["bed1"].state is TileState.ORANGE
    assert b.tiles["bed1"].open_orange_count == 1
    b.apply_event("bed1", green(6), now=1.0)  # plain Green does not close it
    assert b.tiles["bed1"].state is TileState.ORANGE
    b.apply_event("bed1", green(25, resolves=5), now=2.0)
    assert b.tiles["bed1"].open_orange_count == 0
    assert b.tiles["bed1"].state is TileState.GREEN


def test_red2_closes_its_window_and_latches():
    b = board()
    b.apply_event("bed1", orange(5), now=0.0)
    b.apply_event("bed1", red2(25, raised=5), now=1.0)
    tile = b.tiles["bed1"]
    assert tile.state is TileState.RED
    assert tile.open_orange_count == 0
    assert b.detected == 1


def test_data_warning_badge_and_console_or():
    b = board()
    b.apply_event("bed2", DataWarning(active=True, at_timestep=9, cause=FLAGS), now=0.0)
    assert b.tiles["bed2"].data_warning
    assert b.console_warning
    # the badge co-displays without touching the clinical state
    assert b.tiles["bed2"].state is TileState.UNOCCUPIED
    b.apply_event("bed2", DataWarning(active=False, at_timestep=12, cause=FLAGS), now=1.0)
    assert not b.console_warning


def test_a_restart_leaves_no_orange_window_open_forever():
    # A restarted detector or a failed source abandons its open Orange
    # windows: no resolution will come for them. (A streak's warning, whose
    # cause is flags, leaves them open: see EVENT_SHAPES.)
    b = board()
    for t in (1, 2, 3):
        b.apply_event("bed1", orange(t), now=0.0)
    b.apply_event("bed1", red1(4), now=1.0)
    restart = DataWarning(True, 5, RESTART, "detector for bed1 restarted: boom")
    b.apply_event("bed1", restart, now=2.0)
    tile = b.tiles["bed1"]
    assert tile.open_orange_count == 0
    assert tile.state is TileState.RED
    assert tile.data_warning
    # the fresh detector's windows count from zero
    b.apply_event("bed1", orange(30), now=3.0)
    assert tile.open_orange_count == 1


def test_data_warning_badge_co_displays_with_red():
    b = board()
    b.apply_event("bed1", red1(3), now=0.0)
    b.apply_event("bed1", DataWarning(active=True, at_timestep=4, cause=FLAGS), now=1.0)
    tile = b.tiles["bed1"]
    assert tile.state is TileState.RED
    assert tile.data_warning
    screen = render(b, phase=0, now=1.0)
    assert "*** RED ***" in screen and "DATA-WARNING" in screen


def test_summary_counts_every_red_event():
    b = board()
    b.apply_event("bed1", red1(1), now=0.0)
    b.apply_event("bed2", orange(2), now=0.0)
    b.apply_event("bed2", red2(22, raised=2), now=1.0)
    assert b.detected == 2


def test_unknown_bed_is_an_error():
    with pytest.raises(BoardError, match="unknown bed"):
        board().apply_event("bed9", green(1))


def test_bed_limit_and_uniqueness():
    with pytest.raises(BoardError):
        BoardState.for_beds([f"bed{i}" for i in range(6)])
    with pytest.raises(BoardError):
        BoardState.for_beds(["bed1", "bed1"])
    with pytest.raises(BoardError):
        BoardState.for_beds([])


def test_event_order_determinism():
    events = [
        ("bed1", orange(1)),
        ("bed2", red1(2)),
        ("bed1", green(21, resolves=1)),
        ("bed2", DataWarning(active=True, at_timestep=3, cause=FLAGS)),
    ]

    def run():
        b = board()
        for bed, ev in events:
            b.apply_event(bed, ev, now=5.0)
        return render(b, phase=0, now=10.0)

    assert run() == run()


def test_render_empty_board_lists_unoccupied_tiles():
    b = BoardState.for_beds(["bed1", "bed2", "bed3", "bed4", "bed5"])
    screen = render(b, phase=0, now=0.0)
    assert screen.count("unoccupied") == 5
    assert screen.splitlines()[-1] == "emergencies detected: 0"
    assert "DATA WARNING" not in screen


def test_render_flashes_red_across_phases():
    b = board()
    b.apply_event("bed1", red1(1), now=0.0)
    even = render(b, phase=0, now=1.0)
    odd = render(b, phase=1, now=1.0)
    assert even != odd
    assert "*** RED ***" in even
    assert render(b, phase=2, now=1.0) == even  # period two


def test_render_banner_present_exactly_once():
    b = board()
    b.apply_event("bed1", DataWarning(active=True, at_timestep=1, cause=FLAGS), now=0.0)
    b.apply_event("bed2", DataWarning(active=True, at_timestep=1, cause=FLAGS), now=0.0)
    screen = render(b, phase=0, now=1.0)
    assert screen.count("!! DATA WARNING") == 1


# One row per event shape: the event, its archive row at WALL, whether it
# needs a flush, and the tile and board after it lands on a tile primed
# with an open Orange window (and a lit badge, for a clearing warning):
# (open_orange_count, red_latched, last_delta, last_update, data_warning,
# detected). WALL's exact binary .0625 rounds to even in the stamp.
WALL = 1700000000.0625
EVENT_SHAPES = {
    "plain-green": (
        Verdict(VerdictKind.GREEN, 7, 0.0123456789),
        "1700000000.062,bed1,green,7,0.012346,,,", False,
        (1, False, 0.0123456789, WALL, False, 0),
    ),
    "green-resolution": (
        Verdict(VerdictKind.GREEN, 27, 0.1, 7),
        "1700000000.062,bed1,green,27,0.100000,7,,", False,
        (0, False, 0.1, WALL, False, 0),
    ),
    "orange": (
        Verdict(VerdictKind.ORANGE, 8, 0.0875),
        "1700000000.062,bed1,orange,8,0.087500,,,", True,
        (2, False, 0.0875, WALL, False, 0),
    ),
    "red1": (
        Verdict(VerdictKind.RED1, 9, 0.5000005),
        "1700000000.062,bed1,red1,9,0.500000,,,", True,
        (1, True, 0.5000005, WALL, False, 1),
    ),
    "red2": (
        Verdict(VerdictKind.RED2, 28, 0.12, 8),
        "1700000000.062,bed1,red2,28,0.120000,8,,", True,
        (0, True, 0.12, WALL, False, 1),
    ),
    "warning-raised": (
        DataWarning(True, 30, FLAGS),
        "1700000000.062,bed1,data-warning-raised,30,,,flags,", True,
        (1, False, 0.5, 5.0, True, 0),
    ),
    "warning-raised-reason": (
        DataWarning(True, 31, RESTART, "detector for bed1 restarted: boom"),
        "1700000000.062,bed1,data-warning-raised,31,,,restart,detector for bed1 restarted: boom", True,
        (0, False, 0.5, 5.0, True, 0),
    ),
    "warning-cleared": (
        DataWarning(False, 32, FLAGS),
        "1700000000.062,bed1,data-warning-cleared,32,,,flags,", True,
        (1, False, 0.5, 5.0, False, 0),
    ),
    "warning-cleared-reason": (
        DataWarning(False, 33, RESTART, "cleared"),
        "1700000000.062,bed1,data-warning-cleared,33,,,restart,cleared", True,
        (1, False, 0.5, 5.0, False, 0),
    ),
    "warning-raised-source": (
        DataWarning(True, 34, SOURCE, "source for bed1 failed: refused"),
        "1700000000.062,bed1,data-warning-raised,34,,,source,source for bed1 failed: refused",
        True, (0, False, 0.5, 5.0, True, 0),
    ),
}


@pytest.mark.parametrize(
    "event,row,flush,after", EVENT_SHAPES.values(), ids=EVENT_SHAPES.keys()
)
def test_each_event_shape_row_flush_and_tile(event, row, flush, after):
    assert event_row("bed1", event, WALL) == row
    assert needs_flush(event) is flush
    assert flush is not (isinstance(event, Verdict) and event.kind is VerdictKind.GREEN)
    b = BoardState.for_beds(["bed1"])
    clearing = isinstance(event, DataWarning) and not event.active
    tile = b.tiles["bed1"] = BedTile(
        "bed1", last_delta=0.5, last_update=5.0, open_orange_count=1, data_warning=clearing
    )
    b.apply_event("bed1", event, now=WALL)
    got = (
        tile.open_orange_count, tile.red_latched, tile.last_delta,
        tile.last_update, tile.data_warning, b.detected,
    )
    assert got == after


def test_event_rows_and_archive(tmp_path):
    row = event_row("bed1", red2(25, raised=5), wall_time=100.0)
    assert row == "100.000,bed1,red2,25,0.120000,5,,"
    row = event_row("bed1", DataWarning(active=True, at_timestep=7, cause=FLAGS), wall_time=1.5)
    assert row == "1.500,bed1,data-warning-raised,7,,,flags,"

    written = tmp_path / "written.csv"
    with EventArchive(written) as archive:
        archive.append("bed1", green(1), 0.5, needs_flush(green(1)))
        archive.append("bed1", red1(2), 1.0, needs_flush(red1(2)))
    lines = written.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp,bed,kind,timestep,delta,resolves_timestep,cause,detail"
    assert lines[1] == "0.500,bed1,green,1,0.010000,,,"
    assert len(lines) == 3

    path = tmp_path / "events.csv"
    with EventArchive(path) as archive:
        archive.append("bed1", green(1), 0.5, needs_flush(green(1)))
    with EventArchive(path) as archive:  # append mode: no duplicate header
        archive.append("bed1", green(2), 1.5, needs_flush(green(2)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[0] == "timestamp,bed,kind,timestep,delta,resolves_timestep,cause,detail"


def test_a_reason_reads_back_through_csv_as_one_field_on_one_line(tmp_path):
    # A reason may hold what a bare CSV field cannot: a comma, a quote, a
    # line break. Its row folds the break to a space and quotes the field.
    reason = 'source for bed1 failed: read "a,b"\nthen gave up'
    path = tmp_path / "events.csv"
    with EventArchive(path) as archive:
        archive.append("bed1", DataWarning(True, 3, SOURCE, reason), 2.0, True)
        archive.append("bed1", red1(4), 2.5, True)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 3
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [
        EVENT_HEADER.split(","),
        ["2.000", "bed1", "data-warning-raised", "3", "", "", "source",
         'source for bed1 failed: read "a,b" then gave up'],
        ["2.500", "bed1", "red1", "4", "0.900000", "", "", ""],
    ]


def test_alarms_reach_the_file_before_the_archive_closes(tmp_path):
    path = tmp_path / "events.csv"
    archive = EventArchive(path)
    try:
        archive.append("bed1", red1(2), 1.0, needs_flush(red1(2)))
        # a second handle sees what a killed process would have left behind
        assert "1.000,bed1,red1,2," in path.read_text(encoding="utf-8")
        warning = DataWarning(active=True, at_timestep=3, cause=FLAGS)
        archive.append("bed1", warning, 2.0, needs_flush(warning))
        assert "bed1,data-warning-raised,3" in path.read_text(encoding="utf-8")
    finally:
        archive.close()
