"""Source transports: replay sniffing, pacing, tailing, socket delivery."""

from __future__ import annotations

import contextlib
import math
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vitalwatch.sources as sources
from vitalwatch.sources import (
    MAX_RECORD_BYTES,
    ReplaySource,
    SocketSource,
    SourceError,
    SyntheticSource,
    TailSource,
    emit_lines,
    records,
    wire_line,
)
from vitalwatch.synth import ChannelBaseline, SyntheticSpec, capture_text, default_spec, generate

PW = "PW123"


def test_wire_line_format():
    assert wire_line(PW, [72.0, 98.5]) == "PW123,72.000,98.500"


def test_replay_wire_file_yields_each_row_once(tmp_path):
    path = tmp_path / "stream.csv"
    rows = [wire_line(PW, [i, 2 * i]) for i in range(3)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    got = [line for line, _ in ReplaySource(path, PW).frames()]
    assert got == rows


# Bytes a replay reads at a time: its own size, and sizes that cut every
# record and the header.
READ_SIZES = [sources.READ_BYTES, 1, 3]


@pytest.mark.parametrize("read_bytes", READ_SIZES)
def test_replay_capture_file_gets_password_prefixed(tmp_path, monkeypatch, read_bytes):
    monkeypatch.setattr(sources, "READ_BYTES", read_bytes)
    path = tmp_path / "capture.csv"
    path.write_text("hr,spo2\n72.000,98.000\n71.000,97.000\n", encoding="utf-8")
    got = [line for line, _ in ReplaySource(path, PW).frames()]
    assert got == ["PW123,72.000,98.000", "PW123,71.000,97.000"]


@pytest.mark.parametrize(
    "text, captured",
    [
        ("hr,spo2\n", True),  # a header alone: a capture with no rows
        ("hr, spo2\n72,98\n", True),
        ("PW999,72,98\nPW123,71,97\n", False),  # a bad password, not a header
        ("xx\nPW123,71,97\n", False),  # garbage, then a wire record
        (",72,98\nPW123,71,97\n", False),  # an empty field
        ("hr,\n72,98\n", False),
        ("PW123,hr\n72,98\n", False),  # the password is never a name
        ("hr,98\n72,98\n", False),  # a decimal is never a name
    ],
)
@pytest.mark.parametrize("read_bytes", READ_SIZES)
def test_replay_tells_a_capture_by_its_header(tmp_path, monkeypatch, text, captured, read_bytes):
    monkeypatch.setattr(sources, "READ_BYTES", read_bytes)
    path = tmp_path / "stream.csv"
    path.write_text(text, encoding="utf-8")
    got = [line for line, _ in ReplaySource(path, PW).frames()]
    lines = text.splitlines()
    assert got == ([f"{PW},{line}" for line in lines[1:]] if captured else lines)


@pytest.mark.parametrize("rows", [[f"{PW},1,2", f"{PW},3,4"], ["hr,spo2", "1,2", "3,4"]])
def test_replay_reads_past_a_byte_order_mark(tmp_path, rows):
    # A file saved with a UTF-8 BOM reads as the same file without one.
    path = tmp_path / "stream.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8-sig")
    got = [line for line, _ in ReplaySource(path, PW).frames()]
    assert got == [f"{PW},1,2", f"{PW},3,4"]


# Pieces of a byte stream: wire records, CRLF endings and blank lines, bytes
# that other line rules split at (form feed, U+2028) or cannot decode, a
# byte-order mark, a partial record, and records over MAX_RECORD_BYTES in
# ASCII and in two-byte characters.
_PIECES = [
    f"{PW},72,98,118,76\n".encode(),
    f"{PW},73,97,119,77\r\n".encode(),
    b"\n",
    b" \r\n",
    f"{PW},72,9\x0c8,118,76\n".encode(),
    f"{PW},72,\u20289\n".encode(),
    f"{PW},7".encode() + b"\xff2\n",
    "\ufeff".encode(),
    f"\ufeff{PW},1,2\n".encode(),
    f"{PW},74".encode(),
    b"9" * 5000,
    "\u00e9".encode() * 3000,
]


def records_one_by_one(whole: bytes) -> list[str]:
    """The record rule applied to each record of a whole stream on its own."""
    *complete, rest = whole.split(b"\n")
    got = []
    for raw in complete:
        line = raw.decode("utf-8", errors="replace").rstrip("\r").removeprefix("\ufeff")
        if len(raw) > MAX_RECORD_BYTES:
            got.append("")
        elif line.strip():
            got.append(line)
    return got + [""] * (len(rest) > MAX_RECORD_BYTES)


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=10), data=st.data())
def test_every_source_reads_a_stream_by_one_rule(tmp_path_factory, pieces, data):
    whole = b"".join(pieces)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(whole)), max_size=6)))
    chunks = [whole[a:b] for a, b in zip([0, *cuts], [*cuts, len(whole)])]
    assert list(records(chunks)) == list(records([whole])) == records_one_by_one(whole)

    # replay reads a file as one stream, its end ending the last record,
    # whatever size of chunk it reads the file in
    path = tmp_path_factory.getbasetemp() / "one_rule.csv"
    path.write_bytes(f"{PW},1,2\n".encode() + whole)
    whole_file = list(records([path.read_bytes(), b"\n"]))
    assert [line for line, _ in ReplaySource(path, PW).frames()] == whole_file
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "READ_BYTES", data.draw(st.integers(1, 7)))
        assert [line for line, _ in ReplaySource(path, PW).frames()] == whole_file


def test_replay_skips_blank_lines(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(f"{PW},1\n\n{PW},2\n\n", encoding="utf-8")
    got = [line for line, _ in ReplaySource(path, PW).frames()]
    assert got == [f"{PW},1", f"{PW},2"]


def test_replay_missing_file_is_a_source_error(tmp_path):
    with pytest.raises(SourceError):
        list(ReplaySource(tmp_path / "nope.csv", PW).frames())


def test_a_replays_memory_does_not_grow_with_its_file(tmp_path, watch_reads):
    # 200 000 wire records, 7 MB: read whole first, they took a 45 MB peak
    row = wire_line(PW, [72.0, 98.0, 118.0, 76.0]) + "\n"
    path = tmp_path / "long.csv"
    path.write_text(row * 200_000, encoding="utf-8")
    opened = watch_reads(path)
    tracemalloc.start()
    try:
        frames = ReplaySource(path, PW).frames()
        assert next(frames)[0] == row.rstrip()
        # the first frame waits for its batch of lines, not for the file
        assert sum(opened[0].sizes) < 2**20
        assert sum(1 for _ in frames) == 200_000 - 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert opened[0].closed


def test_a_replay_opens_its_file_at_the_first_frame_and_closes_it_when_closed(
    tmp_path, watch_reads
):
    path = tmp_path / "stream.csv"
    path.write_text(f"{PW},1\n{PW},2\n", encoding="utf-8")
    opened = watch_reads(path)
    frames = ReplaySource(path, PW).frames()
    assert opened == []
    assert next(frames)[0] == f"{PW},1"
    assert not opened[0].closed
    frames.close()
    assert opened[0].closed


@pytest.mark.parametrize("speedup", [math.inf, 1e9])
def test_a_read_that_fails_mid_file_is_a_source_error(tmp_path, monkeypatch, watch_reads, speedup):
    # the first read takes two whole records and a part of the third, and
    # the second read fails: the two are handed out, then the error
    monkeypatch.setattr(sources, "READ_BYTES", 20)
    path = tmp_path / "stream.csv"
    path.write_text(f"{PW},1\n{PW},2\n{PW},3\n{PW},4\n", encoding="utf-8")
    opened = watch_reads(path, fail_at=2)
    got = []
    with pytest.raises(SourceError) as failure:
        for line, _ in ReplaySource(path, PW, speedup=speedup).frames():
            got.append(line)
    assert got == [f"{PW},1", f"{PW},2"]
    assert str(failure.value) == f"cannot read {path}: [Errno 5] Input/output error"
    assert opened[0].sizes == [20] and opened[0].closed


def test_replay_pacing_honors_speedup(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text("\n".join(wire_line(PW, [i]) for i in range(20)), encoding="utf-8")
    # 12 s nominal cadence at speedup 600 -> 20 ms between frames
    source = ReplaySource(path, PW, poll_interval=12.0, speedup=600.0)
    start = time.monotonic()
    got = list(source.frames())
    elapsed = time.monotonic() - start
    assert len(got) == 20
    expected = 19 * 0.02
    assert expected * 0.8 <= elapsed <= expected * 1.6


def test_synthetic_source_emits_wire_records():
    spec = SyntheticSpec(
        channels=(ChannelBaseline(75.0, 5.0), ChannelBaseline(97.0, 1.0)),
        steps=4,
        seed=3,
    )
    got = [line for line, _ in SyntheticSource(spec, PW).frames()]
    assert len(got) == 4
    assert all(line.split(",")[0] == PW for line in got)
    assert all(len(line.split(",")) == 3 for line in got)


def test_synthetic_source_lines_are_the_capture_rows_behind_the_password():
    spec = default_spec(steps=500, n_anomalies=5, seed=11, dim=4)
    rows = capture_text(generate(spec)[0]).splitlines()[1:]  # the header dropped
    assert [line for line, _ in SyntheticSource(spec, PW).frames()] == [
        f"{PW},{row}" for row in rows
    ]


def test_tail_source_sees_only_appended_lines(tmp_path):
    path = tmp_path / "live.csv"
    path.write_text(f"{PW},old\n", encoding="utf-8")
    stop = threading.Event()
    source = TailSource(path, poll_interval=0.2, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.2)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(f"{PW},new\n")
    deadline = time.monotonic() + 5.0
    while not got and time.monotonic() < deadline:
        time.sleep(0.02)
    stop.set()
    thread.join(timeout=5.0)
    assert got == [f"{PW},new"]


def tail(path, payload: bytes, count: int) -> list[str]:
    """Lines a TailSource on ``path`` yields once ``payload`` is appended:
    the first ``count``, and anything that follows within 0.1 s."""
    stop = threading.Event()
    source = TailSource(path, poll_interval=0.2, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.2)
    with path.open("ab") as handle:
        handle.write(payload)
    deadline = time.monotonic() + 5.0
    while len(got) < count and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.1)
    stop.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    return got


def test_tail_source_rereads_a_file_truncated_in_place(tmp_path):
    # copytruncate rotation: the file shrinks under the open handle, then grows.
    path = tmp_path / "live.csv"
    path.touch()
    stop = threading.Event()
    source = TailSource(path, poll_interval=0.2, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    def wait_for(count):
        deadline = time.monotonic() + 5.0
        while len(got) < count and time.monotonic() < deadline:
            time.sleep(0.02)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.2)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(f"{PW},72,98,118,76\n{PW},73,97,119,77\n")
    wait_for(2)
    path.write_text(f"{PW},3\n", encoding="utf-8")
    with path.open("a", encoding="utf-8") as handle:
        handle.write(f"{PW},4\n")
    wait_for(4)
    stop.set()
    thread.join(timeout=5.0)
    assert got == [f"{PW},72,98,118,76", f"{PW},73,97,119,77", f"{PW},3", f"{PW},4"]


def test_tail_source_rereads_a_file_rewritten_in_place_past_its_offset(tmp_path, monkeypatch):
    # Truncated and rewritten longer between two polls, so no poll sees the
    # file shrink. The generator polls only when resumed, so driving it by
    # hand puts the rewrite between two polls; the one append the test needs
    # while the source waits comes from its nap.
    path = tmp_path / "live.csv"
    path.write_text(f"{PW},1\n", encoding="utf-8")
    appends = [f"{PW},2\n{PW},3\n"]

    def nap(seconds):
        assert appends, "the source waited for data it should have read"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(appends.pop())

    monkeypatch.setattr(sources.time, "sleep", nap)
    with contextlib.closing(TailSource(path, poll_interval=0.2).frames()) as frames:
        got = [next(frames)[0], next(frames)[0]]
        offset = path.stat().st_size
        rewritten = [f"{PW},{v}" for v in range(70, 76)]
        path.write_text("".join(line + "\n" for line in rewritten), encoding="utf-8")
        assert path.stat().st_size > offset
        got += [next(frames)[0] for _ in rewritten]
    assert got == [f"{PW},2", f"{PW},3", *rewritten]


def test_tail_source_follows_a_file_renamed_and_recreated(tmp_path):
    # rename rotation: the file is moved away and a new one takes its path.
    path = tmp_path / "live.csv"
    path.touch()
    stop = threading.Event()
    source = TailSource(path, poll_interval=0.2, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    def wait_for(count):
        deadline = time.monotonic() + 5.0
        while len(got) < count and time.monotonic() < deadline:
            time.sleep(0.02)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.2)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(f"{PW},1\n")
    wait_for(1)
    path.rename(tmp_path / "live.csv.1")
    time.sleep(0.2)  # the path is missing for a few polls
    path.write_text(f"{PW},2\n", encoding="utf-8")
    with path.open("a", encoding="utf-8") as handle:
        handle.write(f"{PW},3\n")
    wait_for(3)
    stop.set()
    thread.join(timeout=5.0)
    assert got == [f"{PW},1", f"{PW},2", f"{PW},3"]


def test_tail_overlong_record_is_one_empty_line(tmp_path):
    path = tmp_path / "live.csv"
    path.touch()
    junk = b"9" * (20 * 1024)  # no newline
    assert len(junk) > 2 * MAX_RECORD_BYTES
    payload = junk + b"tail of the junk\n" + f"{PW},1\n".encode()
    assert tail(path, payload, 2) == ["", f"{PW},1"]


def test_tail_source_survives_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "live.csv"
    path.touch()
    payload = f"{PW},70\n{PW},".encode() + b"\xff\n" + f"{PW},71\n".encode()
    assert tail(path, payload, 3) == [f"{PW},70", f"{PW},\ufffd", f"{PW},71"]


def test_tail_drops_a_byte_order_mark_written_to_an_empty_file(tmp_path):
    path = tmp_path / "live.csv"
    path.touch()
    payload = f"\ufeff{PW},1,2\n{PW},3,4\n".encode()
    assert tail(path, payload, 2) == [f"{PW},1,2", f"{PW},3,4"]


def test_tail_truncated_mid_record_starts_the_new_file_afresh(tmp_path):
    # The unterminated record of the old file must not swallow the new
    # file's first record.
    path = tmp_path / "live.csv"
    path.touch()
    stop = threading.Event()
    got = []

    def run():
        for line, _ in TailSource(path, poll_interval=0.2, stop=stop).frames():
            got.append(line)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    time.sleep(0.2)
    with path.open("ab") as handle:
        handle.write(f"{PW},1,2\n{PW},3".encode())
    time.sleep(0.3)  # the partial record is read and held
    path.write_bytes(b"")
    time.sleep(0.3)
    with path.open("ab") as handle:
        handle.write(f"{PW},5,6\n{PW},7,8\n".encode())
    deadline = time.monotonic() + 5.0
    while len(got) < 3 and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.1)
    stop.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert got == [f"{PW},1,2", f"{PW},5,6", f"{PW},7,8"]


def test_socket_roundtrip_and_reconnect():
    stop = threading.Event()
    source = SocketSource("127.0.0.1", 0, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    port = source.bound_port

    # two separate connections: the listener must pick up where it left off
    assert emit_lines([f"{PW},1", f"{PW},2"], "127.0.0.1", port) == 2
    assert emit_lines([f"{PW},3"], "127.0.0.1", port) == 1

    deadline = time.monotonic() + 5.0
    while len(got) < 3 and time.monotonic() < deadline:
        time.sleep(0.02)
    stop.set()
    thread.join(timeout=5.0)
    assert got == [f"{PW},1", f"{PW},2", f"{PW},3"]


def test_emitter_gives_up_when_nobody_listens(monkeypatch):
    # a port from the dynamic range with no listener; three attempts, 0.3 s
    # of backoff, for speed
    monkeypatch.setattr(sources, "EMIT_ATTEMPTS", 3)
    with pytest.raises(SourceError, match="giving up sending to 127.0.0.1:49151 after 3 attempts"):
        emit_lines([f"{PW},1"], "127.0.0.1", 49151)


def test_speedup_must_be_positive(tmp_path):
    # refused where the source is made, not once its first frame is asked for
    path = tmp_path / "stream.csv"
    path.write_text(f"{PW},1\n", encoding="utf-8")
    spec = default_spec(steps=10, n_anomalies=0, seed=1, dim=2)
    for make in (lambda **p: ReplaySource(path, PW, **p), lambda **p: SyntheticSource(spec, PW, **p)):
        for pacing in ({"speedup": 0.0}, {"speedup": -1.0}, {"speedup": math.nan},
                       {"poll_interval": 0.0}, {"poll_interval": -1.0}):
            (name, value), = pacing.items()
            with pytest.raises(ValueError, match=f"^{name} must be > 0, got {value}$"):
                make(**pacing)
        assert math.isinf(make().speedup)


@pytest.mark.parametrize("record_end", ["newline", "disconnect"])
def test_socket_overlong_record_is_one_empty_line(record_end):
    stop = threading.Event()
    source = SocketSource("127.0.0.1", 0, stop=stop)
    got = []

    def run():
        for line, _ in source.frames():
            got.append(line)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    port = source.bound_port

    junk = b"9" * (10 * 1024)  # no newline
    assert len(junk) > 2 * MAX_RECORD_BYTES
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as conn:
        conn.sendall(junk)
        if record_end == "newline":
            conn.sendall(b"tail of the junk\n" + f"{PW},1\n".encode())
    if record_end == "disconnect":
        assert emit_lines([f"{PW},1"], "127.0.0.1", port) == 1

    deadline = time.monotonic() + 5.0
    while len(got) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    time.sleep(0.1)  # nothing further may arrive
    stop.set()
    thread.join(timeout=5.0)
    assert got == ["", f"{PW},1"]
