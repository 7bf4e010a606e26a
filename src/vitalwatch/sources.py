"""Frame transport: where record lines come from and how they are paced.

All sources yield (line, received_at) pairs in order, at most once per
record. Only replay sources pace themselves, from a nominal polling interval
divided by a speedup factor (rows carry no timestamps, so the cadence is the
configured nominal one). The socket source accepts plain
newline-delimited records on a listening port; the matching emitter connects
out and retries with exponential backoff a bounded number of times, so a
flaky link shows up downstream as missing frames rather than a crash.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time
from itertools import chain, islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .validity import DECIMAL_RE

DEFAULT_POLL_INTERVAL = 12.0  # seconds between frames from a bedside unit

# Longest record a source keeps; a valid frame is about 40 bytes.
MAX_RECORD_BYTES = 4096
# Bytes a source reads at a time. A replay reading 64 KiB at a time took
# replay-archive's latency_p50_ms to 1.006 and its peak_rss_mb to 1.010 of
# what 4096 gave (6 paired runs, 2 vCPUs).
READ_BYTES = 4096
# Connection attempts the emitter makes per line, backing off from 0.1 s
# and doubling after each failure: 12.7 s of sleep before it gives up.
EMIT_ATTEMPTS = 8


class SourceError(Exception):
    """I/O failure distinct from data-level validity flags."""


def wire_line(password: str, values: Iterable[float]) -> str:
    return ",".join([password, *(f"{v:.3f}" for v in values)])


def socket_address(target: str) -> tuple[str, int]:
    """Split a ``host:port`` target; ValueError unless the port is an integer
    in 0-65535 and the host is non-empty."""
    host, _, port = target.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(
            f"socket target needs host:port with a port in 0-65535, got {target!r}"
        )
    return host, int(port)


def _pace(
    lines: Iterable[str], interval: float, speedup: float, stop: threading.Event
) -> Iterator[tuple[str, float]]:
    """Yield each line on an absolute schedule interval/speedup apart, and
    return once ``stop`` is set, without waiting out the gap. Each line is
    taken from ``lines`` as it is handed on."""
    gap = 0.0 if math.isinf(speedup) else interval / speedup
    if not gap:  # as fast as the reader takes them: no schedule to keep
        for line in lines:
            yield line, time.time()
        return
    start = time.monotonic()
    for i, line in enumerate(lines):
        due = start + i * gap
        delay = due - time.monotonic()
        if delay > 0:
            stop.wait(delay)
        if stop.is_set():
            return
        yield line, time.time()


def capture_header(names: Sequence[str], password: str) -> bool:
    """Whether ``names`` can head a capture: none blank, none a decimal, and
    the first not the password."""
    return names[0] != password and all(n and not DECIMAL_RE.fullmatch(n) for n in names)


def _is_capture(lines: list[str], password: str) -> bool:
    """Whether a recorded file whose first records (one or two) are
    ``lines`` is a capture: the first is a ``capture_header`` of parameter
    names, blanks around each stripped, and the second, if any, is not a
    wire record (it does not start with the password). A corrupt first
    record of a wire file (bad password, garbage, an empty field) fails one
    of these tests, so it stays a record that the screen flags alone."""
    fields = [field.strip() for field in lines[0].split(",")]
    if not capture_header(fields, password):
        return False
    return len(lines) == 1 or lines[1].split(",", 1)[0] != password


class ReplaySource:
    """Replay a recorded file, pacing rows by poll_interval / speedup.

    Accepts either wire-format files (password-prefixed rows) or capture
    files (header row of parameter names, value-only rows, no password); a
    capture is recognised by its header (``_is_capture``), and its rows are
    rewritten into wire form so the rest of the pipeline sees one format.
    The file's bytes are one ``records`` stream, its end ending the last
    record, read as the frames are taken: a replay holds one READ_BYTES
    chunk of its file, however long the file is. The file opens at the
    first frame and closes when the replay ends, stops or is closed. A read
    that fails is a SourceError naming the file, raised at the frame that
    needed it. A paced replay ends early once ``stop`` is set.
    """

    def __init__(
        self,
        path: str | Path,
        password: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        speedup: float = math.inf,
        stop: threading.Event | None = None,
    ) -> None:
        for name, value in (("poll_interval", poll_interval), ("speedup", speedup)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.path = Path(path)
        if not self.path.is_file():
            # a replay needs a finished recording; fail before any output
            # directories or archive files get created downstream
            raise SourceError(f"cannot read {self.path}: no such file")
        self.password = password
        self.poll_interval = poll_interval
        self.speedup = speedup
        self.stop = stop or threading.Event()

    def frames(self) -> Iterator[tuple[str, float]]:
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        with handle:
            lines = records(_file_chunks(handle, self.path))
            head = list(islice(lines, 2))
            lines = chain(head, lines)
            if head and _is_capture(head, self.password):
                next(lines)  # the header
                lines = map(f"{self.password},".__add__, lines)
            yield from _pace(lines, self.poll_interval, self.speedup, self.stop)


def _file_chunks(handle: BinaryIO, path: Path) -> Iterator[bytes]:
    """The bytes ``handle`` reads, READ_BYTES at a time, then a newline that
    ends the last record. A read that fails is a SourceError naming
    ``path``."""
    while True:
        try:
            chunk = handle.read(READ_BYTES)
        except OSError as exc:
            raise SourceError(f"cannot read {path}: {exc}") from exc
        if not chunk:
            yield b"\n"
            return
        yield chunk


def records(chunks: Iterable[bytes]) -> Iterator[str]:
    """Split a byte stream into records: the one rule of every source.

    A record ends at ``\n`` and loses a trailing ``\r`` and a leading
    byte-order mark; blank ones are skipped, and so is an unterminated last
    one. Bytes that are not UTF-8 decode to U+FFFD, so a corrupt record is
    flagged by screening instead of ending the source. A record longer than
    MAX_RECORD_BYTES is yielded once as an empty line, which screening flags,
    and dropped through its newline (or the end of the stream), so a writer
    that never sends a newline costs bounded memory. Chunk cuts never matter.
    Each chunk's records are split at once and handed on from a list, so
    that taking a record resumes no Python frame.
    """
    return chain.from_iterable(_chunk_records(chunks))


def _chunk_records(chunks: Iterable[bytes]) -> Iterator[list[str]]:
    """The records that each chunk of ``chunks`` completes, by the rule
    ``records`` states."""
    buffer = b""
    skipping = False  # inside an overlong record
    for chunk in chunks:
        *complete, buffer = (buffer + chunk).split(b"\n")
        # no multi-byte character holds a b"\n", so text splits as bytes do
        texts = b"\n".join(complete).decode("utf-8", errors="replace").split("\n")
        found = []
        for raw, line in zip(complete, texts):
            if skipping:
                skipping = False
            elif len(raw) > MAX_RECORD_BYTES:
                found.append("")
            else:
                line = line.rstrip("\r").removeprefix("\ufeff")
                if line.strip() != "":
                    found.append(line)
        if len(buffer) > MAX_RECORD_BYTES:
            if not skipping:
                found.append("")
            buffer, skipping = b"", True
        yield found


class TailSource:
    """Follow a growing file from its current end, like tail -F.

    Polls for appended bytes until ``stop`` is set. Each file is one
    ``records`` stream: from the end at open, and from the start after a
    rewind or a replacement, so a partial line waits for its end but is
    never glued to what follows a rewind. A file truncated in place
    (copytruncate) is rewound, and so is one rewritten in place, even past
    the old offset before the next poll: every poll compares the file's
    first record with the one taken when the file first had one. A rewrite
    that keeps the first record byte-identical looks like plain growth and
    is still missed. Rotation is checked for when a poll finds nothing new,
    so the old file is read to its end first; when another file takes the
    path (rename rotation, logrotate's ``create``), that file is read from
    its start, and while the path is missing the source keeps waiting.
    """

    def __init__(
        self,
        path: str | Path,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        stop: threading.Event | None = None,
    ) -> None:
        self.path = Path(path)
        self.poll_interval = poll_interval
        self.stop = stop or threading.Event()

    def frames(self) -> Iterator[tuple[str, float]]:
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise SourceError(f"cannot open {self.path}: {exc}") from exc
        handle.seek(0, 2)

        def appended() -> Iterator[bytes]:  # until a rewind or a replacement
            nonlocal handle
            first: bytes | None = None  # its first record, taken once it has one
            while not self.stop.is_set():
                first = first or _first_record(handle)
                if os.fstat(handle.fileno()).st_size < handle.tell() or (
                    first and os.pread(handle.fileno(), len(first), 0) != first
                ):
                    handle.seek(0)  # truncated, or rewritten in place
                    return
                chunk = handle.read(READ_BYTES)
                if chunk:
                    yield chunk
                elif (replacement := self._replacement(handle)) is not None:
                    handle.close()
                    handle = replacement
                    return
                else:  # short naps keep shutdown responsive at any cadence
                    time.sleep(min(self.poll_interval, 0.05))

        try:
            while not self.stop.is_set():
                for line in records(appended()):
                    yield line, time.time()
        finally:
            handle.close()

    def _replacement(self, handle: BinaryIO) -> BinaryIO | None:
        """A handle on the file now at the path if it is not the one
        ``handle`` reads; None while the path is missing or unchanged."""
        try:
            if os.path.samestat(os.stat(self.path), os.fstat(handle.fileno())):
                return None
            return self.path.open("rb")
        except OSError:
            return None


def _first_record(handle: BinaryIO) -> bytes | None:
    """The first record of the file ``handle`` reads, newline included and
    cut at MAX_RECORD_BYTES + 1 bytes, or None while it has no complete one."""
    head = os.pread(handle.fileno(), MAX_RECORD_BYTES + 1, 0)
    end = head.find(b"\n") + 1
    if end:
        return head[:end]
    return head if len(head) > MAX_RECORD_BYTES else None


class SocketSource:
    """Accept newline-delimited records on a listening TCP port.

    One peer at a time; when a connection drops, the listener simply waits
    for the next one. Nothing marks the silent stretch: no frame or event
    comes from it, so the bed's tile keeps its state and only its ``age``
    grows. A check for silence is work due by the clock, so it is to run in
    ``Ward.tick``; none runs yet. Records are split and bounded by
    ``records``, afresh for each connection.
    """

    def __init__(
        self,
        host: str,
        port: int,
        stop: threading.Event | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.stop = stop or threading.Event()
        self._server: socket.socket | None = None
        self._ready = threading.Event()

    @property
    def bound_port(self) -> int:
        """Actual port after bind (useful when constructed with port 0)."""
        self._ready.wait(timeout=5.0)
        if self._server is None:
            raise SourceError("socket source is not listening")
        return self._server.getsockname()[1]

    def frames(self) -> Iterator[tuple[str, float]]:
        try:
            server = socket.create_server((self.host, self.port))
        except OSError as exc:
            raise SourceError(f"cannot listen on {self.host}:{self.port}: {exc}") from exc
        self._server = server
        self._ready.set()
        with server:
            server.settimeout(0.2)
            while not self.stop.is_set():
                try:
                    conn, _ = server.accept()
                except TimeoutError:
                    continue
                with conn:
                    conn.settimeout(0.2)
                    for line in records(self._received(conn)):
                        yield line, time.time()

    def _received(self, conn: socket.socket) -> Iterator[bytes]:
        while not self.stop.is_set():
            try:
                chunk = conn.recv(READ_BYTES)
            except TimeoutError:
                continue
            except OSError:
                return
            if chunk == b"":
                return  # peer closed; wait for the next connection
            yield chunk


def emit_lines(lines: Iterable[str], host: str, port: int) -> int:
    """Send records to a SocketSource peer, reconnecting with exponential
    backoff, at most ``EMIT_ATTEMPTS`` times per line. Returns the number of
    lines delivered."""
    sent = 0
    conn: socket.socket | None = None
    try:
        for line in lines:
            payload = (line.rstrip("\r\n") + "\n").encode("utf-8")
            backoff = 0.1
            for attempt in range(EMIT_ATTEMPTS):
                try:
                    if conn is None:
                        conn = socket.create_connection((host, port), timeout=5.0)
                    conn.sendall(payload)
                    sent += 1
                    break
                except OSError:
                    if conn is not None:
                        conn.close()
                        conn = None
                    if attempt == EMIT_ATTEMPTS - 1:
                        raise SourceError(
                            f"giving up sending to {host}:{port} after "
                            f"{EMIT_ATTEMPTS} attempts"
                        )
                    time.sleep(backoff)
                    backoff *= 2.0
    finally:
        if conn is not None:
            conn.close()
    return sent
