"""Frame transport: where record lines come from and how they are paced.

All sources yield (line, received_at) pairs in order, at most once per
record. Replay and synthetic sources pace themselves from a nominal polling
interval divided by a speedup factor (rows carry no timestamps, so the
cadence is the configured nominal one). The socket source accepts plain
newline-delimited records on a listening port; the matching emitter connects
out and retries with bounded exponential backoff, so a flaky link shows up
downstream as missing frames rather than a crash.
"""

from __future__ import annotations

import math
import os
import socket
import threading
import time
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .synth import SyntheticSpec, generate
from .validity import DECIMAL_RE

DEFAULT_POLL_INTERVAL = 12.0  # seconds between frames from a bedside unit

# Longest record a tail or socket source keeps; a valid frame is about 40 bytes.
MAX_RECORD_BYTES = 4096


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


def _pace(lines: list[str], interval: float, speedup: float) -> Iterator[tuple[str, float]]:
    """Yield each line on an absolute schedule interval/speedup apart."""
    if speedup <= 0:
        raise ValueError(f"speedup must be > 0, got {speedup}")
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
            time.sleep(delay)
        yield line, time.time()


def _is_capture(lines: list[str], password: str) -> bool:
    """Whether a recorded file's non-blank lines are a capture: the first is
    a header of parameter names (no field blank or a decimal, the first not
    the password) and the second, if any, is not a wire record (it does not
    start with the password). A corrupt first record of a wire file (bad
    password, garbage, an empty field) fails one of these tests, so it stays
    a record that the screen flags alone."""
    fields = [field.strip() for field in lines[0].split(",")]
    if fields[0] == password or not all(f and not DECIMAL_RE.fullmatch(f) for f in fields):
        return False
    return len(lines) == 1 or lines[1].split(",", 1)[0] != password


class ReplaySource:
    """Replay a recorded file, pacing rows by poll_interval / speedup.

    Accepts either wire-format files (password-prefixed rows) or capture
    files (header row of parameter names, value-only rows, no password); a
    capture is recognised by its header (``_is_capture``), and its rows are
    rewritten into wire form so the rest of the pipeline sees one format.
    """

    def __init__(
        self,
        path: str | Path,
        password: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        speedup: float = math.inf,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        self.path = Path(path)
        if not self.path.is_file():
            # a replay needs a finished recording; fail before any output
            # directories or archive files get created downstream
            raise SourceError(f"cannot read {self.path}: no such file")
        self.password = password
        self.poll_interval = poll_interval
        self.speedup = speedup

    def _read_lines(self) -> list[str]:
        try:
            raw = self.path.read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise SourceError(f"cannot read {self.path}: {exc}") from exc
        lines = [line for line in raw.splitlines() if line.strip() != ""]
        if not lines:
            return []
        if _is_capture(lines, self.password):
            return [f"{self.password},{line}" for line in lines[1:]]
        return lines

    def frames(self) -> Iterator[tuple[str, float]]:
        yield from _pace(self._read_lines(), self.poll_interval, self.speedup)


class SyntheticSource:
    """Generate-and-pace wrapper around the synthetic stream builder."""

    def __init__(
        self,
        spec: SyntheticSpec,
        password: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        speedup: float = math.inf,
    ) -> None:
        self.spec = spec
        self.password = password
        self.poll_interval = poll_interval
        self.speedup = speedup

    def frames(self) -> Iterator[tuple[str, float]]:
        values, _ = generate(self.spec)
        lines = [wire_line(self.password, row) for row in values]
        yield from _pace(lines, self.poll_interval, self.speedup)


def records(chunks: Iterable[bytes]) -> Iterator[str]:
    """Split a byte stream into newline-delimited records, blank ones skipped.

    A record longer than MAX_RECORD_BYTES is yielded once as an empty line,
    which screening flags, and dropped through its newline (or the end of
    the stream), so a writer that never sends a newline costs bounded
    memory. Bytes that are not UTF-8 decode to U+FFFD, so a corrupt record
    is flagged by screening instead of ending the source.
    """
    buffer = b""
    skipping = False  # inside an overlong record
    for chunk in chunks:
        *complete, buffer = (buffer + chunk).split(b"\n")
        for raw in complete:
            if skipping:
                skipping = False
            elif len(raw) > MAX_RECORD_BYTES:
                yield ""
            else:
                line = raw.decode("utf-8", errors="replace").rstrip("\r")
                if line.strip() != "":
                    yield line
        if len(buffer) > MAX_RECORD_BYTES:
            buffer = b""
            if not skipping:
                skipping = True
                yield ""


class TailSource:
    """Follow a growing file from its current end, like tail -F.

    Polls for appended bytes; stops when ``stop`` is set. A partial line (no
    terminator yet) is held until completed, and records are split and
    bounded by ``records``.

    Log rotation is checked for when a poll finds nothing new, so the old
    file is read to its end first. A file truncated in place (copytruncate)
    is read again from its start. So is one rewritten in place, even past
    the old offset before the next poll: every poll compares the file's
    first record with the one taken at open (or when the first record
    arrived, if the file was empty). A rewrite that keeps the first record
    byte-identical looks like plain growth and is still missed. When
    another file takes the path (rename rotation, logrotate's ``create``),
    that file is read from its start; while the path is missing, the source
    keeps waiting.
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
        for line in records(self._appended()):
            yield line, time.time()

    def _appended(self) -> Iterator[bytes]:
        try:
            handle = self.path.open("rb")
        except OSError as exc:
            raise SourceError(f"cannot open {self.path}: {exc}") from exc
        handle.seek(0, 2)
        first: bytes | None = None  # its first record, taken at the first poll
        # short sleeps keep shutdown responsive regardless of cadence
        nap = min(self.poll_interval, 0.05)
        try:
            while not self.stop.is_set():
                if first is None:
                    first = _first_record(handle)
                elif os.pread(handle.fileno(), len(first), 0) != first:
                    handle.seek(0)  # rewritten in place
                    first = None
                chunk = handle.read(4096)
                if chunk:
                    yield chunk
                elif os.fstat(handle.fileno()).st_size < handle.tell():
                    handle.seek(0)  # truncated in place
                    first = None
                elif (replacement := self._replacement(handle)) is not None:
                    handle.close()
                    handle = replacement
                    first = None
                else:
                    time.sleep(nap)
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
    for the next one, and the silent stretch surfaces as missing frames.
    Records are split and bounded by ``records``, afresh for each
    connection.
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
                chunk = conn.recv(4096)
            except TimeoutError:
                continue
            except OSError:
                return
            if chunk == b"":
                return  # peer closed; wait for the next connection
            yield chunk


def emit_lines(
    lines: Iterable[str],
    host: str,
    port: int,
    max_backoff: float = 30.0,
    attempts_per_line: int = 8,
) -> int:
    """Send records to a SocketSource peer, reconnecting with bounded
    exponential backoff. Returns the number of lines delivered."""
    sent = 0
    conn: socket.socket | None = None
    try:
        for line in lines:
            payload = (line.rstrip("\r\n") + "\n").encode("utf-8")
            backoff = 0.1
            for attempt in range(attempts_per_line):
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
                    if attempt == attempts_per_line - 1:
                        raise SourceError(
                            f"giving up sending to {host}:{port} after "
                            f"{attempts_per_line} attempts"
                        )
                    time.sleep(backoff)
                    backoff = min(backoff * 2.0, max_backoff)
    finally:
        if conn is not None:
            conn.close()
    return sent
