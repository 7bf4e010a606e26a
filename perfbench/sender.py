"""Load generator for the monitor-socket workload, run as its own process.

    python3 perfbench/sender.py PLAN.json

PLAN holds the ports, one wire-line file per bed, the open-loop rate and
how many lines per bed go out in the open loop; the rest of each file is the
burst. The generator imports nothing from the program. It sends on one
thread over one connection per bed:

* open loop: line k (alternating beds) is due at t0 + k / rate, wall clock,
  whether or not the monitor keeps up; it sleeps to just before the due
  time and spins the rest;
* burst: the remaining lines of both beds as fast as TCP backpressure lets
  them through.

On exit it prints one JSON object: t0, the open-loop send times and, for the
burst, (time, bed, lines fully sent) after every send.
"""

from __future__ import annotations

import bisect
import json
import selectors
import socket
import sys
import time
from pathlib import Path

CONNECT_TIMEOUT_S = 20.0
START_DELAY_S = 0.05
SPIN_S = 0.0005
BURST_BYTES = 1 << 16


def connect(port: int) -> socket.socket:
    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)
            continue
        # one record per send: Nagle would hold records back for the ACK
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn


def wait_until(due: float) -> None:
    delay = due - time.time() - SPIN_S
    if delay > 0:
        time.sleep(delay)
    while time.time() < due:
        pass


def open_loop(conns, beds, count: int, rate: float, t0: float) -> list[float]:
    sent_at = []
    for k in range(count * len(conns)):
        bed, i = k % len(conns), k // len(conns)
        wait_until(t0 + k / rate)
        conns[bed].sendall(beds[bed][i])
        sent_at.append(time.time())
    return sent_at


def burst(conns, beds, start: int) -> list[tuple[float, int, int]]:
    payloads = [b"".join(lines[start:]) for lines in beds]
    ends = []
    for lines in beds:
        total, offsets = 0, []
        for line in lines[start:]:
            total += len(line)
            offsets.append(total)
        ends.append(offsets)
    sent = [0] * len(conns)
    log = []
    selector = selectors.DefaultSelector()
    for bed, conn in enumerate(conns):
        conn.setblocking(False)
        selector.register(conn, selectors.EVENT_WRITE, bed)
    pending = len(conns)
    while pending:
        for key, _ in selector.select(timeout=5.0):
            bed = key.data
            view = memoryview(payloads[bed])[sent[bed] : sent[bed] + BURST_BYTES]
            try:
                sent[bed] += key.fileobj.send(view)
            except BlockingIOError:
                continue
            log.append((time.time(), bed, bisect.bisect_right(ends[bed], sent[bed])))
            if sent[bed] == len(payloads[bed]):
                selector.unregister(key.fileobj)
                pending -= 1
    selector.close()
    return log


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    beds = [
        [(line + "\n").encode() for line in Path(f).read_text(encoding="utf-8").splitlines()]
        for f in plan["files"]
    ]
    conns = [connect(port) for port in plan["ports"]]
    try:
        t0 = time.time() + START_DELAY_S
        sent_at = open_loop(conns, beds, plan["open_per_bed"], plan["rate"], t0)
        log = burst(conns, beds, plan["open_per_bed"])
    finally:
        for conn in conns:
            conn.close()
    print(json.dumps({"t0": t0, "open_sent_at": sent_at, "burst_log": log}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
