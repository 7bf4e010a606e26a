"""One set-up measurement in a fresh process.

Prints, on the last line, the set-up seconds and then the mean time of two
calibration loops run right after, which scale the set-up to the reference
machine (see ``harness.timed``).

Times importing vitalwatch and building the workload's entry objects, up to
the first frame:

    python3 perfbench/setup_probe.py replay  CONFIG STREAM OUT_DIR
    python3 perfbench/setup_probe.py tune    CONFIG STREAM LABELS
    python3 perfbench/setup_probe.py monitor CONFIG OUT_DIR
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import socket  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))


def replay(config: str, stream: str, out_dir: str) -> float:
    from vitalwatch import BedPipeline, EventArchive, ReplaySource, load_settings

    settings = load_settings(config)
    frames = ReplaySource(stream, settings.password).frames()
    next(frames)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "frames_bed1.csv").open("w", encoding="utf-8") as handle:
        BedPipeline("bed1", settings, frame_archive=handle)
        with EventArchive(out / "events.csv"):
            return time.perf_counter() - T0


def tune(config: str, stream: str, labels: str) -> float:
    from vitalwatch import ReplaySource, load_settings, read_labels

    settings = load_settings(config)
    settings.tuning_grid()
    settings.match_policy()
    read_labels(labels)
    next(ReplaySource(stream, settings.password).frames())
    return time.perf_counter() - T0


class _StopSink:
    """Board sink that ends monitor_run like Ctrl-C once ``ready`` is set."""

    def __init__(self, ready: threading.Event) -> None:
        self.ready = ready
        self.stopped = False

    def write(self, text: str) -> None:
        if self.ready.is_set() and not self.stopped:
            self.stopped = True
            raise KeyboardInterrupt


def monitor(config: str, out_dir: str) -> float:
    ready = threading.Event()
    elapsed: list[float] = []
    ports = [
        line.rsplit(":", 1)[1].strip()
        for line in Path(config).read_text(encoding="utf-8").splitlines()
        if line.startswith("bed.")
    ]

    def wait_listening() -> None:
        pending = [int(p) for p in ports]
        while pending:
            try:
                socket.create_connection(("127.0.0.1", pending[0]), timeout=1.0).close()
                pending.pop(0)
            except OSError:
                time.sleep(0.0005)
        elapsed.append(time.perf_counter() - T0)
        ready.set()

    threading.Thread(target=wait_listening, daemon=True).start()
    from vitalwatch import load_settings, monitor_run

    settings = load_settings(config)
    monitor_run(settings, out_dir=out_dir, duration=30.0, screen=_StopSink(ready))
    if not elapsed:
        raise SystemExit("monitor never listened on every port")
    return elapsed[0]


PROBES = {"replay": replay, "tune": tune, "monitor": monitor}

if __name__ == "__main__":
    workload, *args = sys.argv[1:]
    elapsed = PROBES[workload](*args)
    from harness import calibration_s

    print(f"{elapsed:.6f} {(calibration_s() + calibration_s()) / 2:.6f}")
