"""Shared plumbing: locating the checkout, set-up probes, statistics, env."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 7


class CheckoutError(Exception):
    """The benchmark was started outside a checkout of the program."""


def require_checkout() -> None:
    """Import the program from ``src/`` of the current directory, never from
    anywhere else, and fail before measuring anything if it is missing."""
    for needed in (SRC / "vitalwatch" / "__init__.py", ROOT / "tests" / "_oracles.py"):
        if not needed.is_file():
            raise CheckoutError(f"{needed.relative_to(ROOT)} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import vitalwatch

    if Path(vitalwatch.__file__).resolve().parent != (SRC / "vitalwatch").resolve():
        raise CheckoutError(f"vitalwatch imported from {vitalwatch.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine speed -------------------------------------------------------------
# Other tenants of the machine slow it by up to 2x for seconds at a time, and
# the slowdown hits this process's own CPU time, so repeating work does not
# average it out. Every timed piece of work is therefore bracketed by two
# runs of a fixed calibration loop (bytecode, small numpy calls and string
# formatting, the program's mix), and its time is scaled to a machine on
# which that loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.015
_CALIBRATION_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def calibration_s() -> float:
    start = time.perf_counter()
    v = np.ones(8)
    total = 0.0
    rows = []
    for i in range(3_600):
        v = np.tanh(_CALIBRATION_MATRIX @ v + 0.1)
        total += float(v @ v) * 1e-3 + float(v[i % 8])
        rows.append(f"{total:.3f},{i}".split(","))
        if len(rows) > 32:
            rows.clear()
    return time.perf_counter() - start


class Segments:
    """Consecutive timed segments with a calibration loop at every cut,
    outside the segments, so each segment is scaled by its neighbours."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.calibrations: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        self.calibrations.append(calibration_s())
        self._start = time.perf_counter()

    def cut(self) -> None:
        self.seconds.append(time.perf_counter() - self._start)
        self.start()

    def scales(self) -> np.ndarray:
        cal = np.asarray(self.calibrations)
        return 2.0 * CALIBRATION_REF_S / (cal[:-1] + cal[1:])

    def scaled(self) -> np.ndarray:
        """Each segment's time on the reference machine."""
        return np.asarray(self.seconds) * self.scales()


def timed(fn, *args, **kwargs):
    """Returns fn's result, its wall time and the factor that scales that
    time to the reference machine, measured just before and after."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    after = calibration_s()
    return result, elapsed, 2.0 * CALIBRATION_REF_S / (before + after)


def median_setup_s(workload: str, args: list[str]) -> float:
    """Median over fresh processes of import + entry objects, up to frame
    one, each scaled to the reference machine."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, calibration = map(float, done.stdout.split())
        times.append(elapsed * CALIBRATION_REF_S / calibration)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def source_digest() -> str:
    """Content hash of the program's sources, the commit id of a checkout
    that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "vitalwatch").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "source_digest": source_digest(),
    }
