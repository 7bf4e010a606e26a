"""Seeded inputs for every workload.

Everything the program sees is made here from the ``--seed`` argument:
vital-sign streams from ``default_spec``, their labels, the transmission
faults injected into the replay capture, and the monitor's send schedule.
The same seed always gives byte-identical files and lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vitalwatch import Settings, default_spec, generate
from vitalwatch.synth import LabeledEvent, labels_text

PASSWORD = Settings().password

# Share of replay lines that carry a transmission fault, and the single-line
# fault kinds drawn uniformly. Bursts add runs of at least warn_threshold
# corrupted lines so that data warnings are raised and cleared.
FAULT_SHARE = 0.05
FAULT_KINDS = ("null", "hyphen", "zero", "non-numeric", "bad-password", "bad-arity")
BURSTS = 3

# The deployment config of the replay and monitor workloads. The bandwidth
# is pinned: at the shipped sigma = 1.0 some seeds fall into a Red1 flood
# (the dictionary never admits again) and others churn, so per-frame work
# swings up to 5x between seeds. At sigma = 2.5 every seed behaves alike.
# tune-grid still sweeps sigma = 1.0, 1.5 and 2.5.
DEPLOYMENT_CONFIG = "sigma = 2.5\n"


@dataclass(frozen=True)
class Stream:
    """Wire-format lines (password first) plus the labels of their anomalies."""

    lines: list[str]
    labels: list[LabeledEvent]


def labelled_stream(steps: int, seed: int) -> Stream:
    """A clean ``default_spec(dim=4)`` stream with one label per 100 steps."""
    spec = default_spec(steps=steps, n_anomalies=steps // 100, seed=seed, dim=4)
    values, labels = generate(spec)
    lines = [PASSWORD + "," + ",".join(f"{v:.3f}" for v in row) for row in values]
    return Stream(lines, labels)


def _corrupt(line: str, kind: str, rng: np.random.Generator) -> str:
    password, *fields = line.split(",")
    i = int(rng.integers(len(fields)))
    if kind == "null":
        fields[i] = "null"
    elif kind == "hyphen":
        fields[i] = "-"
    elif kind == "zero":
        fields[i] = "0"
    elif kind == "non-numeric":
        fields[i] = "7x" + fields[i]
    elif kind == "bad-password":
        password = "PW999"
    elif kind == "bad-arity":
        fields = fields[:-1] if rng.integers(2) else fields + fields[-1:]
    return ",".join([password, *fields])


def inject_faults(stream: Stream, seed: int, warn_threshold: int) -> tuple[Stream, int]:
    """Corrupt about FAULT_SHARE of the lines; returns the stream and how many.

    Line 0 stays clean so the file reads as wire format, and labelled
    timesteps stay clean so recall measures the detector, not the screen.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(stream.lines)
    protected = {0} | {ev.timestep for ev in stream.labels}
    chosen: set[int] = set()
    bursts = 0
    while bursts < BURSTS:
        length = warn_threshold + int(rng.integers(1, 2 * warn_threshold))
        start = int(rng.integers(n // 10, n - length))
        burst = set(range(start, start + length))
        if not burst & (protected | chosen):
            chosen |= burst
            bursts += 1
    target = int(FAULT_SHARE * n)
    while len(chosen) < target:
        chosen.add(int(rng.integers(1, n)))
    chosen -= protected
    lines = list(stream.lines)
    for i in sorted(chosen):
        kind = FAULT_KINDS[int(rng.integers(len(FAULT_KINDS)))]
        lines[i] = _corrupt(lines[i], kind, rng)
    return Stream(lines, stream.labels), len(chosen)


def write_stream(stream: Stream, directory: Path, name: str) -> tuple[Path, Path]:
    """Write the wire file and its label file, as ``vitalwatch synth`` would."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.csv"
    path.write_text("\n".join(stream.lines) + "\n", encoding="utf-8")
    labels = directory / f"{name}.labels.csv"
    labels.write_text(labels_text(stream.labels), encoding="utf-8")
    return path, labels


def write_config(directory: Path, *extra: str) -> Path:
    """The deployment config file, plus extra ``key = value`` lines."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "bench.cfg"
    path.write_text(DEPLOYMENT_CONFIG + "".join(line + "\n" for line in extra), encoding="utf-8")
    return path


def replay_capture(steps: int, seed: int, warn_threshold: int) -> tuple[Stream, int]:
    return inject_faults(labelled_stream(steps, seed), seed, warn_threshold)


def tune_streams(steps: int, seed: int, count: int) -> list[Stream]:
    return [labelled_stream(steps, 7919 + seed * count + k) for k in range(count)]


def monitor_beds(steps: int, seed: int, beds: int) -> list[Stream]:
    return [labelled_stream(steps, seed * 16 + 1 + b) for b in range(beds)]
