"""Labeled synthetic vital-sign streams with injected anomalies.

Each channel is a slowly drifting AR(1) process around a clinical baseline;
anomalies add a spike of a stated size (in channel standard deviations) to
chosen channels for a stated duration. Streams are deterministic in the
seed, and the emitted labels list the injected anomalies exactly, which is
what makes supervised threshold tuning testable without patient data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ChannelBaseline:
    mean: float
    stddev: float
    ar_coeff: float = 0.95  # step-to-step correlation of the noise
    drift_amplitude: float = 0.0  # slow sinusoid superimposed on the mean
    drift_period: float = 600.0  # timesteps per full drift cycle

    def __post_init__(self) -> None:
        if self.stddev <= 0:
            raise ValueError(f"stddev must be > 0, got {self.stddev}")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ValueError(f"ar_coeff must be in [0, 1), got {self.ar_coeff}")
        if self.drift_period <= 0:
            raise ValueError(f"drift_period must be > 0, got {self.drift_period}")


@dataclass(frozen=True)
class InjectedAnomaly:
    timestep: int
    channels: tuple[int, ...]
    magnitude_sigma: float
    duration: int = 1
    note: str = ""

    def __post_init__(self) -> None:
        if self.timestep < 0:
            raise ValueError(f"timestep must be >= 0, got {self.timestep}")
        if not self.channels:
            raise ValueError("anomaly must affect at least one channel")
        if self.magnitude_sigma <= 0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude_sigma}")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")


@dataclass(frozen=True)
class LabeledEvent:
    """Ground-truth marker for one injected anomaly."""

    timestep: int
    channels: tuple[int, ...]
    note: str = ""


@dataclass(frozen=True)
class SyntheticSpec:
    channels: tuple[ChannelBaseline, ...]
    steps: int
    anomalies: tuple[InjectedAnomaly, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("need at least one channel")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        last = -1
        for a in self.anomalies:
            if a.timestep <= last:
                raise ValueError("anomaly timesteps must be strictly increasing")
            last = a.timestep
            if a.timestep + a.duration > self.steps:
                raise ValueError(f"anomaly at {a.timestep} runs past the stream end")
            bad = [c for c in a.channels if not 0 <= c < len(self.channels)]
            if bad:
                raise ValueError(f"anomaly channels out of range: {bad}")

    @property
    def dim(self) -> int:
        return len(self.channels)


def generate(spec: SyntheticSpec) -> tuple[np.ndarray, list[LabeledEvent]]:
    """Produce the (steps, dim) value matrix and the matching labels."""
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    values = np.empty((spec.steps, d))
    state = rng.normal(size=d)  # stationary start for each AR(1) channel
    ar = np.array([c.ar_coeff for c in spec.channels])
    innov = np.sqrt(1.0 - ar**2)
    means = np.array([c.mean for c in spec.channels])
    devs = np.array([c.stddev for c in spec.channels])
    for t in range(spec.steps):
        state = ar * state + innov * rng.normal(size=d)
        drift = np.array(
            [
                c.drift_amplitude * math.sin(2.0 * math.pi * t / c.drift_period)
                for c in spec.channels
            ]
        )
        values[t] = means + drift + devs * state
    for a in spec.anomalies:
        for c in a.channels:
            offset = a.magnitude_sigma * spec.channels[c].stddev
            values[a.timestep : a.timestep + a.duration, c] += offset
    labels = [
        LabeledEvent(a.timestep, a.channels, a.note or f"{a.magnitude_sigma:g}sigma")
        for a in spec.anomalies
    ]
    return values, labels


def default_spec(
    steps: int,
    n_anomalies: int,
    seed: int = 0,
    dim: int = 4,
    magnitude_sigma: float = 5.0,
    first_anomaly: int = 150,
    min_gap: int = 25,
) -> SyntheticSpec:
    """A ready-made spec: plausible vitals baselines plus evenly scattered
    single-step spikes, starting after the detector has had time to train."""
    baselines = [
        ChannelBaseline(mean=75.0, stddev=6.0, ar_coeff=0.96, drift_amplitude=2.0),
        ChannelBaseline(mean=97.0, stddev=1.5, ar_coeff=0.95),
        ChannelBaseline(mean=118.0, stddev=8.0, ar_coeff=0.96, drift_amplitude=3.0),
        ChannelBaseline(mean=76.0, stddev=5.0, ar_coeff=0.95, drift_amplitude=2.0),
    ]
    while len(baselines) < dim:
        baselines.append(
            ChannelBaseline(mean=60.0 + 7.0 * len(baselines), stddev=4.0)
        )
    channels = tuple(baselines[:dim])

    if n_anomalies > 0:
        span = steps - 1 - first_anomaly
        if span < (n_anomalies - 1) * min_gap:
            raise ValueError(
                f"cannot place {n_anomalies} anomalies with gap {min_gap} "
                f"in {span} timesteps"
            )
        rng = np.random.default_rng(seed + 1)
        slack = span - (n_anomalies - 1) * min_gap
        cuts = np.sort(rng.integers(0, slack + 1, size=n_anomalies))
        times = [int(first_anomaly + cuts[i] + i * min_gap) for i in range(n_anomalies)]
        most = min(dim, 2)  # channels one anomaly hits; a one-column schema has one
        anomalies = tuple(
            InjectedAnomaly(
                timestep=t,
                channels=tuple(
                    sorted(rng.choice(dim, size=int(rng.integers(1, most + 1)), replace=False))
                ),
                magnitude_sigma=magnitude_sigma,
            )
            for t in times
        )
    else:
        anomalies = ()
    return SyntheticSpec(channels=channels, steps=steps, anomalies=anomalies, seed=seed)


# -- file formats ------------------------------------------------------------

LABELS_HEADER = "timestep,channels,note"


def read_text(path: str | Path) -> str:
    """A hand-edited file's text as text mode reads it: a leading byte-order
    mark dropped, and each line end (LF, CRLF or a lone CR) read as LF. Bytes
    that are not UTF-8 raise ValueError naming their line; an unreadable file
    raises OSError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:  # typed by a person: refused, not repaired
        before = exc.object[: exc.start]
        line = len(re.findall(rb"\r\n?|\n", before)) + 1
        bad = exc.object[exc.start]
        raise ValueError(f"line {line}: not UTF-8: {exc.reason} 0x{bad:02x}") from None


def capture_text(values: np.ndarray, names: tuple[str, ...] | None = None) -> str:
    """Capture-style CSV of a (steps, dim) stream: a header of parameter
    names (``ch0``, ``ch1``, ... when none are given), one row per poll."""
    dim = values.shape[1]
    if names is None:
        names = tuple(f"ch{i}" for i in range(dim))
    if len(names) != dim:
        raise ValueError(f"need {dim} names, got {len(names)}")
    lines = [",".join(names)]
    for row in values:
        lines.append(",".join(f"{v:.3f}" for v in row))
    return "\n".join(lines) + "\n"


def labels_text(labels: list[LabeledEvent]) -> str:
    lines = [LABELS_HEADER]
    for ev in labels:
        lines.append(
            ",".join([str(ev.timestep), ";".join(map(str, ev.channels)), ev.note])
        )
    return "\n".join(lines) + "\n"


def read_labels(path: str | Path) -> list[LabeledEvent]:
    """The labels ``labels_text`` wrote, line 1 its ``LABELS_HEADER``, each
    later line one label, read as ``read_text`` reads. A header or row that does
    not parse raises ValueError naming its line; an unreadable file OSError."""
    lines = read_text(path).split("\n")
    if lines[0] != LABELS_HEADER:
        raise ValueError(f"line 1: expected the header {LABELS_HEADER!r}, got {lines[0]!r}")
    labels = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            timestep, channels, note = line.split(",", 2)
            parsed = tuple(int(c) for c in channels.split(";") if c != "")
            labels.append(LabeledEvent(int(timestep), parsed, note))
        except ValueError:
            raise ValueError(
                f"line {line_no}: expected {LABELS_HEADER} with integer "
                f"timestep and channels, got {line!r}"
            ) from None
    return labels


def write_stream(
    spec: SyntheticSpec,
    stream_path: str | Path,
    labels_path: str | Path,
    names: tuple[str, ...] | None = None,
) -> list[LabeledEvent]:
    values, labels = generate(spec)
    Path(stream_path).write_text(capture_text(values, names), encoding="utf-8")
    Path(labels_path).write_text(labels_text(labels), encoding="utf-8")
    return labels
