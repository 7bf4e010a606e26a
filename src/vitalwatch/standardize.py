"""Running per-channel z-scoring so kernel distances have a stable scale."""

from __future__ import annotations

from collections.abc import Sequence
from math import sqrt

# Floor on a channel's variance, so a constant channel maps to z = 0.
VAR_FLOOR = 1e-6


class RunningStandardizer:
    """Welford-style running mean/variance per channel, update then transform.

    The first ``warmup`` frames only settle the statistics: ``push`` folds
    them in and returns None, so no caller scores a frame before its
    z-score means something. ``VAR_FLOOR`` keeps constant channels at z = 0
    instead of dividing by zero.

    The statistics are Python floats, one per channel: a frame has only a
    handful of channels, and numpy's per-call overhead would dominate. Each
    channel runs the same IEEE operations an array update would, so the
    transform is bit-identical to the numpy float64 version. The z-scores
    come back as that list of floats too: the pipeline's next step writes
    them into the detector's block row, or converts them once, and an array
    built here would be unpacked or copied there.
    """

    def __init__(self, dim: int, warmup: int = 50) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        self.dim = dim
        self.warmup = warmup
        self.count = 0
        self._mean = [0.0] * dim
        self._m2 = [0.0] * dim

    def push(self, values: Sequence[float]) -> list[float] | None:
        """Fold one frame's values into the statistics and return its
        z-scores as a list of floats, or None for a warm-up frame. Warm-up
        and scored frames each have their own loop over the channels, so no
        channel asks whether to score."""
        if len(values) != self.dim:
            raise ValueError(f"expected {self.dim} values, got {len(values)}")
        self.count = n = self.count + 1
        mean, m2 = self._mean, self._m2
        if n <= self.warmup:
            for i, x in enumerate(values):
                delta = x - mean[i]
                mean[i] = mu = mean[i] + delta / n
                m2[i] += delta * (x - mu)
            return None
        n1 = n - 1  # n > warmup >= 1
        z = []
        for i, x in enumerate(values):
            delta = x - mean[i]
            mean[i] = mu = mean[i] + delta / n
            m2[i] = s = m2[i] + delta * (x - mu)
            var = s / n1
            # max(var, VAR_FLOOR), NaN included, without the builtin call
            z.append((x - mu) / sqrt(VAR_FLOOR if var < VAR_FLOOR else var))
        return z
