"""Dense reference computations that only the test suite uses.

The dense KOAD reference itself (``ReferenceDetector``, ``oracle_gram``
and ``oracle_delta``) ships in the package, as ``vitalwatch.reference``,
so that the selftest runs it; it is re-exported here for the tests and for
the benchmark's checks, which load this file by path. What is left is
independent of the package's recursive update path too: the kernel is
re-implemented inline, and inverses are dense.
"""

from __future__ import annotations

import math

import numpy as np

from vitalwatch.reference import ReferenceDetector, oracle_delta, oracle_gram  # noqa: F401


def oracle_kernel(x, y, sigma) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sq = float(np.sum((x - y) ** 2))
    return math.exp(-sq / (2.0 * sigma * sigma))


def oracle_inverse(basis, sigma) -> np.ndarray:
    if len(basis) == 0:
        return np.zeros((0, 0))
    return np.linalg.inv(oracle_gram(basis, sigma))


class LeadingBlockUpdates:
    """The KRLS dictionary updates written as in the textbook, on dense
    m x m arrays rebuilt at every call: admission adds np.outer(c, c) / delta
    to the inverse and borders it with -c / delta and 1 / delta; removal
    drops row and column ``index``, then subtracts np.outer(u, u) / q, u the
    dropped column without its pivot q. Every entry gets the same
    floating-point operations as in the engine's ``DictionaryState``, so
    the two must agree byte for byte.
    """

    def __init__(self):
        self.gram = np.zeros((0, 0))
        self.inv = np.zeros((0, 0))

    def admit(self, coeffs, delta, kvec):
        m = len(self.inv)
        gram = np.empty((m + 1, m + 1))
        gram[:m, :m] = self.gram
        gram[m, :m] = kvec
        gram[:m, m] = kvec
        gram[m, m] = 1.0
        inv = np.empty((m + 1, m + 1))
        if m == 0:
            inv[0, 0] = 1.0
        else:
            inv[:m, :m] = self.inv + np.outer(coeffs, coeffs) / delta
            edge = -coeffs / delta
            inv[:m, m] = edge
            inv[m, :m] = edge
            inv[m, m] = 1.0 / delta
        self.gram, self.inv = gram, inv

    def remove(self, index):
        keep = [i for i in range(len(self.inv)) if i != index]
        q = self.inv[index, index]
        u = self.inv[keep, index]
        self.gram = self.gram[np.ix_(keep, keep)]
        if abs(q) < 1e-12:
            self.inv = np.linalg.inv(self.gram)
        else:
            self.inv = self.inv[np.ix_(keep, keep)] - np.outer(u, u) / q


class ArrayStandardizer:
    """Welford running mean/variance as whole-array numpy float64 updates,
    the form the package's per-channel float version must match bit for bit."""

    def __init__(self, dim, warmup, var_floor):
        self.dim = dim
        self.warmup = warmup
        self.var_floor = var_floor
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def variance(self) -> np.ndarray:
        if self.count < 2:
            return np.full(self.dim, self.var_floor)
        return np.maximum(self._m2 / (self.count - 1), self.var_floor)

    def push(self, values) -> np.ndarray | None:
        """The frame's z-scores, or None for a warm-up frame."""
        values = np.asarray(values, dtype=float)
        self.count += 1
        delta = values - self.mean
        self.mean = self.mean + delta / self.count
        self._m2 = self._m2 + delta * (values - self.mean)
        if self.count <= self.warmup:
            return None
        return (values - self.mean) / np.sqrt(self.variance())
