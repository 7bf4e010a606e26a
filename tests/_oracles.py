"""Self-contained dense reference computations for the test suite.

Everything here is deliberately independent of the package's recursive
update path: kernels are re-implemented inline, Gram matrices are formed
explicitly, and linear systems are solved densely.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_kernel(x, y, sigma) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sq = float(np.sum((x - y) ** 2))
    return math.exp(-sq / (2.0 * sigma * sigma))


def oracle_gram(basis, sigma) -> np.ndarray:
    """Explicit Gram matrix from all pairwise differences at once."""
    if len(basis) == 0:
        return np.zeros((0, 0))
    points = np.array(basis, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.exp(-np.sum(diff**2, axis=-1) / (2.0 * sigma * sigma))


def oracle_inverse(basis, sigma) -> np.ndarray:
    if len(basis) == 0:
        return np.zeros((0, 0))
    return np.linalg.inv(oracle_gram(basis, sigma))


def oracle_delta(basis, x, sigma) -> tuple[float, np.ndarray]:
    """Projection error via an explicit dense solve: delta = 1 - k^T a."""
    if len(basis) == 0:
        return 1.0, np.zeros(0)
    kvec = np.array([oracle_kernel(b, x, sigma) for b in basis])
    coeffs = np.linalg.solve(oracle_gram(basis, sigma), kvec)
    delta = 1.0 - float(kvec @ coeffs)
    return max(delta, 0.0), coeffs


class ReferenceDetector:
    """Plain replay of the full detector semantics for differential testing.

    Deliberately shares nothing with the engine implementation: vectors live
    in Python lists, every projection is a fresh dense solve, trackers are
    dicts. Slow but obvious.
    """

    def __init__(self, nu1, nu2, ell, sigma, lam, d_similar, epsilon_frac,
                 prune_period, usage_floor, max_size):
        self.nu1 = nu1
        self.nu2 = nu2
        self.ell = ell
        self.sigma = sigma
        self.lam = lam
        self.d_similar = d_similar
        self.quota = math.ceil(epsilon_frac * ell)
        self.prune_period = prune_period
        self.usage_floor = usage_floor
        self.max_size = max_size
        self.points: list[np.ndarray] = []
        self.usage: list[float] = []
        self.trackers: list[dict] = []
        self.steps = 0

    def _score(self, x):
        delta, coeffs = oracle_delta(self.points, x, self.sigma)
        self.usage = [u * self.lam for u in self.usage]
        return delta, coeffs

    def _credit(self, coeffs):
        self.usage = [u + abs(c) for u, c in zip(self.usage, coeffs)]

    def _drop_row(self, row):
        del self.points[row]
        del self.usage[row]
        for tr in self.trackers:
            if tr["row"] > row:
                tr["row"] -= 1

    def _prune(self, force=False):
        tracked = {tr["row"] for tr in self.trackers}
        victims = [
            i
            for i in range(len(self.points))
            if i not in tracked and self.usage[i] < self.usage_floor
        ]
        if force and not victims:
            free = [i for i in range(len(self.points)) if i not in tracked]
            victims = [min(free, key=lambda i: (self.usage[i], i))]
        for row in sorted(victims, reverse=True):
            self._drop_row(row)

    def _append(self, x):
        if len(self.points) >= self.max_size:
            self._prune(force=True)
        self.points.append(np.asarray(x, dtype=float))
        self.usage.append(0.0)
        return len(self.points) - 1

    def warm(self, x, t):
        delta, coeffs = self._score(x)
        if delta >= self.nu1:
            self._append(x)
        else:
            self._credit(coeffs)
        self.steps += 1

    def step(self, x, t):
        """Returns [(kind, at_timestep, delta, resolves_timestep), ...]."""
        x = np.asarray(x, dtype=float)
        out = []
        delta, coeffs = self._score(x)
        if delta < self.nu1:
            out.append(("green", t, delta, None))
            self._credit(coeffs)
        elif delta > self.nu2:
            out.append(("red1", t, delta, None))
        else:
            out.append(("orange", t, delta, None))
            row = self._append(x)
            self.trackers.append(
                {
                    "raised_at": t,
                    "deadline": t + self.ell,
                    "row": row,
                    "delta": delta,
                    "explained": 0,
                    "candidate": x.copy(),
                }
            )
        for tr in self.trackers:
            if tr["raised_at"] < t <= tr["deadline"]:
                if oracle_kernel(tr["candidate"], x, self.sigma) >= self.d_similar:
                    tr["explained"] += 1
        for tr in [tr for tr in self.trackers if t >= tr["deadline"]]:
            self.trackers.remove(tr)
            if tr["explained"] >= self.quota:
                out.append(("green", tr["deadline"], tr["delta"], tr["raised_at"]))
            else:
                out.append(("red2", tr["deadline"], tr["delta"], tr["raised_at"]))
                self._drop_row(tr["row"])
        self.steps += 1
        if self.steps % self.prune_period == 0:
            self._prune()
        return out
