"""Dense KOAD reference: the detector's rules replayed the obvious way.

Ground truth for the engine. The selftest runs it beside the per-frame
chain on the operator's own machine, and the tests and the benchmark's
checks run it too. It shares nothing with the engine's recursive update
path: it imports nothing from ``engine.py``, every kernel value comes from
``kernels.kernel_eval`` (one call per pair, which no engine path makes),
every Gram matrix is formed explicitly, entry by entry, and every
projection is a fresh dense solve. Slow but obvious. ``import vitalwatch``
does not import it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import kernel_eval


def oracle_gram(basis, sigma) -> np.ndarray:
    """Explicit Gram matrix of the basis rows, one ``kernel_eval`` per entry."""
    gram = [[kernel_eval(a, b, sigma) for b in basis] for a in basis]
    return np.array(gram, dtype=float).reshape(len(basis), len(basis))


def oracle_delta(basis, x, sigma, gram=None) -> tuple[float, np.ndarray]:
    """Projection error via an explicit dense solve: delta = 1 - k^T a.
    ``gram``, if given, is the basis's ``oracle_gram``, kept by the caller."""
    if len(basis) == 0:
        return 1.0, np.zeros(0)
    kvec = np.array([kernel_eval(b, x, sigma) for b in basis])
    gram = oracle_gram(basis, sigma) if gram is None else gram
    coeffs = np.linalg.solve(gram, kvec)
    delta = 1.0 - float(kvec @ coeffs)
    return max(delta, 0.0), coeffs


class ReferenceDetector:
    """Plain replay of the full detector semantics for differential testing.

    Vectors live in Python lists, the Gram matrix is a list of rows that an
    admission borders with its ``kernel_eval`` values and a removal drops a
    row and a column from, every projection is a fresh dense solve, and
    trackers are dicts. ``warm`` trains on one arrival; ``step`` scores one.
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
        self.gram: list[list[float]] = []
        self.usage: list[float] = []
        self.trackers: list[dict] = []
        self.steps = 0

    def _score(self, x):
        delta, coeffs = oracle_delta(self.points, x, self.sigma, np.array(self.gram))
        self.usage = [u * self.lam for u in self.usage]
        return delta, coeffs

    def _credit(self, coeffs):
        self.usage = [u + abs(c) for u, c in zip(self.usage, coeffs)]

    def _drop_row(self, row):
        del self.points[row]
        del self.usage[row]
        del self.gram[row]
        for kept in self.gram:
            del kept[row]
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
        x = np.asarray(x, dtype=float)
        for kept, point in zip(self.gram, self.points):
            kept.append(kernel_eval(point, x, self.sigma))
        self.points.append(x)
        self.gram.append([kernel_eval(x, point, self.sigma) for point in self.points])
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
                if kernel_eval(tr["candidate"], x, self.sigma) >= self.d_similar:
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
