"""Online kernel anomaly detector with a two-threshold alarm state machine.

Each arrival x_t is scored by its projection error delta onto the span of a
sparsified dictionary of past vectors (evaluated entirely through the kernel
trick). The score drives four alarm outcomes:

* delta < nu1          -> Green: linearly dependent on the dictionary, normal.
* delta > nu2          -> Red1: immediate anomaly; the vector is NOT admitted,
                          so anomalies never contaminate the model of normality.
* nu1 <= delta <= nu2  -> Orange: unusual but possibly a migration of normality.
                          The vector is provisionally admitted and tracked; ell
                          steps later the tracker resolves into Green (kept) or
                          Red2 (anomaly confirmed, vector evicted).

The inverse Gram matrix of the dictionary is maintained incrementally: a
block-inverse update on admission and a Schur-complement downdate on removal,
both O(m^2) and written in place into storage preallocated to max_size, so
neither reallocates. The Gram matrix itself is kept beside the inverse, its
entries taken from the kernel vectors computed at admission, so the periodic
consistency check evaluates no kernel. A full re-inversion fallback guards
against numerical drift. Each arrival costs one kernel vector against the
basis: an open Orange tracker's candidate is itself a basis row, so its
similarity to the arrival is read from that vector rather than evaluated
again.
Per-element usage statistics decay geometrically (factor ``lam``) every step
and are credited with |a_j| on Green steps; pruning evicts elements whose
usage falls below a floor, keeping the basis current.

A fresh engine must be seeded before live scoring: from an empty dictionary
every arrival has delta = 1 > nu2 and would alarm Red1 forever without ever
being admitted. ``warm_start`` runs admission-only training steps (no
verdicts) to build the initial dictionary, mirroring a supervised training
window. ``feed`` is that whole loop for one arrival: it warm-starts while
fewer than ``train_steps`` arrivals have been seen and scores with ``step``
after. ``feed_run`` is the same loop over a whole run known in advance (the
tuner's detector pass): it computes the kernel rows of up to ``BLOCK``
arrivals against the basis in one call and scores them in order through the
scorer ``step`` uses, with verdicts bitwise equal to one ``feed`` per
arrival. Replay and monitor feed one arrival at a time, since a live bed
has no lookahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernels import kernel_vector
# Not called here; imported so that perfbench's tracer can wrap
# vitalwatch.engine.kernel_eval and count its calls per step.
from .kernels import kernel_eval  # noqa: F401

# Frobenius tolerance for inv_gram * gram vs identity before a full rebuild.
CONSISTENCY_TOL = 1e-6
# delta more negative than this signals inverse drift, not roundoff.
ROUNDOFF_TOL = 1e-9
# Arrivals whose kernel rows feed_run computes in one kernel_vector call. A
# change to the dictionary ends a block early; on the benchmark's tune
# streams 2.5 % of scored steps change it at sigma = 2.5, 15-18 % at 1.0 and
# 1.5. Block lengths of 8 and 32 measured no better.
BLOCK = 16


class EngineError(Exception):
    """Engine misuse or an unrecoverable internal state."""


class DictionaryFullError(EngineError):
    """Admission attempted at capacity; the caller must prune first."""


@dataclass(frozen=True, eq=False)
class MeasurementVector:
    """One timestep's d-dimensional (standardized) vital-sign reading."""

    values: np.ndarray
    timestep: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.timestep < 0:
            raise ValueError(f"timestep must be >= 0, got {self.timestep}")


@dataclass(frozen=True)
class ThresholdConfig:
    """Detector thresholds and subsidiary parameters.

    nu1/nu2 bound the Orange band; ell is the Orange resolution horizon;
    lam is the forgetting factor applied to usage statistics each step.
    d_similar and epsilon_frac operationalize Orange resolution: an arrival
    counts as "explained" by a candidate when their kernel similarity is at
    least d_similar, and the candidate survives when at least
    ceil(epsilon_frac * ell) of the ell subsequent arrivals are explained.
    """

    nu1: float = 0.07
    nu2: float = 0.16
    ell: int = 20
    sigma: float = 2.5
    lam: float = 0.98
    d_similar: float = 0.9
    epsilon_frac: float = 0.2
    prune_period: int = 100
    usage_floor: float = 1e-4
    max_size: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.nu1 < self.nu2:
            raise ValueError(f"need 0 < nu1 < nu2, got nu1={self.nu1}, nu2={self.nu2}")
        if self.nu2 >= 1.0:
            # k(x, x) = 1 caps delta at 1, so Red1 would be unreachable.
            raise ValueError(f"nu2 must be < 1, got {self.nu2}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if not 0.0 < self.d_similar < 1.0:
            raise ValueError(f"d_similar must be in (0, 1), got {self.d_similar}")
        if not 0.0 < self.epsilon_frac < 1.0:
            raise ValueError(f"epsilon_frac must be in (0, 1), got {self.epsilon_frac}")
        if self.prune_period < 1:
            raise ValueError(f"prune_period must be >= 1, got {self.prune_period}")
        if self.usage_floor < 0:
            raise ValueError(f"usage_floor must be >= 0, got {self.usage_floor}")
        if self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")

    @property
    def green_quota(self) -> int:
        """Explained-arrival count an Orange needs to resolve Green."""
        return math.ceil(self.epsilon_frac * self.ell)


class VerdictKind(Enum):
    GREEN = "green"
    ORANGE = "orange"
    RED1 = "red1"
    RED2 = "red2"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one scoring decision.

    resolves_timestep is set only on deferred outcomes (Red2 or the Green
    that closes an Orange) and names the timestep of the original Orange.
    """

    kind: VerdictKind
    at_timestep: int
    delta: float
    resolves_timestep: int | None = None


@dataclass(eq=False)
class OrangeTracker:
    """Bookkeeping for one provisionally admitted vector.

    The vector itself sits in the dictionary at dict_index, so its kernel
    similarity to each later arrival is read from that arrival's kernel
    vector.
    """

    raised_at: int
    deadline: int
    dict_index: int
    delta: float
    explained_count: int = 0


class DictionaryState:
    """Sparsified basis with its Gram matrix and an incrementally maintained
    inverse.

    Storage is preallocated to max_size: basis, Gram matrix, inverse Gram
    and usage live in fixed buffers of which the leading m rows (and
    columns) are active. ``size``, ``basis``, ``inv_gram`` and ``usage`` are
    set on every admission and removal; the arrays are views of the active
    block and alias the buffers, so a caller that keeps one across an
    admission or removal must copy it. ``changes`` counts admissions,
    removals and re-inversions, so a caller holding something computed from
    the dictionary (kernel rows against the basis, say) can tell whether it
    may have gone stale.

    The Gram matrix is kept beside its inverse rather than rebuilt from the
    basis: every entry is a kernel value the caller already computed when
    the later of its two elements was admitted, so ``admit`` takes the
    arrival's kernel vector against the current basis and writes it as the
    new row and column.

    Invariant (checkable on demand): inv_gram @ gram() == identity within
    1e-6 Frobenius norm. Admission and removal both cost O(m^2) and never
    reallocate the storage.
    """

    def __init__(self, dim: int, max_size: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.max_size = max_size
        self.timesteps: list[int] = []
        self._basis = np.zeros((max_size, dim))
        self._gram = np.zeros((max_size, max_size))
        self._inv = np.zeros((max_size, max_size))
        self._usage = np.zeros(max_size)
        self.changes = 0
        self._resize(0)

    def _resize(self, m: int) -> None:
        self.size = m
        self.basis = self._basis[:m]
        self.inv_gram = self._inv[:m, :m]
        self.usage = self._usage[:m]

    def admit(
        self, x: MeasurementVector, coeffs: np.ndarray, delta: float, kvec: np.ndarray
    ) -> int:
        """Grow the basis by one vector using the block-inverse identity.

        (coeffs, delta) must come from projection_error against the current
        basis, and kvec is the kernel vector that projection used; delta == 0
        means linear dependence and is a caller bug.
        """
        if delta <= 0.0:
            raise ValueError(f"admission requires delta > 0, got {delta}")
        m = self.size
        if m >= self.max_size:
            raise DictionaryFullError(
                f"dictionary at capacity ({self.max_size}); prune before admitting"
            )
        inv = self._inv
        if m == 0:
            inv[0, 0] = 1.0  # k(x, x) = 1
        else:
            a = np.asarray(coeffs, dtype=float).reshape(m)
            inv[:m, :m] += np.outer(a, a) / delta
            edge = -a / delta
            inv[:m, m] = edge
            inv[m, :m] = edge
            inv[m, m] = 1.0 / delta
        gram = self._gram
        gram[m, :m] = kvec
        gram[:m, m] = kvec
        gram[m, m] = 1.0
        self._basis[m] = x.values
        self._usage[m] = 0.0
        self.timesteps.append(x.timestep)
        self._resize(m + 1)
        self.changes += 1
        return m

    def remove(self, index: int) -> None:
        """Shrink the basis by one vector via the Schur-complement downdate.

        Later rows and columns shift down by one in place; the buffers'
        rows past the new size are stale and never read.
        """
        m = self.size
        if not 0 <= index < m:
            raise IndexError(f"index {index} out of range for dictionary of size {m}")
        last = m - 1
        gram = self._gram
        gram[index:last, :m] = gram[index + 1 : m, :m]
        gram[:last, index:last] = gram[:last, index + 1 : m]
        inv = self._inv
        q = inv[index, index]
        inv[index:last, :m] = inv[index + 1 : m, :m]
        u = inv[:last, index].copy()  # the removed column, without its pivot
        inv[:last, index:last] = inv[:last, index + 1 : m]
        self._basis[index:last] = self._basis[index + 1 : m]
        self._usage[index:last] = self._usage[index + 1 : m]
        del self.timesteps[index]
        self._resize(last)
        self.changes += 1
        if abs(q) < 1e-12:
            # Degenerate pivot: the maintained inverse has drifted too far.
            self.refresh_inverse()
        else:
            inv[:last, :last] -= np.outer(u, u) / q

    def gram(self) -> np.ndarray:
        """The kept Gram matrix of the basis (a view of the active block)."""
        return self._gram[: self.size, : self.size]

    def consistency_error(self) -> float:
        """Frobenius distance of inv_gram @ gram from the identity."""
        m = self.size
        if m == 0:
            return 0.0
        residual = (self.inv_gram @ self.gram()).ravel()
        residual[:: m + 1] -= 1.0  # minus the identity
        return math.sqrt(residual @ residual)

    def refresh_inverse(self) -> None:
        """Full re-inversion fallback for when incremental updates drift."""
        if self.size == 0:
            return
        try:
            self.inv_gram[...] = np.linalg.inv(self.gram())
        except np.linalg.LinAlgError as exc:
            raise EngineError("dictionary Gram matrix is singular") from exc
        self.changes += 1


class KoadEngine:
    """Per-bed online detector; single-writer, steps applied in timestep order."""

    def __init__(self, dim: int, config: ThresholdConfig | None = None) -> None:
        self.config = config or ThresholdConfig()
        self.dictionary = DictionaryState(dim, self.config.max_size)
        self.trackers: list[OrangeTracker] = []
        self.steps_seen = 0
        self.last_timestep: int | None = None
        # Kernel vector of the latest projection, entry j against basis row j.
        self._kvec = np.zeros(0)

    @property
    def dim(self) -> int:
        return self.dictionary.dim

    # -- scoring ---------------------------------------------------------

    def projection_error(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """delta = 1 - k~^T a with a = inv_gram @ k~; empty dictionary -> 1.

        Negative deltas within roundoff clamp to zero; anything more negative
        triggers the full re-inversion fallback and a single recompute.
        """
        values = np.asarray(values, dtype=float)
        self._check_width(values.shape)
        return self._project(values)

    def _project(
        self, values: np.ndarray, kvec: np.ndarray | None = None
    ) -> tuple[float, np.ndarray]:
        """projection_error without the input check. kvec, when given, is
        the arrival's kernel vector against the current basis; it is kept as
        ``_kvec`` for the admission and tracker reads that follow."""
        dictionary = self.dictionary
        if kvec is None:
            kvec = kernel_vector(dictionary.basis, values, self.config.sigma)
        self._kvec = kvec
        if dictionary.size == 0:
            return 1.0, kvec  # the empty basis explains nothing
        coeffs = dictionary.inv_gram @ kvec
        delta = 1.0 - float(kvec @ coeffs)
        if delta < -ROUNDOFF_TOL:
            dictionary.refresh_inverse()
            coeffs = dictionary.inv_gram @ kvec
            delta = 1.0 - float(kvec @ coeffs)
        return max(delta, 0.0), coeffs

    # -- lifecycle -------------------------------------------------------

    def warm_start(self, x: MeasurementVector) -> None:
        """Admission-only training step: build the dictionary, emit nothing.

        Vectors at least nu1-novel are admitted (the same closed-band edge as
        Orange admission); the rest credit usage like a Green arrival.
        """
        values = self._checked(x)
        delta, coeffs = self._project(values)
        self._train(values, x.timestep, delta, coeffs)

    def feed(self, x: MeasurementVector, train_steps: int) -> list[Verdict]:
        """One arrival of the train-then-score loop: the first
        ``train_steps`` arrivals warm-start silently, later ones are scored.
        Returns the verdicts in emission order (immediate, then resolutions).
        """
        if self.steps_seen < train_steps:
            self.warm_start(x)
            return []
        immediate, resolutions = self.step(x)
        return [immediate, *resolutions]

    def feed_run(
        self, vectors: np.ndarray, timesteps: list[int], train_steps: int
    ) -> list[Verdict]:
        """``feed`` over a whole run, row i arriving at timesteps[i]; returns
        every verdict in emission order, bitwise equal to one ``feed`` call
        per row.

        The run is checked whole before any row is used, and a bad row
        raises what ``feed`` would raise on reaching it. The kernel rows of
        up to BLOCK arrivals against the basis come from one
        ``kernel_vector`` call; an arrival that changes the dictionary ends
        its block, and the rows computed for the arrivals after it are
        dropped, so every arrival is scored against the basis its row was
        computed from.
        """
        vectors = np.asarray(vectors, dtype=float)
        self._check_run(vectors, timesteps)
        dictionary = self.dictionary
        sigma = self.config.sigma
        out: list[Verdict] = []
        start = 0
        while start < len(vectors):
            block = vectors[start : start + BLOCK]
            rows = kernel_vector(dictionary.basis, block, sigma)
            changes = dictionary.changes
            for values, kvec, t in zip(block, rows, timesteps[start : start + BLOCK]):
                start += 1
                delta, coeffs = self._project(values, kvec)
                if self.steps_seen < train_steps:
                    self._train(values, t, delta, coeffs)
                else:
                    immediate, resolutions = self._score(values, t, delta, coeffs)
                    out.append(immediate)
                    out += resolutions
                if dictionary.changes != changes:
                    break
        return out

    def step(self, x: MeasurementVector) -> tuple[Verdict, list[Verdict]]:
        """Score one arrival; returns the immediate verdict plus any Orange
        resolutions that fell due at this timestep."""
        values = self._checked(x)
        delta, coeffs = self._project(values)
        return self._score(values, x.timestep, delta, coeffs)

    def _train(self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray) -> None:
        """warm_start's update for an arrival just projected."""
        cfg = self.config
        usage = self.dictionary.usage
        usage *= cfg.lam
        if delta >= cfg.nu1:
            self._admit(values, t, delta, coeffs)
        else:
            usage += np.abs(coeffs)
        self._advance(t)

    def _score(
        self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray
    ) -> tuple[Verdict, list[Verdict]]:
        """The verdict logic of ``step`` for an arrival just projected: the
        one scorer behind ``step`` and ``feed_run``."""
        cfg = self.config

        # An open tracker's candidate is basis row dict_index, so its
        # similarity to x is already in the kernel vector. Count before the
        # Orange branch: a forced prune there shifts dict_index.
        kvec = self._kvec
        for tracker in self.trackers:
            if tracker.raised_at < t <= tracker.deadline:
                if kvec[tracker.dict_index] >= cfg.d_similar:
                    tracker.explained_count += 1

        usage = self.dictionary.usage
        usage *= cfg.lam
        if delta < cfg.nu1:
            immediate = Verdict(VerdictKind.GREEN, t, delta)
            usage += np.abs(coeffs)
        elif delta > cfg.nu2:
            # Anomaly: never admitted, dictionary basis untouched.
            immediate = Verdict(VerdictKind.RED1, t, delta)
        else:
            immediate = Verdict(VerdictKind.ORANGE, t, delta)
            idx = self._admit(values, t, delta, coeffs)
            self.trackers.append(
                OrangeTracker(
                    raised_at=t,
                    deadline=t + cfg.ell,
                    dict_index=idx,
                    delta=delta,
                )
            )

        resolutions = [
            self._resolve(tracker)
            for tracker in list(self.trackers)
            if t >= tracker.deadline
        ]

        self._advance(t)
        if self.steps_seen % cfg.prune_period == 0:
            if self.dictionary.consistency_error() > CONSISTENCY_TOL:
                self.dictionary.refresh_inverse()
            self.prune_dictionary()
        return immediate, resolutions

    def _resolve(self, tracker: OrangeTracker) -> Verdict:
        """Close an Orange at its deadline: keep the candidate or evict it."""
        self.trackers.remove(tracker)
        t = tracker.deadline
        if tracker.explained_count >= self.config.green_quota:
            return Verdict(VerdictKind.GREEN, t, tracker.delta, tracker.raised_at)
        self._remove_element(tracker.dict_index)
        return Verdict(VerdictKind.RED2, t, tracker.delta, tracker.raised_at)

    def _remove_element(self, index: int) -> None:
        self.dictionary.remove(index)
        for tracker in self.trackers:
            if tracker.dict_index == index:
                raise EngineError("removed an element still under an open tracker")
            if tracker.dict_index > index:
                tracker.dict_index -= 1

    def prune_dictionary(self, force: bool = False) -> list[int]:
        """Evict elements whose usage fell below the floor.

        Elements under an open tracker are never evicted. With ``force`` (used
        when admission hits capacity) and nothing below the floor, the single
        least-used unprotected element goes instead (ties: lowest index).
        Returns the pre-removal indices of evicted elements.
        """
        usage = self.dictionary.usage
        free = np.ones(len(usage), dtype=bool)
        free[[tracker.dict_index for tracker in self.trackers]] = False
        removed = np.flatnonzero(free & (usage < self.config.usage_floor)).tolist()
        if force and not removed:
            if not free.any():
                raise EngineError(
                    "every dictionary element is under an open tracker; "
                    "max_size must exceed the plausible number of open trackers"
                )
            # argmin returns the first minimum: ties go to the lowest index.
            removed = [int(np.argmin(np.where(free, usage, np.inf)))]
        for index in reversed(removed):
            self._remove_element(index)
        return removed

    def _admit(self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray) -> int:
        """Admit the arrival at t, whose (delta, coeffs) were just projected;
        at capacity, force a prune first and project again, since the basis
        changed. Returns its index in the dictionary."""
        if self.dictionary.size >= self.config.max_size:
            if not self.prune_dictionary(force=True):
                raise EngineError("forced prune failed to free a dictionary slot")
            delta, coeffs = self._project(values)
        return self.dictionary.admit(MeasurementVector(values, t), coeffs, delta, self._kvec)

    # -- input checks ----------------------------------------------------

    def _check_width(self, shape: tuple[int, ...]) -> None:
        if shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {shape}")

    def _checked(self, x: MeasurementVector) -> np.ndarray:
        values = x.values  # already a float array: MeasurementVector converts
        self._check_width(values.shape)
        _check_arrival(all(map(math.isfinite, values.tolist())), x.timestep, self.last_timestep)
        return values

    def _check_run(self, vectors: np.ndarray, timesteps: list[int]) -> None:
        """The checks ``feed`` makes on each arrival, made on a whole run at
        once before any of it is scored: the first bad row raises what
        ``feed`` would raise on reaching it."""
        if len(timesteps) != len(vectors):
            raise ValueError("timesteps and vectors must have equal length")
        if not len(vectors):
            return
        self._check_width(vectors.shape[1:])
        finite = np.isfinite(vectors).all(axis=1)
        # Each timestep must exceed the one before it; the first, the
        # engine's last or, on a fresh engine, -1.
        steps = np.asarray(timesteps)
        first = -1 if self.last_timestep is None else self.last_timestep
        good = finite & (steps > np.concatenate(([first], steps[:-1])))
        if good.all():
            return
        i = int(np.argmin(good))
        t = timesteps[i]
        if t < 0:  # what MeasurementVector refuses
            raise ValueError(f"timestep must be >= 0, got {t}")
        _check_arrival(bool(finite[i]), t, timesteps[i - 1] if i else self.last_timestep)

    def _advance(self, timestep: int) -> None:
        self.last_timestep = timestep
        self.steps_seen += 1


def _check_arrival(finite: bool, t: int, last: int | None) -> None:
    """Refuse an arrival at timestep t, after one at last, that has a
    non-finite component or comes out of order."""
    if not finite:
        raise EngineError(
            f"non-finite component at timestep {t}; "
            "validity checking should reject such frames upstream"
        )
    if last is not None and t <= last:
        raise EngineError(f"timesteps must be strictly increasing: {t} after {last}")
