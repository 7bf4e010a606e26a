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
neither reallocates. A full re-inversion fallback guards against numerical
drift. Each arrival costs one kernel vector against the basis: an open Orange
tracker's candidate is itself a basis row, so its similarity to the arrival
is read from that vector rather than evaluated again.
Per-element usage statistics decay geometrically (factor ``lam``) every step
and are credited with |a_j| on Green steps; pruning evicts elements whose
usage falls below a floor, keeping the basis current.

A fresh engine must be seeded before live scoring: from an empty dictionary
every arrival has delta = 1 > nu2 and would alarm Red1 forever without ever
being admitted. ``warm_start`` runs admission-only training steps (no
verdicts) to build the initial dictionary, mirroring a supervised training
window.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .kernels import KernelSpec, gram_matrix, kernel_vector
# Not called here; imported so that perfbench's tracer can wrap
# vitalwatch.engine.kernel_eval and count its calls per step.
from .kernels import kernel_eval  # noqa: F401

SNAPSHOT_FORMAT = "vitalwatch-engine-snapshot"
SNAPSHOT_VERSION = 2

# Frobenius tolerance for inv_gram * gram vs identity before a full rebuild.
CONSISTENCY_TOL = 1e-6
# delta more negative than this signals inverse drift, not roundoff.
ROUNDOFF_TOL = 1e-9


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
    sigma: float = 1.0
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
    """Sparsified basis with an incrementally maintained inverse Gram matrix.

    Storage is preallocated to max_size: basis, inverse Gram and usage live
    in fixed buffers of which the leading m rows (and columns) are active.
    ``basis``, ``inv_gram`` and ``usage`` are views of that active block;
    they alias the buffers, so a caller that keeps one across an admission
    or removal must copy it. Assigning ``basis`` sets the active size, so
    ``inv_gram`` and ``usage`` are assigned after it.

    Invariant (checkable on demand): inv_gram @ gram(basis) == identity
    within 1e-6 Frobenius norm. Admission and removal both cost O(m^2) and
    never reallocate the storage.
    """

    def __init__(self, spec: KernelSpec, dim: int, max_size: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.spec = spec
        self.dim = dim
        self.max_size = max_size
        self.timesteps: list[int] = []
        self._m = 0
        self._basis = np.zeros((max_size, dim))
        self._inv = np.zeros((max_size, max_size))
        self._usage = np.zeros(max_size)

    @property
    def size(self) -> int:
        return self._m

    @property
    def basis(self) -> np.ndarray:
        return self._basis[: self._m]

    @basis.setter
    def basis(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).reshape(-1, self.dim)
        if len(value) > self.max_size:
            raise ValueError(f"{len(value)} basis rows exceed max_size {self.max_size}")
        self._m = len(value)
        self._basis[: self._m] = value

    @property
    def inv_gram(self) -> np.ndarray:
        return self._inv[: self._m, : self._m]

    @inv_gram.setter
    def inv_gram(self, value: np.ndarray) -> None:
        m = self._m
        self._inv[:m, :m] = np.reshape(value, (m, m))

    @property
    def usage(self) -> np.ndarray:
        return self._usage[: self._m]

    @usage.setter
    def usage(self, value: np.ndarray) -> None:
        self._usage[: self._m] = np.reshape(value, self._m)

    def admit(self, x: MeasurementVector, coeffs: np.ndarray, delta: float) -> int:
        """Grow the basis by one vector using the block-inverse identity.

        (coeffs, delta) must come from projection_error against the current
        basis; delta == 0 means linear dependence and is a caller bug.
        """
        if delta <= 0.0:
            raise ValueError(f"admission requires delta > 0, got {delta}")
        m = self._m
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
        self._basis[m] = x.values
        self._usage[m] = 0.0
        self.timesteps.append(x.timestep)
        self._m = m + 1
        return m

    def remove(self, index: int) -> None:
        """Shrink the basis by one vector via the Schur-complement downdate.

        Later rows and columns shift down by one in place; the buffers'
        rows past the new size are stale and never read.
        """
        m = self._m
        if not 0 <= index < m:
            raise IndexError(f"index {index} out of range for dictionary of size {m}")
        last = m - 1
        inv = self._inv
        q = inv[index, index]
        inv[index:last, :m] = inv[index + 1 : m, :m]
        u = inv[:last, index].copy()  # the removed column, without its pivot
        inv[:last, index:last] = inv[:last, index + 1 : m]
        self._basis[index:last] = self._basis[index + 1 : m]
        self._usage[index:last] = self._usage[index + 1 : m]
        del self.timesteps[index]
        self._m = last
        if abs(q) < 1e-12:
            # Degenerate pivot: the maintained inverse has drifted too far.
            self.refresh_inverse()
        else:
            inv[:last, :last] -= np.outer(u, u) / q

    def gram(self) -> np.ndarray:
        return gram_matrix(self.spec, self.basis)

    def consistency_error(self) -> float:
        """Frobenius distance of inv_gram @ gram from the identity."""
        m = self.size
        if m == 0:
            return 0.0
        residual = self.inv_gram @ self.gram() - np.eye(m)
        return float(np.linalg.norm(residual))

    def refresh_inverse(self) -> None:
        """Full re-inversion fallback for when incremental updates drift."""
        if self.size == 0:
            return
        try:
            self.inv_gram = np.linalg.inv(self.gram())
        except np.linalg.LinAlgError as exc:
            raise EngineError("dictionary Gram matrix is singular") from exc


class KoadEngine:
    """Per-bed online detector; single-writer, steps applied in timestep order."""

    def __init__(self, dim: int, config: ThresholdConfig | None = None) -> None:
        self.config = config or ThresholdConfig()
        self.spec = KernelSpec(self.config.sigma)
        self.dictionary = DictionaryState(self.spec, dim, self.config.max_size)
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
        if values.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {values.shape}")
        dictionary = self.dictionary
        if dictionary.size == 0:
            self._kvec = np.zeros(0)
            return 1.0, np.zeros(0)
        self._kvec = kvec = kernel_vector(self.spec, dictionary.basis, values)
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
        cfg = self.config
        delta, coeffs = self.projection_error(values)
        usage = self.dictionary.usage
        usage *= cfg.lam
        if delta >= cfg.nu1:
            if self.dictionary.size >= cfg.max_size:
                self._force_room()
                delta, coeffs = self.projection_error(values)
            self.dictionary.admit(x, coeffs, delta)
        else:
            usage += np.abs(coeffs)
        self._advance(x.timestep)

    def step(self, x: MeasurementVector) -> tuple[Verdict, list[Verdict]]:
        """Score one arrival; returns the immediate verdict plus any Orange
        resolutions that fell due at this timestep."""
        values = self._checked(x)
        t = x.timestep
        cfg = self.config
        delta, coeffs = self.projection_error(values)

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
            admit_delta, admit_coeffs = delta, coeffs
            if self.dictionary.size >= cfg.max_size:
                self._force_room()
                # Projection changed with the basis; recompute before admit.
                admit_delta, admit_coeffs = self.projection_error(values)
            idx = self.dictionary.admit(x, admit_coeffs, admit_delta)
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

    def _force_room(self) -> None:
        if not self.prune_dictionary(force=True):
            raise EngineError("forced prune failed to free a dictionary slot")

    def _checked(self, x: MeasurementVector) -> np.ndarray:
        values = x.values  # already a float array: MeasurementVector converts
        if values.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {values.shape}")
        if not np.isfinite(values).all():
            raise EngineError(
                f"non-finite component at timestep {x.timestep}; "
                "validity checking should reject such frames upstream"
            )
        if self.last_timestep is not None and x.timestep <= self.last_timestep:
            raise EngineError(
                f"timesteps must be strictly increasing: {x.timestep} after {self.last_timestep}"
            )
        return values

    def _advance(self, timestep: int) -> None:
        self.last_timestep = timestep
        self.steps_seen += 1

    # -- snapshots --------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Versioned, JSON-serializable state for restart/resume."""
        cfg = self.config
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "dim": self.dim,
            "config": {
                "nu1": cfg.nu1,
                "nu2": cfg.nu2,
                "ell": cfg.ell,
                "sigma": cfg.sigma,
                "lambda": cfg.lam,
                "d_similar": cfg.d_similar,
                "epsilon_frac": cfg.epsilon_frac,
                "prune_period": cfg.prune_period,
                "usage_floor": cfg.usage_floor,
                "max_size": cfg.max_size,
            },
            "steps_seen": self.steps_seen,
            "last_timestep": self.last_timestep,
            "basis": self.dictionary.basis.tolist(),
            "basis_timesteps": list(self.dictionary.timesteps),
            "inv_gram": self.dictionary.inv_gram.tolist(),
            "usage": self.dictionary.usage.tolist(),
            "trackers": [
                {
                    "raised_at": tr.raised_at,
                    "deadline": tr.deadline,
                    "dict_index": tr.dict_index,
                    "delta": tr.delta,
                    "explained_count": tr.explained_count,
                }
                for tr in self.trackers
            ],
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "KoadEngine":
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise EngineError(f"not an engine snapshot: {snapshot.get('format')!r}")
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise EngineError(f"unsupported snapshot version: {snapshot.get('version')!r}")
        cfg = snapshot["config"]
        config = ThresholdConfig(
            nu1=cfg["nu1"],
            nu2=cfg["nu2"],
            ell=cfg["ell"],
            sigma=cfg["sigma"],
            lam=cfg["lambda"],
            d_similar=cfg["d_similar"],
            epsilon_frac=cfg["epsilon_frac"],
            prune_period=cfg["prune_period"],
            usage_floor=cfg["usage_floor"],
            max_size=cfg["max_size"],
        )
        engine = cls(snapshot["dim"], config)
        dictionary = engine.dictionary
        dictionary.basis = snapshot["basis"]  # sets the active size first
        dictionary.timesteps = [int(t) for t in snapshot["basis_timesteps"]]
        dictionary.inv_gram = np.array(snapshot["inv_gram"], dtype=float)
        dictionary.usage = np.array(snapshot["usage"], dtype=float)
        engine.steps_seen = int(snapshot["steps_seen"])
        last = snapshot["last_timestep"]
        engine.last_timestep = None if last is None else int(last)
        for tr in snapshot["trackers"]:
            engine.trackers.append(
                OrangeTracker(
                    raised_at=int(tr["raised_at"]),
                    deadline=int(tr["deadline"]),
                    dict_index=int(tr["dict_index"]),
                    delta=float(tr["delta"]),
                    explained_count=int(tr["explained_count"]),
                )
            )
        return engine

    def save_snapshot(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_snapshot()), encoding="utf-8")

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "KoadEngine":
        return cls.from_snapshot(json.loads(Path(path).read_text(encoding="utf-8")))
