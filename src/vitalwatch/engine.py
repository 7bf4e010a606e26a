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
neither reallocates. Each update's rank-1 term runs over whole contiguous
rows of the buffer with the vector zero-padded, which gives every active
entry the textbook operations and adds +-0 to the stale columns. The Gram
matrix itself is kept beside the inverse, in one shared buffer, its entries
taken from the kernel vectors computed at admission, so the periodic
consistency check evaluates no kernel. A full re-inversion fallback guards
against numerical drift. Each arrival costs one kernel vector against the
basis, passed as an argument from the projection to the scorer and the
admission: an open Orange tracker's candidate is itself a basis row, so its
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
tuner's detector pass): it computes the kernel rows of ``BLOCK`` arrivals
against the basis in one call and scores them in order through the scorer
``step`` uses, with verdicts bitwise equal to one ``feed`` per arrival. A
dictionary change inside a block is one element in or out, so the block's
rows are patched rather than recomputed: a removal deletes its column, and
an admission adds the admitted arrival's column, its kernel values against
the block's later arrivals. An arrival that forces a prune at capacity, on
either path, takes its row against the pruned basis by deleting the evicted
columns from its own, so no arrival's row against the basis is computed
twice. The walk also projects a block's rows at once, one stacked
matrix-vector product and one stacked dot for all of them, each row bitwise
the one-row result; the stacked projections hold until the dictionary first
changes inside the block, and the arrivals after that change are projected
one at a time. A quiet arrival, Green or Red1 from the stacked projection
with no tracker open and no prune due, is scored inline by the walk: the
usage decay, a Green's credit and the verdict, with no call to the scorer.
The walk (``_walk``) is a generator that can pause after any arrival:
``feed_run`` runs it to each block's end without pausing, and
``feed_recording``, a generator that pulls a recording's frames one at a
time (a replay at speedup = inf, through ``BedPipeline.feed_recording``),
resumes the block's paused walk once per frame taken, so that a frame's
turn neither sets the walk up again nor re-reads its state, and hands each
frame back in order, with the block buffers, their loading and the frames
not yet handed back its own. A paced replay and monitor feed one arrival
at a time, since a live bed has no lookahead.
An arrival has one way in: one conversion (``_as_row``) for every entry
point, and one order key (``_order_keys``) that passes a walk's clean
arrivals with one compare each. Every other arrival goes through
``feed``'s check (``_checked``) at its turn, so every entry point refuses
a bad arrival alike, with the same type and message at the same arrival,
after scoring the arrivals before it. ``restart`` is the one definition
of a fresh detector: ``__init__`` calls it, ``feed_recording`` calls it
after an arrival that raises ``EngineError`` and goes on walking, and the
pipeline calls it when ``feed`` raises. It empties the engine's one
dictionary and one tracker list in place, so a walk, paused or running,
goes on across a restart at any arrival; only loading the next block
drops a walk, apart from one that died raising.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum

from .kernels import kernel_vector
# Not called here; imported so that perfbench's tracer can wrap
# vitalwatch.engine.kernel_eval and count its calls per step.
from .kernels import kernel_eval  # noqa: F401

# Frobenius tolerance for inv_gram * gram vs identity before a full rebuild.
CONSISTENCY_TOL = 1e-6
# delta more negative than this signals inverse drift, not roundoff.
ROUNDOFF_TOL = 1e-9
# Arrivals whose kernel rows feed_run computes in one kernel_vector call.
# Dictionary changes patch the rows and never end a block. Over the tune
# grid's 18 configs, engine time at 16, 32 and 64 was 0.92, 0.90 and 0.90
# of that of 16-arrival blocks ended by every change; 64 gains nothing more.
BLOCK = 32


class EngineError(Exception):
    """Engine misuse or an unrecoverable internal state."""


class MeasurementVector(NamedTuple):
    """One timestep's (standardized) vital-sign reading, a plain record the
    engine checks; equal and hash-equal only to itself, not by its values.
    The values are any sequence of numbers, such as a float array or the
    screen's list of floats; every entry point converts them by one rule
    (``KoadEngine._as_row``). The screen builds its vectors with
    ``tuple.__new__``, as the engine builds its verdicts (see ``Verdict``)."""

    values: np.ndarray | list[float]
    timestep: int

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


@dataclass(frozen=True)
class ThresholdConfig:
    """Detector thresholds and subsidiary parameters.

    nu1/nu2 bound the Orange band; ell is the Orange resolution horizon;
    lam is the forgetting factor applied to usage statistics each step.
    d_similar and epsilon_frac operationalize Orange resolution: an arrival
    counts as "explained" by a candidate when their kernel similarity is at
    least d_similar, and the candidate survives when at least
    ceil(epsilon_frac * ell) of the arrivals in the ell timesteps after it
    are explained. As in KOAD, ell counts timesteps, not arrivals: flagged
    frames keep their timestep slots, so a gap of flagged frames shortens an
    Orange's window in arrivals.
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
        if not 0 < self.sigma < math.inf:  # an infinite bandwidth sees no change
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
        if not 0.0 < self.d_similar < 1.0:
            raise ValueError(f"d_similar must be in (0, 1), got {self.d_similar}")
        if not 0.0 < self.epsilon_frac < 1.0:
            raise ValueError(f"epsilon_frac must be in (0, 1), got {self.epsilon_frac}")
        if self.prune_period < 1:
            raise ValueError(f"prune_period must be >= 1, got {self.prune_period}")
        if not self.usage_floor >= 0:  # also refuses nan
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


# What an alarm is, as in KOAD: a Red1, or a Red2 (an Orange that ell
# timesteps of evidence did not explain). An Orange is never one: its
# resolution is the verdict that judges it.
ALARM_KINDS = (VerdictKind.RED1, VerdictKind.RED2)

# Module-level names for the kinds the scorer emits: reading one is a
# global lookup, where VerdictKind.GREEN is an Enum class attribute lookup.
_GREEN = VerdictKind.GREEN
_ORANGE = VerdictKind.ORANGE
_RED1 = VerdictKind.RED1
_RED2 = VerdictKind.RED2


class Verdict(NamedTuple):
    """Outcome of one scoring decision; an immutable value, equal and
    hash-equal to another with the same fields.

    resolves_timestep is set only on deferred outcomes (Red2 or the Green
    that closes an Orange) and names the timestep of the original Orange.
    A named tuple because every arrival builds one: it costs about a third
    of a frozen dataclass to create and under half its memory. The engine
    builds its verdicts with ``tuple.__new__(Verdict, (kind, at_timestep,
    delta, resolves_timestep))``, which gives the same value without the
    Python-level ``__new__`` the named tuple generates.
    """

    kind: VerdictKind
    at_timestep: int
    delta: float
    resolves_timestep: int | None = None


_tuple_new = tuple.__new__  # builds a Verdict from its four fields; see Verdict


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
    set on every admission, removal and ``clear``; the arrays are views of
    the active block and alias the buffers, so a caller that keeps one
    across an admission, removal or clear must copy it. A copy (``copy.deepcopy``, pickle)
    rebuilds the views on its own buffers.

    The Gram matrix is kept beside its inverse rather than rebuilt from the
    basis: every entry is a kernel value the caller already computed when
    the later of its two elements was admitted, so ``admit`` takes the
    arrival's kernel vector against the current basis and writes it as the
    new row and column. The two share one (2, max_size, max_size) buffer,
    so a removal shifts the rows of both in one copy and their columns in
    another.

    The rank-1 terms of both updates run over whole rows of the inverse
    buffer, ``[:m]``, which are contiguous where the ``[:m, :m]`` corner is
    not: the vector is padded with zeros to max_size, so each active entry
    gets exactly the textbook c_i c_j / delta (admission) or a_i a_j / q
    (removal, before the shift that drops row and column ``index``), and
    each stale column past m gets +-0. Stale entries are values an earlier,
    larger dictionary held, or the initial zeros, so they stay finite and
    adding +-0 raises no floating-point warning.

    Invariant (checkable on demand): inv_gram @ gram() == identity within
    1e-6 Frobenius norm. Admission and removal both cost O(m^2) and never
    reallocate the storage.

    ``changes`` counts the calls that write the basis or the inverse
    (``admit``, ``remove``, ``refresh_inverse`` and ``clear``) and never
    goes back: a projection made at one count holds while the count stays
    the same.
    """

    def __init__(self, dim: int, max_size: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.max_size = max_size
        self._basis = np.zeros((max_size, dim))
        # The Gram matrix and its inverse in one buffer, so that one copy
        # shifts the rows of both on removal and one shifts their columns.
        self._mats = np.zeros((2, max_size, max_size))
        self._gram, self._inv = self._mats
        self._usage = np.zeros(max_size)
        self.changes = 0
        self.clear()

    def __getstate__(self) -> dict:
        # The buffers without their views: a copy or an unpickled state
        # rebuilds the views on its own buffers in __setstate__, where
        # copied views would be arrays of their own that no update reaches.
        state = self.__dict__.copy()
        for name in ("_gram", "_inv", "basis", "inv_gram", "usage"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._gram, self._inv = self._mats
        self._resize(self.size)

    def clear(self) -> None:
        """Empty the basis in place. The buffers stay, their rows all stale
        (see ``remove``), and ``changes`` moves on, so no projection made
        before is taken as current after."""
        self.timesteps = []
        self.changes += 1
        self._resize(0)

    def _resize(self, m: int) -> None:
        self.size = m
        self.basis = self._basis[:m]
        self.inv_gram = self._inv[:m, :m]
        self.usage = self._usage[:m]

    def admit(
        self,
        values: np.ndarray,
        timestep: int,
        coeffs: np.ndarray,
        delta: float,
        kvec: np.ndarray,
    ) -> int:
        """Grow the basis by the (dim,) vector values, arrived at timestep,
        using the block-inverse identity.

        (coeffs, delta) must come from projection_error against the current
        basis, coeffs an (m,) float array, and kvec is the kernel vector
        that projection used; delta == 0 means linear dependence and is a
        caller bug.
        """
        if delta <= 0.0:
            raise ValueError(f"admission requires delta > 0, got {delta}")
        m = self.size
        if m >= self.max_size:
            raise EngineError(
                f"dictionary at capacity ({self.max_size}); prune before admitting"
            )
        inv = self._inv
        if m == 0:
            inv[0, 0] = 1.0  # k(x, x) = 1
        else:
            # c_i c_j / delta over whole rows: the zero padding adds +-0 to
            # the stale columns past m, and column m is written below. The
            # outer product is c_einsum's, bitwise np.multiply's (a product
            # has no sum) with less dispatch; remove's is built the same way.
            padded = np.zeros(self.max_size)
            padded[:m] = coeffs
            term = c_einsum("i,j->ij", coeffs, padded)
            term /= delta
            inv[:m] += term
            np.divide(coeffs, -delta, out=inv[m, :m])
            inv[:m, m] = inv[m, :m]
            inv[m, m] = 1.0 / delta
        gram = self._gram
        gram[m, :m] = kvec
        gram[:m, m] = kvec
        gram[m, m] = 1.0
        self._basis[m] = values
        self._usage[m] = 0.0
        self.timesteps.append(timestep)
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
        inv = self._inv
        q = inv[index, index]
        degenerate = abs(q) < 1e-12
        if not degenerate:
            # a_i a_j / q over whole rows, before the shift: row and column
            # index leave with it, and the stale columns past m get +-0.
            padded = np.zeros(self.max_size)
            padded[:m] = inv[:m, index]
            term = c_einsum("i,j->ij", padded[:m], padded)
            term /= q
            inv[:m] -= term
        mats = self._mats
        mats[:, index:last] = mats[:, index + 1 : m]
        mats[:, :last, index:last] = mats[:, :last, index + 1 : m]
        self._basis[index:last] = self._basis[index + 1 : m]
        self._usage[index:last] = self._usage[index + 1 : m]
        del self.timesteps[index]
        self._resize(last)
        self.changes += 1
        if degenerate:
            # Degenerate pivot: the maintained inverse has drifted too far.
            self.refresh_inverse()

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
        self.changes += 1
        try:
            self.inv_gram[...] = np.linalg.inv(self.gram())
        except np.linalg.LinAlgError as exc:
            raise EngineError("dictionary Gram matrix is singular") from exc


class KoadEngine:
    """Per-bed online detector; single-writer, steps applied in timestep order."""

    def __init__(self, dim: int, config: ThresholdConfig | None = None) -> None:
        self.config = config or ThresholdConfig()
        self._shape = (dim,)  # an arrival's shape, for _as_row's compare
        self.dictionary = DictionaryState(dim, self.config.max_size)
        self.trackers: list[OrangeTracker] = []
        self.restart()
        # The walk's current block: its arrivals and their timesteps, their
        # kernel rows against the basis (max_size columns each, the leading
        # ones in the dictionary's order), the scored arrival's place in it,
        # the next arrival to score, and a recording walk's paused generator
        # (see _walk). The rows after the scored arrival's are the ones still
        # to be scored; _remove_element and _admit keep them in step with
        # the dictionary. Outside a walk the block is empty.
        self._unload()

    @property
    def dim(self) -> int:
        return self._shape[0]

    def restart(self) -> None:
        """Become a fresh detector in place: the engine's one dictionary
        and one tracker list emptied (``DictionaryState.clear``), no arrival
        seen, so the next arrival trains as a fresh engine's first would.
        A walk, paused between arrivals or inside ``_score``, goes on across
        it from its next arrival: the dictionary's ``changes`` moved on, so
        the block's stacked projection no longer holds, and the rows still
        to come need no kernel call, since the empty basis has no columns
        and ``_admit`` patches each later row as the dictionary grows
        again."""
        self.dictionary.clear()
        self.trackers.clear()
        self.steps_seen = 0
        self.last_timestep = -1  # before any arrival: every timestep >= 0 follows it

    # -- scoring ---------------------------------------------------------

    def projection_error(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """delta = 1 - k~^T a with a = inv_gram @ k~; empty dictionary -> 1.

        Negative deltas within roundoff clamp to zero; anything more negative
        triggers the full re-inversion fallback and a single recompute.
        """
        delta, coeffs, _ = self._project(self._as_row(values))
        return delta, coeffs

    def _project(
        self, values: np.ndarray, kvec: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """projection_error without the input check, returning the kernel
        vector too: kvec, entry j against basis row j, is the arrival's row
        against the current basis, computed here unless given."""
        dictionary = self.dictionary
        if kvec is None:
            kvec = kernel_vector(dictionary.basis, values, self.config.sigma)
        if dictionary.size == 0:
            return 1.0, kvec, kvec  # the empty basis explains nothing
        coeffs = dictionary.inv_gram @ kvec
        # kvec.dot(coeffs) is bitwise kvec @ coeffs and costs about half.
        delta = 1.0 - float(kvec.dot(coeffs))
        if delta >= 0.0:
            return delta, coeffs, kvec
        if delta < -ROUNDOFF_TOL:
            dictionary.refresh_inverse()
            coeffs = dictionary.inv_gram @ kvec
            delta = 1.0 - float(kvec.dot(coeffs))
        return max(delta, 0.0), coeffs, kvec

    # -- lifecycle -------------------------------------------------------

    def warm_start(self, x: MeasurementVector) -> None:
        """Admission-only training step: build the dictionary, emit nothing.

        Vectors at least nu1-novel are admitted (the same closed-band edge as
        Orange admission); the rest credit usage like a Green arrival.
        """
        values = self._checked(x)
        delta, coeffs, kvec = self._project(values)
        self._train(values, x.timestep, delta, coeffs, kvec)

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
        per row, and stops where ``feed`` stops: the first row whose order
        key (``_order_keys``) does not exceed the one before it, or the last
        timestep walked for row 0, goes through ``_checked`` after the rows
        before it are walked, in blocks of BLOCK arrivals: ``_load``
        computes a block's kernel rows, and ``_walk`` scores the block to
        its end. The run's width is ``_as_row``'s test of its first row.
        """
        vectors = np.asarray(vectors, dtype=float)
        if len(timesteps) != len(vectors):
            raise ValueError("timesteps and vectors must have equal length")
        n = len(vectors)
        if n:
            self._as_row(vectors[0])
            keys = self._order_keys(vectors, timesteps)
            refused = np.flatnonzero(keys <= np.append(self.last_timestep, keys[:-1]))
            if len(refused):
                n = int(refused[0])
        rows = np.empty((BLOCK, self.dictionary.max_size))
        out: list[Verdict] = []
        try:
            for start in range(0, n, BLOCK):
                stop = min(start + BLOCK, n)
                self._load(vectors[start:stop], timesteps[start:stop], rows)
                next(self._walk(out, train_steps), None)  # unpaused: to the block's end
        finally:
            self._unload()
        if n < len(vectors):
            self._checked(MeasurementVector(vectors[n], timesteps[n]))
        return out

    def feed_recording(self, frames: Iterable[tuple], train_steps: int) -> Iterator[tuple]:
        """``feed`` over a recording taken one frame at a time, walked in
        blocks of BLOCK arrivals as ``feed_run`` walks a run. ``frames``
        gives one tuple per frame, its arrival or None first; this yields
        one (frame, outcome) pair per frame, in frame order. The outcome is
        the arrival's verdicts, or the ``EngineError`` after which the
        detector restarted and the walk went on, or None for a frame without
        one.

        Each frame taken moves the walk at most one arrival forward, up to
        2 * BLOCK arrivals behind: an arrival goes into the filling block
        when its frame is taken, by one row assignment for a list of the
        engine's width (the screen's z-scores) and through ``_as_row`` for
        anything else, a row of NaN in place of one that ``_as_row``
        refuses. The next block's kernel rows are computed right after the
        current block's last arrival, with its order keys
        (``_order_keys``), so that a clean arrival's turn makes one compare
        with the last arrival walked. An arrival that fails it goes through
        ``_checked``, which refuses it as ``feed`` would, at its turn, after
        every earlier frame is handed back. The block is walked by one
        paused generator (``_walk``), which makes the stacked projection on
        the block's first turn and is resumed once a turn; it goes on
        across a restart. Until the walk ends or is closed, which empties
        the block, nothing else may feed this engine.
        """
        dim = self.dim
        filling, spare = np.empty((BLOCK, dim)), np.empty((BLOCK, dim))
        rows = np.empty((BLOCK, self.config.max_size))
        times: list[int] = []  # the filling block's timesteps
        keys: list[int] = []  # the current block's, from _order_keys
        # The frames taken and not yet handed back; once the frames that are
        # done have been, the head is the next arrival to walk.
        pending: deque[tuple] = deque()
        frames, taking = iter(frames), True
        try:
            while taking or pending:
                frame = next(frames, None) if taking else None
                if frame is not None:
                    x = frame[0]
                    if x is not None:
                        values, n = x.values, len(times)
                        try:
                            if type(values) is list and len(values) == dim:
                                filling[n] = values
                            else:
                                filling[n] = self._as_row(values)
                        except (TypeError, ValueError, OverflowError):
                            filling[n] = math.nan  # refused at its turn; see _order_keys
                        times.append(x.timestep)
                    pending.append(frame)
                taking = frame is not None
                # Move the walk one arrival forward, then load the next block
                # once the current one is walked and the filling one is full
                # or the last.
                i = self._next
                if i < len(keys):
                    head = pending.popleft()
                    try:
                        if keys[i] <= self.last_timestep:
                            self._checked(head[0])
                        walk = self._walking
                        if walk is None:
                            walk = self._walking = self._walk([], train_steps, True)
                        out = next(walk)
                    except EngineError as exc:
                        # the walk died raising, or must not walk arrival i
                        self.restart()
                        self._next, self._walking = i + 1, None
                        out = exc
                    yield head, out
                if self._next == len(keys) and (len(times) == BLOCK or not taking and times):
                    block = filling[: len(times)]
                    self._load(block, times, rows)
                    keys = self._order_keys(block, times).tolist()
                    filling, spare, times = spare, filling, []
                while pending and pending[0][0] is None:
                    yield pending.popleft(), None
        finally:
            self._unload()

    def _order_keys(self, block: np.ndarray, timesteps: list[int]) -> np.ndarray:
        """Each arrival's timestep, or -1 for one with a non-finite
        component: the one test of which arrivals of a walk's block or run
        pass ``feed``'s checks, those whose key exceeds the last timestep
        walked before them (at least -1). The rest go through ``_checked``
        at their turn; a recording's arrival that ``_as_row`` refuses is a
        row of NaN, so its key fails too."""
        return np.where(np.isfinite(block).all(axis=1), timesteps, -1)

    def _load(self, block: np.ndarray, timesteps: list[int], rows: np.ndarray) -> None:
        """Make the (B, dim) ``block``, arriving at ``timesteps``, the walk's
        current block, B <= len(rows): its kernel rows against the basis go
        into ``rows[:B]`` from one ``kernel_vector`` call, kept in a buffer
        of max_size columns. A dictionary change inside the block patches
        the rows of the arrivals still to come (see ``_remove_element`` and
        ``_admit``), so every arrival is scored with the row a fresh call
        against the basis of its turn would give."""
        rows = rows[: len(block)]
        rows[:, : self.dictionary.size] = kernel_vector(
            self.dictionary.basis, block, self.config.sigma
        )
        self._block, self._times, self._rows = block, timesteps, rows
        self._next, self._walking = 0, None

    def _unload(self) -> None:
        """An empty current block: no walk, and no hold on a run's memory."""
        self._block, self._times = np.zeros((0, self.dim)), []
        self._rows = np.zeros((0, self.config.max_size))
        self._at = self._next = 0
        self._walking = None

    def _walk(
        self, out: list[Verdict], train_steps: int, paused: bool = False
    ) -> Iterator[list[Verdict]]:
        """A generator that walks the current block from its next arrival to
        its end, appending every verdict to ``out`` in ``feed``'s order;
        arrivals before ``train_steps`` train. Unpaused, it yields nothing,
        so one ``next`` runs it to the block's end. ``paused``, it yields
        ``out`` after each arrival, and each resumption walks the next one
        into a new list: a recording's walk keeps its place, and the
        block's state, between frames. Unpaused, the loop makes no test per
        arrival for the pause.

        On its first step the walk projects the block's rows at once:
        ``np.matmul`` of the inverse with the stacked rows and ``np.vecdot``
        of the rows with the coefficients, which numpy runs as one
        matrix-vector product and one dot per row, each bitwise
        ``_project``'s. The stacked projections hold while
        ``dictionary.changes`` stays where it was then; from the first
        change on, each arrival to the block's end is projected by
        ``_project``. A negative stacked delta also goes to ``_project``,
        for its clamp and re-inversion rules.

        A quiet arrival takes a lane that does ``_score``'s work inline, in
        ``_score``'s order: the usage decay, a Green's credit (a row of
        ``np.abs`` of the stacked coefficients, taken once per block), the
        verdict and the step count. An arrival is quiet when no tracker is
        open, the engine is past training, the stacked projection holds,
        its delta is at least 0 and below nu1 (Green) or above nu2 (Red1),
        and its step is not a prune step. Every other arrival goes through
        ``_train`` or ``_score``.

        The walk goes on across a restart at any arrival, one inside
        ``_score`` or one between a paused walk's turns: it holds the
        engine's one dictionary and one tracker list, which ``restart``
        empties in place, and the restart moves ``dictionary.changes`` on,
        so the stacked projections no longer hold. Only loading the next
        block (``_load``) drops a walk, apart from one that died raising
        (see ``feed_recording``).
        """
        dictionary, trackers = self.dictionary, self.trackers
        changes, usage = dictionary.changes, dictionary.usage
        krows = self._rows[:, : dictionary.size]
        crows = np.matmul(dictionary.inv_gram, krows[..., None])[..., 0]
        deltas = (1.0 - np.vecdot(krows, crows)).tolist()
        credits = None
        cfg = self.config
        lam, nu1, nu2, period = cfg.lam, cfg.nu1, cfg.nu2, cfg.prune_period
        block, rows, timesteps = self._block, self._rows, self._times
        start = self._next
        stop = start + 1 if paused else len(deltas)
        while True:
            for i in range(start, stop):
                delta, t, seen = deltas[i], timesteps[i], self.steps_seen
                if (
                    not trackers
                    and seen >= train_steps
                    and dictionary.changes == changes
                    and (0.0 <= delta < nu1 or delta > nu2)
                    and (seen + 1) % period
                ):
                    # The quiet lane: _score's steps for this arrival. The
                    # dictionary has not changed since the stacked projection,
                    # so `usage` is still its view.
                    usage *= lam
                    if delta < nu1:
                        if credits is None:
                            credits = np.abs(crows)
                        usage += credits[i]
                        out.append(_tuple_new(Verdict, (_GREEN, t, delta, None)))
                    else:
                        out.append(_tuple_new(Verdict, (_RED1, t, delta, None)))
                    self.last_timestep = t
                    self.steps_seen = seen + 1
                    continue
                self._at = i
                values = block[i]
                if dictionary.changes == changes and delta >= 0.0:
                    coeffs, kvec = crows[i], krows[i]
                else:
                    delta, coeffs, kvec = self._project(values, rows[i, : dictionary.size])
                if seen < train_steps:
                    self._train(values, t, delta, coeffs, kvec)
                else:
                    immediate, resolutions = self._score(values, t, delta, coeffs, kvec)
                    out.append(immediate)
                    if resolutions:
                        out += resolutions
            self._next = stop
            if not paused:
                return
            yield out
            out, start, stop = [], stop, stop + 1

    def step(self, x: MeasurementVector) -> tuple[Verdict, list[Verdict]]:
        """Score one arrival; returns the immediate verdict plus any Orange
        resolutions that fell due at this timestep."""
        values = self._checked(x)
        # Unpacked, not starred: building a starred call's arguments cost
        # about 0.4 us a call (CPython 3.11 on a 2-vCPU VM).
        delta, coeffs, kvec = self._project(values)
        return self._score(values, x.timestep, delta, coeffs, kvec)

    def _train(
        self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray, kvec: np.ndarray
    ) -> None:
        """warm_start's update for an arrival just projected, kvec its row
        against the basis."""
        cfg = self.config
        usage = self.dictionary.usage
        usage *= cfg.lam
        if delta >= cfg.nu1:
            self._admit(values, t, delta, coeffs, kvec)
        else:
            usage += np.abs(coeffs)
        self.last_timestep = t
        self.steps_seen += 1

    def _score(
        self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray, kvec: np.ndarray
    ) -> tuple[Verdict, list[Verdict]]:
        """The verdict logic of ``step`` for an arrival just projected, kvec
        its row against the basis: the one scorer behind ``step`` and
        ``feed_run``.

        ``trackers`` is in deadline order: trackers are appended as they
        are raised, every one ``ell`` past its arrival, and arrivals come in
        rising timestep order. So the due ones are a prefix of the list."""
        cfg = self.config
        trackers = self.trackers

        # An open tracker's candidate is basis row dict_index, so its
        # similarity to x is already in the kernel vector. Count before the
        # Orange branch: a forced prune there shifts dict_index. Every open
        # tracker was raised before t; one whose deadline fell in a gap
        # before t is due but counts nothing.
        if trackers:
            for tracker in trackers:
                if t <= tracker.deadline and kvec[tracker.dict_index] >= cfg.d_similar:
                    tracker.explained_count += 1

        usage = self.dictionary.usage
        usage *= cfg.lam
        if delta < cfg.nu1:
            immediate = _tuple_new(Verdict, (_GREEN, t, delta, None))
            usage += np.abs(coeffs)
        elif delta > cfg.nu2:
            # Anomaly: never admitted, dictionary basis untouched.
            immediate = _tuple_new(Verdict, (_RED1, t, delta, None))
        else:
            immediate = _tuple_new(Verdict, (_ORANGE, t, delta, None))
            idx = self._admit(values, t, delta, coeffs, kvec)
            trackers.append(OrangeTracker(t, t + cfg.ell, idx, delta))

        resolutions = []
        while trackers and trackers[0].deadline <= t:
            resolutions.append(self._resolve(trackers.pop(0)))

        self.last_timestep = t
        self.steps_seen += 1
        if self.steps_seen % cfg.prune_period == 0:
            if self.dictionary.consistency_error() > CONSISTENCY_TOL:
                self.dictionary.refresh_inverse()
            self.prune_dictionary()
        return immediate, resolutions

    def _resolve(self, tracker: OrangeTracker) -> Verdict:
        """Close an Orange, already taken off ``trackers``, at its deadline:
        keep the candidate or evict it."""
        t = tracker.deadline
        if tracker.explained_count >= self.config.green_quota:
            return _tuple_new(Verdict, (_GREEN, t, tracker.delta, tracker.raised_at))
        self._remove_element(tracker.dict_index)
        return _tuple_new(Verdict, (_RED2, t, tracker.delta, tracker.raised_at))

    def _remove_element(self, index: int) -> None:
        m = self.dictionary.size
        self.dictionary.remove(index)
        # The element's column leaves the rows after the scored arrival's in
        # the block, which stay in the dictionary's order.
        later = self._rows[self._at + 1 :]
        later[:, index : m - 1] = later[:, index + 1 : m]
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
        held = {tracker.dict_index for tracker in self.trackers}
        below = np.flatnonzero(usage < self.config.usage_floor).tolist()
        removed = [index for index in below if index not in held]
        if force and not removed:
            if len(held) == len(usage):
                raise EngineError(
                    "every dictionary element is under an open tracker; "
                    "max_size must exceed ell, the most trackers open at once"
                )
            # argmin returns the first minimum: ties go to the lowest index.
            masked = usage.copy()
            masked[list(held)] = np.inf
            removed = [int(np.argmin(masked))]
        for index in reversed(removed):
            self._remove_element(index)
        return removed

    def _admit(
        self, values: np.ndarray, t: int, delta: float, coeffs: np.ndarray, kvec: np.ndarray
    ) -> int:
        """Admit the arrival at t, whose (delta, coeffs, kvec) were just
        projected; at capacity, force a prune first and project again, since
        the basis changed. Returns its index in the dictionary.

        The arrival's row less the evicted columns is its row against the
        pruned basis. The arrivals after it in feed_run's block get its
        column from one ``kernel_vector`` call of theirs against it, bitwise
        their rows' entries: only the differences' signs are flipped."""
        dictionary = self.dictionary
        if dictionary.size >= self.config.max_size:
            removed = self.prune_dictionary(force=True)  # one index at least, or it raises
            for index in reversed(removed):
                kvec = np.concatenate((kvec[:index], kvec[index + 1 :]))
            delta, coeffs, kvec = self._project(values, kvec)
        index = dictionary.admit(values, t, coeffs, delta, kvec)
        after = self._at + 1
        later = self._rows[after:]
        if len(later):
            later[:, index] = kernel_vector(self._block[after:], values, self.config.sigma)
        return index

    # -- input checks ----------------------------------------------------

    def _as_row(self, values) -> np.ndarray:
        """An arrival's values as a (dim,) float array: the one conversion
        of every entry point. A float array is returned as it is."""
        values = np.asarray(values, dtype=float)
        if values.shape != self._shape:
            raise ValueError(f"expected shape ({self.dim},), got {values.shape}")
        return values

    def _checked(self, x: MeasurementVector) -> np.ndarray:
        """x's values as ``_as_row`` converts them, refused as
        ``_check_arrival`` refuses them: ``feed``'s check, made on every
        arrival of ``step`` and ``warm_start`` and on each one whose order
        key a walk fails. A finite sum means finite components, so an
        accepted arrival calls ``_check_arrival`` only when the sum of its
        finite components overflows, and it passes."""
        values, t = x
        values = self._as_row(values)
        if not (math.isfinite(sum(values.tolist())) and t > self.last_timestep):
            _check_arrival(all(map(math.isfinite, values.tolist())), t, self.last_timestep)
        return values


def _check_arrival(finite: bool, t: int, last: int) -> None:
    """Refuse an arrival at timestep t, after one at last (-1 for none):
    a negative timestep, then a non-finite component, then an arrival out
    of order."""
    if t < 0:
        raise ValueError(f"timestep must be >= 0, got {t}")
    if not finite:
        raise EngineError(
            f"non-finite component at timestep {t}; "
            "validity checking should reject such frames upstream"
        )
    if t <= last:
        raise EngineError(f"timesteps must be strictly increasing: {t} after {last}")
