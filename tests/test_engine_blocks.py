"""The block walk, ``KoadEngine.feed_run``, against one ``feed`` call per
arrival: the verdicts must agree bit for bit (kind, timestep,
``delta.hex()``, resolves), and so must the engine state they leave.

Each special case also checks that its event fell inside a block, after
the block's first arrival, so that arrival was scored from a kernel row
computed ahead of it and patched for every dictionary change since.

The walk projects a block's rows in one stacked call until the dictionary
changes; the call tests count those calls and pin the stacked arithmetic to
the per-row one.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vitalwatch.engine as engine_module
from vitalwatch.engine import (
    BLOCK,
    EngineError,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    VerdictKind,
)
from vitalwatch.synth import default_spec, generate

TRAIN = 50


def stream(seed: int, steps: int = 1200) -> np.ndarray:
    values, _ = generate(
        default_spec(steps=steps, n_anomalies=steps // 100, seed=seed, dim=4)
    )
    return (values - values.mean(axis=0)) / values.std(axis=0)


def key(verdicts) -> list[tuple]:
    return [(v.kind, v.at_timestep, v.delta.hex(), v.resolves_timestep) for v in verdicts]


def state(engine: KoadEngine) -> tuple:
    d = engine.dictionary
    arrays = [a.tobytes() for a in (d.basis, d.gram(), d.inv_gram, d.usage)]
    trackers = [vars(tracker) for tracker in engine.trackers]
    return arrays, d.timesteps, trackers, engine.steps_seen, engine.last_timestep


class Run:
    """Two engines with one config: ``walked`` takes the stream through
    ``feed_run``, ``stepped`` one ``feed`` at a time. Of the walk's
    ``kernel_vector`` calls, ``starts`` records the arrival index at which
    each block began (its call against the basis), ``columns`` the arrival
    index and basis shape of each call for one arrival's column, and
    ``pairwise`` the arrival index of any call that takes one block of
    arrivals as both basis and arrivals."""

    def __init__(self, monkeypatch, config: ThresholdConfig) -> None:
        self.walked = KoadEngine(4, config)
        self.stepped = KoadEngine(4, config)
        self.walking = False
        self.starts: list[int] = []
        self.columns: list[tuple[int, tuple[int, ...]]] = []
        self.pairwise: list[int] = []
        kernel_vector = engine_module.kernel_vector

        def recording(basis, x, sigma):
            if self.walking:
                at = self.walked.steps_seen
                if x.ndim == 1:
                    self.columns.append((at, basis.shape))
                elif np.shares_memory(basis, x):
                    self.pairwise.append(at)
                else:
                    self.starts.append(at)
            return kernel_vector(basis, x, sigma)

        monkeypatch.setattr(engine_module, "kernel_vector", recording)

    def compare(self, z: np.ndarray, hook=None) -> list:
        """Run both paths; ``hook(engine, t)``, if given, runs on each engine
        right after it scores the arrival at t. Returns the verdicts."""
        if hook is not None:
            for engine in (self.walked, self.stepped):
                _after_scoring(engine, hook)
        timesteps = list(range(len(z)))
        self.walking = True
        try:
            verdicts = self.walked.feed_run(z, timesteps, TRAIN)
        finally:
            self.walking = False
        expected = []
        for row, t in zip(z, timesteps):
            expected += self.stepped.feed(MeasurementVector(row, t), TRAIN)
        assert key(verdicts) == key(expected)
        assert state(self.walked) == state(self.stepped)
        return verdicts

    def mid_block(self, i: int) -> bool:
        """Arrival i was scored from a row its block computed ahead of it."""
        start = max(s for s in self.starts if s <= i)
        return start < i < start + engine_module.BLOCK


def _after_scoring(engine: KoadEngine, hook) -> None:
    score = engine._score

    def hooked(values, t, delta, coeffs, kvec):
        out = score(values, t, delta, coeffs, kvec)
        hook(engine, t)
        return out

    engine._score = hooked


def _record_projections(monkeypatch, engine: KoadEngine) -> list[tuple[int, int]]:
    """(first arrival, length) of every projection call the walk makes for
    its rows: a stacked ``np.matmul`` call over a block, or a ``_project``
    call for one arrival. Not counted: ``_admit``'s re-projection after a
    forced prune, which passes the arrival's own row less the evicted
    columns, and the fallback for a negative stacked delta, a call inside
    the latest stacked block before the dictionary changed."""
    calls: list[tuple[int, int]] = []
    opened = []  # dictionary.changes at the latest recorded call
    admitting = []  # nonempty inside _admit
    matmul = np.matmul

    def stacked(a, b, *args, **kwargs):
        calls.append((engine.steps_seen, len(b)))
        opened[:] = [engine.dictionary.changes]
        return matmul(a, b, *args, **kwargs)

    project = engine._project

    def single(values, kvec=None):
        at = engine.steps_seen
        first, length = calls[-1] if calls else (0, 0)
        fallback = first <= at < first + length and opened == [engine.dictionary.changes]
        if not admitting and not fallback:
            calls.append((at, 1))
            opened[:] = [engine.dictionary.changes]
        return project(values, kvec)

    admit = engine._admit

    def admitting_call(*args):
        admitting.append(True)
        try:
            return admit(*args)
        finally:
            admitting.pop()

    monkeypatch.setattr(np, "matmul", stacked)
    engine._project = single
    engine._admit = admitting_call
    return calls


def _record_changes(engine: KoadEngine) -> list[int]:
    """Arrival indices at which the engine's dictionary changed."""
    changed = []
    for name in ("_train", "_score"):
        method = getattr(engine, name)

        def recording(values, t, delta, coeffs, kvec, method=method):
            at, before = engine.steps_seen, engine.dictionary.changes
            out = method(values, t, delta, coeffs, kvec)
            if engine.dictionary.changes != before:
                changed.append(at)
            return out

        setattr(engine, name, recording)
    return changed


def _record_prunes(engine: KoadEngine) -> list[tuple[int, bool, list[int]]]:
    """(arrival index, force, evicted) of every prune the engine makes."""
    calls = []
    prune = engine.prune_dictionary

    def recording(force=False):
        removed = prune(force)
        # a forced prune comes before the arrival's step count, a periodic one after
        calls.append((engine.steps_seen - (not force), force, removed))
        return removed

    engine.prune_dictionary = recording
    return calls


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.5])
@pytest.mark.parametrize("seed", [3, 8])
def test_walk_equals_one_feed_per_arrival(monkeypatch, seed, sigma):
    run = Run(monkeypatch, ThresholdConfig(sigma=sigma))
    verdicts = run.compare(stream(seed))
    assert {VerdictKind.GREEN, VerdictKind.ORANGE, VerdictKind.RED2} <= {v.kind for v in verdicts}
    orange = [v.at_timestep for v in verdicts if v.kind is VerdictKind.ORANGE]
    assert any(run.mid_block(t) for t in orange)


CONFIGS = {
    "sigma1.0": ThresholdConfig(sigma=1.0),
    "sigma1.5": ThresholdConfig(sigma=1.5),
    "max_size12": ThresholdConfig(sigma=1.5, max_size=12),
    # Every prune evicts each element no tracker holds: the dictionary
    # empties at t = 540, and the Red1 arrivals after it take the quiet
    # lane with m = 0.
    "empties": ThresholdConfig(usage_floor=1e9, prune_period=60),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("block", [1, 2, 5, 16, 64])
def test_walk_at_any_block_length(monkeypatch, block, config):
    # Over these 600 arrivals each config admits 73-100 times and removes
    # 43-80 times; at max_size = 12, 28 admissions force a prune.
    monkeypatch.setattr(engine_module, "BLOCK", block)
    Run(monkeypatch, config).compare(stream(8, steps=600))


def test_quiet_arrivals_skip_the_scorer(monkeypatch):
    # At the default config most arrivals are Green or Red1 with no tracker
    # open and no prune due: the walk scores them in its quiet lane, with
    # no _score call, and still bitwise as one feed per arrival.
    run = Run(monkeypatch, ThresholdConfig())
    scored_at = set()
    score = run.walked._score

    def counting(values, t, delta, coeffs, kvec):
        scored_at.add(t)
        return score(values, t, delta, coeffs, kvec)

    run.walked._score = counting
    verdicts = run.compare(stream(8, steps=2000))
    assert len(scored_at) < (2000 - TRAIN) / 2
    quiet = {v.kind for v in verdicts if v.at_timestep not in scored_at}
    assert quiet == {VerdictKind.GREEN, VerdictKind.RED1}


@pytest.mark.parametrize("sigma", [1.0, 1.5])
@pytest.mark.parametrize("block", [5, 16])
def test_one_basis_call_per_block_however_the_dictionary_churns(monkeypatch, block, sigma):
    monkeypatch.setattr(engine_module, "BLOCK", block)
    run = Run(monkeypatch, ThresholdConfig(sigma=sigma, max_size=12))
    admitted = []
    admit = run.walked.dictionary.admit

    def recording(*args):
        admitted.append(run.walked.steps_seen)
        return admit(*args)

    run.walked.dictionary.admit = recording
    z = stream(8, steps=600)
    run.compare(z)
    # ceil(n / BLOCK) calls against the basis, one at each block's start
    assert run.starts == list(range(0, len(z), block))
    # Each admission with later arrivals in its block makes one call for
    # its column, against those arrivals; no other call is made.
    later = {i: min(i // block * block + block, len(z)) - i - 1 for i in admitted}
    assert run.columns == [(i, (later[i], 4)) for i in admitted if later[i]]
    assert run.pairwise == []
    # Admissions fell inside blocks, and the blocks ran on regardless.
    assert len(run.columns) >= 5


def test_capacity_prune_inside_a_block(monkeypatch):
    run = Run(monkeypatch, ThresholdConfig(sigma=2.5, max_size=12))
    prunes = _record_prunes(run.walked)
    run.compare(stream(3))
    forced = [i for i, force, _ in prunes if force and i >= TRAIN]
    assert any(run.mid_block(i) for i in forced)


def test_red2_resolution_inside_a_block(monkeypatch):
    run = Run(monkeypatch, ThresholdConfig(sigma=1.5))
    verdicts = run.compare(stream(8))
    red2 = [v.at_timestep for v in verdicts if v.kind is VerdictKind.RED2]
    assert any(run.mid_block(t) for t in red2)


def test_prune_period_boundary_inside_a_block(monkeypatch):
    # A high usage floor, so that periodic prunes evict.
    run = Run(monkeypatch, ThresholdConfig(sigma=1.0, prune_period=7, usage_floor=0.05))
    prunes = _record_prunes(run.walked)
    run.compare(stream(8))
    evicting = [i for i, force, removed in prunes if not force and removed]
    assert all((i + 1) % 7 == 0 for i in evicting)
    assert any(run.mid_block(i) for i in evicting)


def test_roundoff_fallback_inside_a_block(monkeypatch):
    z = stream(3)
    config = ThresholdConfig(sigma=2.5)
    # Two scored arrivals that one block covers, in a run left alone.
    dry = Run(monkeypatch, config)
    dry.compare(z)
    t0 = next(
        s + 1 for s, after in zip(dry.starts, dry.starts[1:]) if s > TRAIN and after - s >= 4
    )

    def inflate_inverse(engine, t):
        if t == t0:  # the next arrival's delta comes out near -2
            engine.dictionary.inv_gram *= 3.0
            # A write to the inverse from outside the engine, recorded as
            # the engine's own writes are, so the walk projects again.
            engine.dictionary.changes += 1

    run = Run(monkeypatch, config)
    refreshed = []
    refresh = run.walked.dictionary.refresh_inverse

    def recording():
        refreshed.append(run.walked.steps_seen)
        refresh()

    run.walked.dictionary.refresh_inverse = recording
    run.compare(z, hook=inflate_inverse)
    assert t0 + 1 in refreshed
    assert run.mid_block(t0 + 1)
    assert run.walked.dictionary.consistency_error() < 1e-9


def test_negative_stacked_delta_falls_back_to_project(monkeypatch):
    z = stream(3, steps=600)
    config = ThresholdConfig(sigma=2.5)
    block = engine_module.BLOCK
    # A scored arrival that opens a block, with a stacked call, in a run
    # left alone, and whose turn ends off the consistency check's period.
    dry = Run(monkeypatch, config)
    dry_calls = _record_projections(monkeypatch, dry.walked)
    dry.compare(z)
    t1 = next(
        i
        for i, length in dry_calls
        if i > TRAIN and i % block == 0 and length > 1 and (i + 1) % config.prune_period
    )

    def inflate_inverse(engine, t):
        # Unrecorded, on the last arrival of a block: the next block's
        # stacked call is made on the inflated inverse, and the delta it
        # gives t1 comes out near -2.
        if t == t1 - 1:
            engine.dictionary.inv_gram *= 3.0

    run = Run(monkeypatch, config)
    calls = _record_projections(monkeypatch, run.walked)
    refreshed = []
    refresh = run.walked.dictionary.refresh_inverse

    def recording():
        refreshed.append(run.walked.steps_seen)
        refresh()

    run.walked.dictionary.refresh_inverse = recording
    run.compare(z, hook=inflate_inverse)
    first, length = max(w for w in calls if w[0] <= t1)
    assert first == t1 and length > 1
    assert t1 in refreshed
    assert run.walked.dictionary.consistency_error() < 1e-9


@pytest.mark.parametrize("max_size", [1, 12, 50])
def test_stacked_projection_is_bitwise_the_per_row_one(max_size):
    # Engine-shaped operands: the inverse a strided [:m, :m] view of its
    # (max_size, max_size) buffer, the rows [i:j, :m] of a (BLOCK, max_size)
    # buffer. feed_run relies on each stacked row equalling _project's, and
    # _project takes its delta from kvec.dot(coeffs), bitwise kvec @ coeffs.
    rng = np.random.default_rng(max_size)
    inverse = np.empty((max_size, max_size))
    rows = np.empty((engine_module.BLOCK, max_size))
    for m in range(1, max_size + 1):
        inverse[...] = rng.normal(size=inverse.shape)
        rows[...] = rng.uniform(0.0, 1.0, size=rows.shape)
        inv = inverse[:m, :m]
        for i, j in [(0, 2), (3, 10), (0, engine_module.BLOCK), (17, 18 + m % 14)]:
            kvecs = rows[i:j, :m]
            coeffs = np.matmul(inv, kvecs[..., None])[..., 0]
            dots = np.vecdot(kvecs, coeffs).tolist()
            for k, kvec in enumerate(kvecs):
                each = inv @ kvec
                assert coeffs[k].tobytes() == each.tobytes(), (
                    f"numpy {np.__version__}: stacked matmul row {k} differs "
                    f"from the gemv at m={m}, window {i}:{j}"
                )
                dot = float(kvec @ each).hex()
                assert dots[k].hex() == dot, (
                    f"numpy {np.__version__}: stacked vecdot row {k} differs "
                    f"from the dot at m={m}, window {i}:{j}"
                )
                assert float(kvec.dot(each)).hex() == dot, (
                    f"numpy {np.__version__}: kvec.dot(coeffs) differs from "
                    f"kvec @ coeffs for row {k} at m={m}, window {i}:{j}"
                )


CALL_CONFIGS = {
    "sigma2.5": ThresholdConfig(sigma=2.5),
    "max_size12": ThresholdConfig(sigma=1.5, max_size=12),
}


@pytest.mark.parametrize("config", CALL_CONFIGS.values(), ids=CALL_CONFIGS.keys())
@pytest.mark.parametrize("block", [16, 32])
def test_a_block_is_one_call_until_its_first_change(monkeypatch, block, config):
    monkeypatch.setattr(engine_module, "BLOCK", block)
    run = Run(monkeypatch, config)
    calls = _record_projections(monkeypatch, run.walked)
    changed = _record_changes(run.walked)
    z = stream(8, steps=600)
    run.compare(z)
    assert len(changed) >= 40
    # Every call, from the rule: each block is one stacked call, and from
    # its first change on, each arrival to its end is projected alone.
    expected = []
    for start in range(0, len(z), block):
        end = min(start + block, len(z))
        expected.append((start, end - start))
        first_change = next((a for a in changed if start <= a < end), end)
        expected += [(a, 1) for a in range(first_change + 1, end)]
    assert calls == expected
    # Both branches ran: some block after the first was one call, and some
    # block changed before its last arrival.
    assert any(i and length == block for i, length in calls)
    assert any(i % block and length == 1 for i, length in calls)


@pytest.mark.parametrize("change", ["refresh", "prune"])
@pytest.mark.parametrize("where", ["block start", "block end"])
def test_change_on_the_first_or_last_arrival_of_a_block(monkeypatch, where, change):
    z = stream(3, steps=600)
    config = ThresholdConfig(sigma=2.5)
    block = engine_module.BLOCK
    dry = Run(monkeypatch, config)
    dry_calls = _record_projections(monkeypatch, dry.walked)
    dry.compare(z)
    offset = 0 if where == "block start" else block - 1
    t0 = next(t for t in range(TRAIN + 1, len(z) - block) if t % block == offset)

    def make_change(engine, t):
        if t == t0:
            if change == "refresh":
                engine.dictionary.refresh_inverse()
            else:
                assert engine.prune_dictionary(force=True)

    run = Run(monkeypatch, config)
    calls = _record_projections(monkeypatch, run.walked)
    run.compare(z, hook=make_change)
    # Calls up to the change are the undisturbed run's.
    before = [w for w in dry_calls if w[0] <= t0]
    assert calls[: len(before)] == before
    if where == "block start":
        # The rest of the block is projected one arrival at a time.
        rest = [(a, 1) for a in range(t0 + 1, t0 + block)]
        assert calls[len(before) : len(before) + len(rest)] == rest
    else:
        # The next block is stacked on the changed inverse.
        assert calls[len(before)] == (t0 + 1, block)


def test_walk_continues_an_engine_fed_one_arrival_at_a_time():
    z = stream(5, steps=600)
    config = ThresholdConfig(sigma=1.5)
    mixed, stepped = KoadEngine(4, config), KoadEngine(4, config)
    expected = []
    for t, row in enumerate(z):
        expected += stepped.feed(MeasurementVector(row, t), TRAIN)
        if t < 300:
            mixed.feed(MeasurementVector(row, t), TRAIN)
    with pytest.raises(EngineError, match="strictly increasing: 299 after 299"):
        mixed.feed_run(z[299:], list(range(299, 600)), TRAIN)
    got = mixed.feed_run(z[300:], list(range(300, 600)), TRAIN)
    assert key(got) == key([v for v in expected if v.at_timestep >= 300])
    assert state(mixed) == state(stepped)


def test_a_copied_engine_continues_bitwise():
    """A deep copy and an unpickled copy, taken mid-stream, go on exactly
    as the original: their dictionary views must alias their own buffers,
    so that the usage decays and the updates made after the copy reach
    the state the next change starts from."""
    z = stream(7, steps=3000)
    original = KoadEngine(4, ThresholdConfig(sigma=1.5))
    for t in range(1000):
        original.feed(MeasurementVector(z[t], t), TRAIN)
    copied = copy.deepcopy(original)
    unpickled = pickle.loads(pickle.dumps(original))
    expected, got = [], []
    for t in range(1000, len(z)):
        expected += original.feed(MeasurementVector(z[t], t), TRAIN)
        got += copied.feed(MeasurementVector(z[t], t), TRAIN)
        assert state(copied) == state(original)
    walked = unpickled.feed_run(z[1000:], list(range(1000, len(z))), TRAIN)
    assert key(got) == key(expected)
    assert key(walked) == key(expected)
    assert state(unpickled) == state(original)


# capacity prunes and Red2 evictions, and never every element under a tracker
CHURNING = ThresholdConfig(sigma=1.5, max_size=12, ell=10)


def test_a_restarted_engine_is_a_fresh_one():
    z = stream(8)
    restarted, fresh = KoadEngine(4, CHURNING), KoadEngine(4, CHURNING)
    # part way through z: a walked prefix, then arrivals fed one at a time
    restarted.feed_run(z[:400], list(range(400)), TRAIN)
    for t in range(400, 600):
        restarted.feed(MeasurementVector(z[t], t), TRAIN)
    assert restarted.trackers and restarted.dictionary.changes > 100
    restarted.restart()
    assert state(restarted) == state(fresh)
    got, expected = [], []
    for t in range(600, len(z)):
        got += restarted.feed(MeasurementVector(z[t], t), TRAIN)
        expected += fresh.feed(MeasurementVector(z[t], t), TRAIN)
    assert key(got) == key(expected)
    assert state(restarted) == state(fresh)


def walk_recording(engine: KoadEngine, z: np.ndarray, restart_after: int | None = None) -> dict:
    """Walk ``z`` through ``engine.feed_recording``, one frame per arrival
    and a frame without one after every third; restart the engine right
    after the walk hands back ``restart_after``. Returns each arrival's
    outcome by timestep."""
    frames = []
    for t, row in enumerate(z):
        frames.append((MeasurementVector(row, t), t))
        if t % 3 == 2:
            frames.append((None, None))
    walked = {}
    for (_, t), outcome in engine.feed_recording(frames, TRAIN):
        if t is not None:
            walked[t] = outcome
            if t == restart_after:
                engine.restart()
    return walked


@pytest.mark.parametrize("block", [1, 5, 32])
def test_recording_walk_equals_one_feed_per_arrival(monkeypatch, block):
    monkeypatch.setattr(engine_module, "BLOCK", block)
    z = stream(8, steps=600)
    walked, stepped = KoadEngine(4, CHURNING), KoadEngine(4, CHURNING)
    got = walk_recording(walked, z)
    assert list(got) == list(range(len(z)))
    for t, row in enumerate(z):
        assert key(got[t]) == key(stepped.feed(MeasurementVector(row, t), TRAIN))
    assert state(walked) == state(stepped)
    assert (walked._next, walked._times) == (0, [])  # closing the walk unloads it


@pytest.mark.parametrize("at", [3, 300, 318, 319, 320, "flat"])
def test_a_restart_inside_the_recording_walk_goes_on_as_a_fresh_engine(at):
    # Arrival t is number t % BLOCK of its block (BLOCK = 32): the restart
    # follows a block's middle, second-last, last and first arrival, or one
    # in training
    z = stream(8, steps=900)
    if at == "flat":
        # The first block repeats one vector, so the second block's stacked
        # projection is made after one dictionary change; the restarted
        # dictionary's first admission makes one too, and a stacked
        # projection kept across the restart would be taken as current.
        z[:BLOCK], at = z[0], BLOCK
    walked, fresh = KoadEngine(4, CHURNING), KoadEngine(4, CHURNING)
    got = walk_recording(walked, z, restart_after=at)
    for t in range(at + 1, len(z)):
        assert key(got[t]) == key(fresh.feed(MeasurementVector(z[t], t), TRAIN))
    assert state(walked) == state(fresh)


def test_the_recording_walk_keeps_its_pace():
    """Each frame taken moves the walk at most one arrival forward, the walk
    runs at most 2 * BLOCK arrivals behind the frames taken, and every frame
    comes back once, in frame order; frames without an arrival are mixed in,
    singly and in a run longer than a block."""
    z = stream(8, steps=600)
    frames, t = [], 0
    for row in z:
        frames.append((MeasurementVector(row, t), t))
        gaps = 2 * BLOCK + 5 if t == 300 else int(t % 7 == 3)
        frames += [(None, t + 1 + k) for k in range(gaps)]
        t += 1 + gaps
    taken = {"frames": 0, "arrivals": 0}
    handed: list[int] = []
    walked_at: list[int] = []  # the frames taken when each arrival came back

    def source():
        for frame in frames:
            taken["frames"] += 1
            taken["arrivals"] += frame[0] is not None
            assert taken["arrivals"] - len(walked_at) <= 2 * BLOCK
            yield frame

    for (_, tag), outcome in KoadEngine(4, CHURNING).feed_recording(source(), TRAIN):
        handed.append(tag)
        if outcome is not None:
            walked_at.append(taken["frames"])
    assert handed == list(range(len(frames)))
    assert len(walked_at) == len(z)
    while_taking = [n for n in walked_at if n < len(frames)]
    assert len(while_taking) == len(set(while_taking))


@pytest.mark.parametrize("entry", ["feed", "feed_run", "feed_recording"])
def test_every_entry_point_refuses_a_wrong_width_arrival_alike(entry):
    engine = KoadEngine(4)
    x = MeasurementVector(np.zeros(3), 0)
    calls = {
        "feed": lambda: engine.feed(x, TRAIN),
        "feed_run": lambda: engine.feed_run(x.values[None], [0], TRAIN),
        "feed_recording": lambda: list(engine.feed_recording([(x, 0)], TRAIN)),
    }
    with pytest.raises(ValueError) as refused:
        calls[entry]()
    assert str(refused.value) == "expected shape (4,), got (3,)"


# Recordings for the property test: at max_size 2-12 with ell below it an
# admission at capacity forces a prune, and with ell at or above it a
# prune can find every element under a tracker, which raises EngineError.
PROPERTY_CONFIGS = [
    ThresholdConfig(sigma=1.5, max_size=4, ell=3),
    ThresholdConfig(sigma=1.0, max_size=2, ell=1, prune_period=7, usage_floor=0.05),
    ThresholdConfig(sigma=1.5, max_size=5, ell=6),
    ThresholdConfig(sigma=2.5, max_size=12, ell=10),
]
# Faults a recording's arrival can carry: a non-finite component, a width
# of 3 or 5 where the engine's is 4, or a timestep that repeats the last,
# goes back, jumps ahead or is negative. A clean arrival's timestep is the
# last one's plus 1.
FAULTS = [
    "nan", "inf", "-inf", "narrow", "wide", "repeat", "back", "gap", "negative", "huge",
]


# The faults a row of a run, a (n, 4) array, can carry.
RUN_FAULTS = ["nan", "inf", "-inf", "repeat", "back", "gap", "negative"]


def arrival(rng, t: int, fault: str | None) -> tuple[np.ndarray, int]:
    """The values and timestep of the arrival after one at ``t``, carrying
    ``fault`` (None: a clean arrival)."""
    step = {"repeat": 0, "back": -2, "gap": 9}.get(fault, 1)
    t = -1 - int(rng.integers(3)) if fault == "negative" else t + step
    width = {"narrow": 3, "wide": 5}.get(fault, 4)
    values = rng.standard_normal(width) * rng.choice([0.3, 1.0, 1.0, 4.0])
    if fault in ("nan", "inf", "-inf"):
        values[rng.integers(4)] = float(fault)
    return values, t


def draw_faults(draw, n: int, faults: list[str]) -> dict[int, str]:
    return draw(st.dictionaries(st.integers(0, max(n - 1, 0)), st.sampled_from(faults), max_size=8))


@st.composite
def recordings(draw):
    n = draw(st.integers(0, 300))
    faults = draw_faults(draw, n, FAULTS)
    none_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    # the share of arrivals whose values are a list of floats, as the
    # pipeline's screen makes them, rather than an array
    list_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames, t = [], -1
    for tag in range(n):
        if rng.random() < none_share:
            frames.append((None, tag))
            continue
        fault = faults.get(tag)
        values, t = arrival(rng, t, fault)
        if rng.random() < list_share:
            values = values.tolist()
        if fault == "huge":  # an int no float holds: converting it overflows
            values = list(values)
            values[rng.integers(4)] = 10**400
            if rng.random() < 0.5:
                values = np.array(values, dtype=object)
        frames.append((MeasurementVector(values, t), tag))
    return frames


def outcome_key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return None if outcome is None else key(outcome)


@settings(max_examples=150, deadline=None)
@given(
    frames=recordings(),
    config=st.sampled_from(PROPERTY_CONFIGS),
    train=st.integers(0, 20),
    block=st.sampled_from([1, 3, BLOCK]),
)
def test_the_recording_walk_is_feed_arrival_by_arrival(frames, config, train, block):
    """Per frame, ``feed_recording``'s outcome is one ``feed`` call's under
    the pipeline's rule (an ``EngineError`` restarts the detector and the
    walk goes on); a ``ValueError``, a wrong width's among them, or an
    ``OverflowError``, from a value no float holds, ends both at the same
    frame, with the same message, after every earlier frame is handed back;
    both engines end in the same state."""
    expected = []
    stepped = KoadEngine(4, config)
    for x, tag in frames:
        if x is None:
            expected.append((tag, None))
            continue
        try:
            outcome = stepped.feed(x, train)
        except EngineError as exc:
            stepped.restart()
            outcome = exc
        except (ValueError, OverflowError) as exc:
            expected.append(("ended", outcome_key(exc)))
            break
        expected.append((tag, outcome_key(outcome)))
    walked = KoadEngine(4, config)
    got = []
    original_block = engine_module.BLOCK
    engine_module.BLOCK = block
    try:
        for (_, tag), outcome in walked.feed_recording(frames, train):
            got.append((tag, outcome_key(outcome)))
    except (ValueError, OverflowError) as exc:
        got.append(("ended", outcome_key(exc)))
    finally:
        engine_module.BLOCK = original_block
    assert got == expected
    assert state(walked) == state(stepped)


@st.composite
def runs(draw) -> tuple[np.ndarray, list[int]]:
    n = draw(st.integers(0, 300))
    faults = draw_faults(draw, n, RUN_FAULTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors, timesteps, t = np.empty((n, 4)), [], -1
    for i in range(n):
        vectors[i], t = arrival(rng, t, faults.get(i))
        timesteps.append(t)
    return vectors, timesteps


@settings(max_examples=150, deadline=None)
@given(
    run=runs(),
    config=st.sampled_from(PROPERTY_CONFIGS),
    train=st.integers(0, 20),
    block=st.sampled_from([1, 3, BLOCK]),
)
def test_feed_run_is_feed_row_by_row(run, config, train, block):
    """``feed_run`` returns the verdicts of one ``feed`` call per row, or
    raises what ``feed`` raises, with the same message, at the first row
    that ``feed`` refuses, after scoring every row before it; both engines
    end in the same state."""
    vectors, timesteps = run
    stepped = KoadEngine(4, config)
    verdicts = []
    try:
        for row, t in zip(vectors, timesteps):
            verdicts += stepped.feed(MeasurementVector(row, t), train)
        expected = key(verdicts)
    except (EngineError, ValueError) as exc:
        expected = outcome_key(exc)
    walked = KoadEngine(4, config)
    original_block = engine_module.BLOCK
    engine_module.BLOCK = block
    try:
        got = key(walked.feed_run(vectors, timesteps, train))
    except (EngineError, ValueError) as exc:
        got = outcome_key(exc)
    finally:
        engine_module.BLOCK = original_block
    assert got == expected
    assert state(walked) == state(stepped)
