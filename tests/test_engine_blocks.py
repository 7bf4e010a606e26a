"""The block walk, ``KoadEngine.feed_run``, against one ``feed`` call per
arrival: the verdicts must agree bit for bit (kind, timestep,
``delta.hex()``, resolves), and so must the engine state they leave.

Each special case also checks that its event fell inside a block, after
the block's first arrival, so that arrival was scored from a kernel row
computed ahead of it.
"""

from __future__ import annotations

import numpy as np
import pytest

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
    ``feed_run``, ``stepped`` one ``feed`` at a time. ``starts`` records the
    arrival index at which each of the walk's blocks began."""

    def __init__(self, monkeypatch, config: ThresholdConfig) -> None:
        self.walked = KoadEngine(4, config)
        self.stepped = KoadEngine(4, config)
        self.starts: list[int] = []
        kernel_vector = engine_module.kernel_vector

        def recording(basis, x, sigma):
            if x.ndim == 2:
                self.starts.append(self.walked.steps_seen)
            return kernel_vector(basis, x, sigma)

        monkeypatch.setattr(engine_module, "kernel_vector", recording)

    def compare(self, z: np.ndarray, hook=None) -> list:
        """Run both paths; ``hook(engine, t)``, if given, runs on each engine
        right after it scores the arrival at t. Returns the verdicts."""
        if hook is not None:
            for engine in (self.walked, self.stepped):
                _after_scoring(engine, hook)
        timesteps = list(range(len(z)))
        verdicts = self.walked.feed_run(z, timesteps, TRAIN)
        expected = []
        for row, t in zip(z, timesteps):
            expected += self.stepped.feed(MeasurementVector(row, t), TRAIN)
        assert key(verdicts) == key(expected)
        assert state(self.walked) == state(self.stepped)
        return verdicts

    def mid_block(self, i: int) -> bool:
        """Arrival i was scored from a row its block computed ahead of it."""
        start = max(s for s in self.starts if s <= i)
        return start < i < start + BLOCK


def _after_scoring(engine: KoadEngine, hook) -> None:
    score = engine._score

    def hooked(values, t, delta, coeffs):
        out = score(values, t, delta, coeffs)
        hook(engine, t)
        return out

    engine._score = hooked


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
