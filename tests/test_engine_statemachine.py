"""Alarm state machine: branch selection, Orange windows, pruning, training.

Hand-built scenarios use a 1-d Gaussian kernel where the single-element
projection error has the closed form delta(u) = 1 - exp(-u^2 / sigma^2),
so band-edge distances can be derived independently of the engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import vitalwatch.engine as engine_module
from vitalwatch.engine import (
    EngineError,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    Verdict,
    VerdictKind,
)
from vitalwatch.kernels import gram_matrix, kernel_vector
from vitalwatch.synth import default_spec, generate

from _oracles import ReferenceDetector, oracle_delta

# Distance at which delta vs a lone dictionary element {0} equals 0.1
# (inside the default 0.07..0.16 Orange band) at sigma = 1.0, which the
# scenarios relying on that value pin: 1 - exp(-u^2) = 0.1.
BAND_U = math.sqrt(-math.log(0.9))


def vec(x, t):
    return MeasurementVector(np.atleast_1d(np.asarray(x, dtype=float)), t)


def seeded(points, config, start=0):
    points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in points]
    engine = KoadEngine(points[0].shape[0], config)
    t = start
    for p in points:
        engine.warm_start(MeasurementVector(p, t))
        t += 1
    return engine, t


def test_warm_start_admits_novel_and_credits_duplicates():
    cfg = ThresholdConfig()
    engine, t = seeded([0.0, 5.0], cfg)
    assert engine.dictionary.size == 2
    # A near-duplicate is not admitted; it credits usage instead.
    engine.warm_start(vec(0.001, t))
    assert engine.dictionary.size == 2
    assert engine.dictionary.usage[0] > 0.9
    assert engine.steps_seen == 3
    assert engine.trackers == []


def test_green_red1_orange_branch_selection():
    cfg = ThresholdConfig(nu1=0.07, nu2=0.16, sigma=1.0, ell=5)
    engine, t = seeded([0.0], cfg)

    green, res = engine.step(vec(0.02, 1))
    assert green.kind is VerdictKind.GREEN
    assert green.delta == pytest.approx(1.0 - math.exp(-0.02**2), abs=1e-9)
    assert green.resolves_timestep is None
    assert res == []
    assert engine.dictionary.size == 1

    red1, res = engine.step(vec(3.0, 2))
    assert red1.kind is VerdictKind.RED1
    assert red1.delta == pytest.approx(1.0 - math.exp(-9.0), abs=1e-9)
    assert res == []
    # Red1 arrivals never touch the basis.
    assert engine.dictionary.size == 1
    assert engine.trackers == []

    orange, res = engine.step(vec(BAND_U, 3))
    assert orange.kind is VerdictKind.ORANGE
    assert orange.delta == pytest.approx(0.1, abs=1e-9)
    assert res == []
    assert engine.dictionary.size == 2
    assert len(engine.trackers) == 1
    assert engine.trackers[0].deadline == 3 + cfg.ell


def test_band_edges_resolve_to_orange():
    probe, _ = seeded([0.0], ThresholdConfig())
    delta, _ = probe.projection_error(np.array([BAND_U]))

    at_lower, _ = seeded([0.0], ThresholdConfig(nu1=delta, nu2=delta + 0.05))
    verdict, _ = at_lower.step(vec(BAND_U, 1))
    assert verdict.kind is VerdictKind.ORANGE

    at_upper, _ = seeded([0.0], ThresholdConfig(nu1=delta / 2, nu2=delta))
    verdict, _ = at_upper.step(vec(BAND_U, 1))
    assert verdict.kind is VerdictKind.ORANGE


def test_orange_resolves_green_when_quota_met():
    # ell=5, epsilon_frac=0.2: one explained arrival keeps the candidate.
    cfg = ThresholdConfig(ell=5, epsilon_frac=0.2, sigma=1.0)
    assert cfg.green_quota == 1
    engine, _ = seeded([0.0], cfg)
    orange, _ = engine.step(vec(BAND_U, 1))
    assert orange.kind is VerdictKind.ORANGE

    kinds = []
    for t in range(2, 6):
        verdict, res = engine.step(vec(BAND_U, t))
        kinds.append(verdict.kind)
        assert res == []  # nothing resolves before the deadline
    assert kinds == [VerdictKind.GREEN] * 4

    _, res = engine.step(vec(BAND_U, 6))
    assert len(res) == 1
    assert res[0].kind is VerdictKind.GREEN
    assert res[0].at_timestep == 6
    assert res[0].resolves_timestep == 1
    assert res[0].delta == pytest.approx(orange.delta)
    # Candidate kept: basis still holds it.
    assert engine.dictionary.size == 2
    assert engine.trackers == []


def test_orange_resolves_red2_when_quota_missed():
    # Quota of 2 but only one explaining arrival lands in the window.
    cfg = ThresholdConfig(ell=4, epsilon_frac=0.5, sigma=1.0)
    assert cfg.green_quota == 2
    engine, t = seeded([0.0, 5.0], cfg)
    orange, _ = engine.step(vec(BAND_U, t))
    raised = t
    assert orange.kind is VerdictKind.ORANGE
    assert engine.dictionary.size == 3

    engine.step(vec(BAND_U, raised + 1))  # explained once
    engine.step(vec(5.01, raised + 2))  # near the far element: not explained
    engine.step(vec(4.99, raised + 3))
    _, res = engine.step(vec(5.02, raised + 4))
    assert len(res) == 1
    assert res[0].kind is VerdictKind.RED2
    assert res[0].at_timestep == raised + 4
    assert res[0].resolves_timestep == raised
    # Candidate evicted: every remaining row is a warm point.
    assert engine.dictionary.size == 2
    assert sorted(engine.dictionary.basis[:, 0]) == pytest.approx([0.0, 5.0])


def test_raise_step_does_not_count_toward_quota():
    # The candidate is trivially similar to itself; if the Orange step
    # self-counted, quota 1 would be met with no later evidence at all.
    cfg = ThresholdConfig(ell=3, epsilon_frac=0.2, sigma=1.0)
    assert cfg.green_quota == 1
    engine, t = seeded([0.0, 5.0], cfg)
    engine.step(vec(BAND_U, t))
    for i in range(1, 3):
        engine.step(vec(5.0 + 0.01 * i, t + i))
    _, res = engine.step(vec(4.98, t + 3))
    assert [r.kind for r in res] == [VerdictKind.RED2]


def test_arrival_past_the_deadline_does_not_count_toward_quota():
    # The tracker falls due inside a gap; the arrival that resolves it is
    # the candidate itself, but it lies outside the window and must not
    # meet the quota of 1 on its way through.
    cfg = ThresholdConfig(ell=4, epsilon_frac=0.2, sigma=1.0)
    assert cfg.green_quota == 1
    engine, t = seeded([0.0, 5.0], cfg)
    orange, _ = engine.step(vec(BAND_U, t))
    assert orange.kind is VerdictKind.ORANGE
    imm, res = engine.step(vec(BAND_U, t + 9))
    assert imm.kind is VerdictKind.GREEN
    assert [(r.kind, r.at_timestep) for r in res] == [(VerdictKind.RED2, t + 4)]


def test_gap_past_deadline_resolves_with_original_timestep():
    cfg = ThresholdConfig(ell=4, epsilon_frac=0.5, sigma=1.0)
    engine, t = seeded([[0.0, 0.0], [5.0, 5.0]], cfg)

    o1, _ = engine.step(MeasurementVector(np.array([BAND_U, 0.0]), t))
    o2, _ = engine.step(MeasurementVector(np.array([0.0, BAND_U]), t + 1))
    assert o1.kind is VerdictKind.ORANGE
    assert o2.kind is VerdictKind.ORANGE
    assert engine.dictionary.size == 4

    # Arrivals stop (masked frames); the next one lands past both deadlines.
    imm, res = engine.step(MeasurementVector(np.array([5.0, 5.01]), t + 9))
    assert imm.kind is VerdictKind.GREEN
    assert [r.kind for r in res] == [VerdictKind.RED2, VerdictKind.RED2]
    assert [r.at_timestep for r in res] == [t + 4, t + 5]
    assert [r.resolves_timestep for r in res] == [t, t + 1]
    # Both candidates evicted, in order, with index remapping in between.
    assert engine.dictionary.size == 2
    assert engine.trackers == []


def test_every_resolution_lands_exactly_ell_after_raise():
    cfg = ThresholdConfig(ell=7, epsilon_frac=0.3, sigma=1.0)
    engine, t = seeded([0.0], cfg)
    engine.step(vec(BAND_U, t))
    seen = []
    for i in range(1, 8):
        _, res = engine.step(vec(0.01 * i, t + i))
        seen.extend(res)
    assert len(seen) == 1
    assert seen[0].at_timestep == seen[0].resolves_timestep + cfg.ell


def test_usage_decay_and_green_credit():
    lam = 0.98
    cfg = ThresholdConfig(lam=lam)
    engine, _ = seeded([0.0], cfg)
    assert engine.dictionary.usage[0] == 0.0

    engine.step(vec(0.0, 1))  # exact duplicate: Green with coefficient 1
    assert engine.dictionary.usage[0] == pytest.approx(1.0, abs=1e-12)
    engine.step(vec(3.0, 2))  # Red1: decay only
    assert engine.dictionary.usage[0] == pytest.approx(lam, abs=1e-12)
    engine.step(vec(0.0, 3))
    assert engine.dictionary.usage[0] == pytest.approx(lam**2 + 1.0, abs=1e-12)


def test_periodic_prune_drops_idle_elements_but_never_tracked_ones():
    cfg = ThresholdConfig(ell=20, prune_period=5, usage_floor=1e-4, sigma=1.0)
    engine, t = seeded([0.0, 5.0], cfg)  # steps_seen == 2
    engine.step(vec(0.01, t))  # credit element 0
    engine.step(vec(-0.01, t + 1))
    assert engine.dictionary.size == 2

    # steps_seen hits 5 on the Orange step, so the prune runs right after
    # the tracker opens: the idle far element (usage ~ 0) goes, the tracked
    # candidate with usage exactly 0 stays.
    orange, _ = engine.step(vec(BAND_U, t + 2))
    assert orange.kind is VerdictKind.ORANGE
    assert engine.dictionary.size == 2
    remaining = sorted(engine.dictionary.basis[:, 0])
    assert remaining == pytest.approx([0.0, BAND_U])
    assert len(engine.trackers) == 1
    assert engine.trackers[0].dict_index == 1  # remapped after the eviction

    # The surviving tracker still resolves cleanly.
    for i in range(4, 23):
        _, res = engine.step(vec(BAND_U, t + i))
    assert [r.kind for r in res] == [VerdictKind.GREEN]
    assert res[0].resolves_timestep == t + 2


def test_capacity_forces_eviction_of_least_used_before_admission():
    cfg = ThresholdConfig(max_size=2, usage_floor=0.0, ell=10, sigma=1.0)
    engine, t = seeded([0.0, 5.0], cfg)
    # Both warm elements have usage 0.0; the tie breaks to the lower index.
    orange, _ = engine.step(vec(BAND_U, t))
    assert orange.kind is VerdictKind.ORANGE
    assert engine.dictionary.size == 2
    assert sorted(engine.dictionary.basis[:, 0]) == pytest.approx([BAND_U, 5.0])
    assert engine.trackers[0].dict_index == 1
    assert engine.trackers[0].delta == pytest.approx(orange.delta)


def test_capacity_prefers_below_floor_victim_over_tie_break():
    cfg = ThresholdConfig(max_size=3, ell=10, usage_floor=1e-4, sigma=1.0)
    engine, t = seeded([0.0, 5.0], cfg)
    engine.step(vec(0.01, t))  # credit element 0 well above the floor
    orange, _ = engine.step(vec(BAND_U, t + 1))  # fills to capacity
    assert engine.dictionary.size == 3
    orange2, _ = engine.step(vec(-0.55, t + 2))
    assert orange2.kind is VerdictKind.ORANGE
    # The idle far element was the only below-floor untracked victim.
    assert engine.dictionary.size == 3
    values = sorted(engine.dictionary.basis[:, 0])
    assert values == pytest.approx([-0.55, 0.0, BAND_U])
    assert {tr.dict_index for tr in engine.trackers} == {1, 2}


def test_capacity_prune_of_several_elements_keeps_the_arrivals_row(monkeypatch):
    """A forced prune that evicts two elements apart: the arrival's kernel
    row less their columns is bitwise its row against the pruned basis."""
    cfg = ThresholdConfig(max_size=4, ell=10, usage_floor=1e-4, sigma=1.0)
    engine, t = seeded([0.0, 5.0, 10.0, 15.0], cfg)
    engine.step(vec(0.01, t))  # credit elements 0 and 2 above the floor
    engine.step(vec(10.01, t + 1))
    project = engine._project
    rows = []

    def recording(values, kvec=None):
        if kvec is not None:
            fresh = kernel_vector(engine.dictionary.basis, values, cfg.sigma)
            rows.append((kvec.tobytes(), fresh.tobytes()))
        return project(values, kvec)

    monkeypatch.setattr(engine, "_project", recording)
    orange, _ = engine.step(vec(-BAND_U, t + 2))
    assert orange.kind is VerdictKind.ORANGE
    assert engine.dictionary.basis[:, 0].tolist() == [0.0, 10.0, -BAND_U]
    assert len(rows) == 1 and rows[0][0] == rows[0][1]


def test_capacity_with_every_element_tracked_is_an_error():
    cfg = ThresholdConfig(max_size=1, ell=10, sigma=1.0)
    engine, t = seeded([0.0], cfg)
    orange, _ = engine.step(vec(BAND_U, t))
    assert orange.kind is VerdictKind.ORANGE
    assert engine.dictionary.size == 1  # candidate displaced the warm point
    with pytest.raises(EngineError, match="open tracker"):
        engine.step(vec(2 * BAND_U, t + 1))


def test_timesteps_must_strictly_increase():
    engine, t = seeded([0.0], ThresholdConfig())
    engine.step(vec(0.01, t))
    with pytest.raises(EngineError, match="strictly increasing"):
        engine.step(vec(0.02, t))
    with pytest.raises(EngineError, match="strictly increasing"):
        engine.step(vec(0.02, t - 1))


def test_non_finite_values_rejected():
    engine, t = seeded([0.0], ThresholdConfig())
    with pytest.raises(EngineError, match="non-finite"):
        engine.step(vec(float("nan"), t))


def test_a_negative_timestep_is_refused_alike_by_feed_and_feed_run():
    # The record is plain, so it holds t < 0 until an engine takes it; every
    # entry point refuses it first, before its non-finite value.
    x = MeasurementVector(np.array([np.nan, 0.0]), -1)
    errors = []
    for call in (
        lambda engine: engine.feed(x, 0),  # step
        lambda engine: engine.feed(x, 5),  # warm_start
        lambda engine: engine.feed_run(x.values[None, :], [x.timestep], 0),
    ):
        engine = KoadEngine(2, ThresholdConfig())
        with pytest.raises(ValueError) as got:
            call(engine)
        errors.append(str(got.value))
        assert (engine.steps_seen, engine.last_timestep) == (0, -1)
    assert errors == ["timestep must be >= 0, got -1"] * 3


@pytest.mark.parametrize(
    "given", [list, tuple, np.array], ids=["list", "tuple", "int-array"]
)
def test_a_record_of_any_number_sequence_is_scored_like_its_float_array(given):
    # Integer readings, so that an int array holds exactly the float values.
    points = np.random.default_rng(5).integers(-3, 4, size=(80, 3))
    cfg = ThresholdConfig(ell=4, prune_period=10)
    floats, others = KoadEngine(3, cfg), KoadEngine(3, cfg)
    seen = []
    for t, point in enumerate(points):
        want = floats.feed(MeasurementVector(point.astype(float), t), 20)
        assert others.feed(MeasurementVector(given(point.tolist()), t), 20) == want
        seen += want
    assert {v.kind for v in seen} == set(VerdictKind)  # every branch ran
    assert np.array_equal(floats.dictionary.basis, others.dictionary.basis)
    assert others.dictionary.basis.dtype == np.float64


def test_records_compare_and_hash_by_identity():
    values = np.array([1.0, 2.0])
    x, twin = MeasurementVector(values, 3), MeasurementVector(values.copy(), 3)
    assert x == x and not x != x
    assert x != twin and not x == twin  # no element-wise compare of the arrays
    assert hash(x) == object.__hash__(x)
    assert len({x, twin}) == 2
    got_values, got_t = x
    assert got_values is values and got_t == 3


def test_feed_trains_silently_then_scores_like_step():
    cfg = ThresholdConfig(ell=3, prune_period=5)
    rng = np.random.default_rng(11)
    fed, manual = KoadEngine(1, cfg), KoadEngine(1, cfg)
    for t in range(40):
        x = vec(rng.choice([0.0, BAND_U, 3.0]) + rng.normal() * 0.02, t)
        got = fed.feed(x, train_steps=5)
        if t < 5:
            manual.warm_start(x)
            assert got == []
        else:
            immediate, resolutions = manual.step(x)
            assert got == [immediate, *resolutions]
    assert fed.steps_seen == manual.steps_seen == 40


def flatten(immediate, resolutions):
    out = [(immediate.kind.value, immediate.at_timestep, immediate.delta,
            immediate.resolves_timestep)]
    out.extend(
        (r.kind.value, r.at_timestep, r.delta, r.resolves_timestep)
        for r in resolutions
    )
    return out


def test_random_streams_match_reference_replay():
    """Differential test: the engine and a dense from-scratch replay must
    produce identical verdict streams over streams that exercise every
    branch (all four kinds, capacity evictions, periodic prunes, gaps)."""
    kinds_seen = set()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        cfg = ThresholdConfig(
            nu1=0.07,
            nu2=0.16,
            ell=6,
            sigma=1.0,
            lam=0.75,
            d_similar=0.9,
            epsilon_frac=0.4,
            prune_period=7,
            usage_floor=5e-3,
            max_size=8,
        )
        engine = KoadEngine(2, cfg)
        ref = ReferenceDetector(
            nu1=cfg.nu1,
            nu2=cfg.nu2,
            ell=cfg.ell,
            sigma=cfg.sigma,
            lam=cfg.lam,
            d_similar=cfg.d_similar,
            epsilon_frac=cfg.epsilon_frac,
            prune_period=cfg.prune_period,
            usage_floor=cfg.usage_floor,
            max_size=cfg.max_size,
        )

        centers = [np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                   np.array([0.0, 2.0]), np.array([2.0, 2.0])]
        t = 0
        for c in centers:
            engine.warm_start(MeasurementVector(c, t))
            ref.warm(c, t)
            t += 1

        oranges = []
        resolutions = []
        for _ in range(150):
            if rng.random() < 0.1:
                t += int(rng.integers(2, 5))  # masked-frame gap
            base = centers[int(rng.integers(len(centers)))]
            roll = rng.random()
            if roll < 0.6:
                x = base + rng.normal(size=2) * 0.05
            elif roll < 0.8:
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                x = base + direction * rng.uniform(0.28, 0.42)
            else:
                direction = rng.normal(size=2)
                direction /= np.linalg.norm(direction)
                x = base + direction * rng.uniform(0.7, 3.0)

            got = flatten(*engine.step(MeasurementVector(x.copy(), t)))
            want = ref.step(x, t)
            assert len(got) == len(want)
            for (gk, gt, gd, gr), (wk, wt, wd, wr) in zip(got, want):
                assert (gk, gt, gr) == (wk, wt, wr)
                assert gd == pytest.approx(wd, abs=1e-8)
                kinds_seen.add(gk)
                if gk == "orange":
                    oranges.append((gt, gd))
                if gr is not None:
                    resolutions.append((gk, gt, gd, gr))
            t += 1

        # Every Orange resolves exactly once, exactly ell steps later,
        # carrying the delta it was raised with.
        assert len(resolutions) >= len(oranges) - len(engine.trackers)
        by_raise = {r[3]: r for r in resolutions}
        assert len(by_raise) == len(resolutions)
        for raised_at, delta in oranges:
            if raised_at in by_raise:
                kind, at, rdelta, _ = by_raise[raised_at]
                assert at == raised_at + cfg.ell
                assert rdelta == pytest.approx(delta, abs=1e-8)
                assert kind in ("green", "red2")

        np.testing.assert_allclose(
            engine.dictionary.basis,
            np.array(ref.points).reshape(-1, 2),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            engine.dictionary.usage, np.array(ref.usage), atol=1e-8
        )

    assert kinds_seen == {"green", "orange", "red1", "red2"}


def test_projection_matches_dense_oracle_during_live_run():
    rng = np.random.default_rng(42)
    cfg = ThresholdConfig(ell=5, max_size=12)
    engine = KoadEngine(3, cfg)
    for t in range(6):
        engine.warm_start(MeasurementVector(rng.normal(size=3) * 2.0, t))
    for t in range(6, 80):
        x = rng.normal(size=3) * 2.0
        basis_before = [row.copy() for row in engine.dictionary.basis]
        expected, _ = oracle_delta(basis_before, x, cfg.sigma)
        verdict, _ = engine.step(MeasurementVector(x, t))
        assert verdict.delta == pytest.approx(expected, abs=1e-8)


def max_gram_drift(engine: KoadEngine) -> float:
    """Largest entry of |kept Gram - Gram rebuilt from the basis|."""
    dictionary = engine.dictionary
    rebuilt = gram_matrix(dictionary.basis, engine.config.sigma)
    return float(np.abs(dictionary.gram() - rebuilt).max(initial=0.0))


def test_churn_with_forced_prunes_matches_reference_replay():
    """Differential test under heavy churn: a dictionary small enough that
    Orange admissions force prunes while other trackers are open, so tracker
    indices shift between the projection and the admission. Verdicts and
    basis order must follow the dense replay step by step, and removals from
    the middle of the preallocated buffers must leave no stale state behind."""
    for seed in range(3):
        cfg = ThresholdConfig(
            sigma=1.5, ell=5, max_size=6, lam=0.9, epsilon_frac=0.4,
            prune_period=25, usage_floor=1e-3,
        )
        engine = KoadEngine(3, cfg)
        ref = ReferenceDetector(
            cfg.nu1, cfg.nu2, cfg.ell, cfg.sigma, cfg.lam, cfg.d_similar,
            cfg.epsilon_frac, cfg.prune_period, cfg.usage_floor, cfg.max_size,
        )
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-3.0, 3.0, size=(4, 3))
        arrived_at = {}
        t = 0
        for c in centers:
            engine.warm_start(MeasurementVector(c, t))
            ref.warm(c, t)
            arrived_at[c.tobytes()] = t
            t += 1

        forced_with_open_trackers = 0
        for _ in range(400):
            scale = rng.choice([0.05, 0.35, 1.5], p=[0.45, 0.45, 0.1])
            x = centers[rng.integers(len(centers))] + rng.normal(size=3) * scale
            arrived_at[x.tobytes()] = t
            crowded = engine.dictionary.size == cfg.max_size and bool(engine.trackers)

            got = flatten(*engine.step(MeasurementVector(x, t)))
            want = ref.step(x, t)
            assert [(k, at, r) for k, at, _, r in got] == [
                (k, at, r) for k, at, _, r in want
            ]
            for (_, _, gd, _), (_, _, wd, _) in zip(got, want):
                assert gd == pytest.approx(wd, abs=1e-9)
            assert engine.dictionary.timesteps == [
                arrived_at[p.tobytes()] for p in ref.points
            ]
            if crowded and got[0][0] == "orange":
                forced_with_open_trackers += 1
            t += 1
        assert forced_with_open_trackers > 0
        # The kept Gram matrix followed every admission and shifted removal.
        assert max_gram_drift(engine) <= 1e-12

        # Remove from the middle down to two elements, then refill: every
        # admission must overwrite the stale rows and columns past the old size.
        dictionary = engine.dictionary
        while dictionary.size > 2:
            dictionary.remove(dictionary.size // 2)
            assert dictionary.consistency_error() <= 1e-6
        while dictionary.size < cfg.max_size:
            x = rng.uniform(-6.0, 6.0, size=3)
            delta, coeffs = engine.projection_error(x)
            if delta >= cfg.nu1:
                kvec = kernel_vector(dictionary.basis, x, cfg.sigma)
                dictionary.admit(x, t, coeffs, delta, kvec)
                t += 1
            assert dictionary.consistency_error() <= 1e-6
        assert max_gram_drift(engine) <= 1e-12


def test_forced_prunes_cost_no_second_kernel_row(monkeypatch):
    """At capacity an Orange forces a prune before its admission. The
    arrival's own kernel row, less the evicted columns, is its row against
    the pruned basis, so a feed loop computes one row per arrival, and every
    kept Gram row stays bitwise what a fresh ``kernel_vector`` call gives."""
    cfg = ThresholdConfig(sigma=1.5, max_size=6)
    engine = KoadEngine(4, cfg)
    ref = ReferenceDetector(
        cfg.nu1, cfg.nu2, cfg.ell, cfg.sigma, cfg.lam, cfg.d_similar,
        cfg.epsilon_frac, cfg.prune_period, cfg.usage_floor, cfg.max_size,
    )
    calls = []

    def counting(basis, x, sigma):
        calls.append(engine.steps_seen)
        return kernel_vector(basis, x, sigma)

    monkeypatch.setattr(engine_module, "kernel_vector", counting)
    forced = []
    prune = engine.prune_dictionary

    def recording(force=False):
        if force:
            forced.append(engine.steps_seen)
        return prune(force)

    engine.prune_dictionary = recording

    values, _ = generate(default_spec(steps=600, n_anomalies=6, seed=26, dim=4))
    z = (values - values.mean(axis=0)) / values.std(axis=0)
    train = 50
    for t, x in enumerate(z):
        got = engine.feed(MeasurementVector(x, t), train)
        if t < train:
            ref.warm(x, t)
            continue
        want = ref.step(x, t)
        assert [(v.kind.value, v.at_timestep, v.resolves_timestep) for v in got] == [
            (k, at, r) for k, at, _, r in want
        ]
        for v, (_, _, wd, _) in zip(got, want):
            assert v.delta == pytest.approx(wd, abs=1e-9)

    assert calls == list(range(len(z)))
    assert sum(t >= train for t in forced) >= 5
    dictionary = engine.dictionary
    gram = dictionary.gram()
    for i in range(dictionary.size):
        fresh = kernel_vector(dictionary.basis[:i], dictionary.basis[i], cfg.sigma)
        assert gram[i, :i].tobytes() == fresh.tobytes()


def standardized_synth(seed: int) -> np.ndarray:
    """A 600-step, 4-channel synthetic stream, standardized column-wise."""
    values, _ = generate(default_spec(steps=600, n_anomalies=6, seed=seed, dim=4))
    return (values - values.mean(axis=0)) / values.std(axis=0)


def test_max_size_above_ell_always_leaves_a_prunable_element():
    """A tracker resolves within ell arrivals, so an admission at capacity
    finds at most ell elements protected: with max_size > ell the forced
    prune always frees a slot. The same streams at ell = 20 run out, which
    is why Settings refuses max_size <= ell."""
    exhausted = 0
    for seed in range(1, 30):
        z = standardized_synth(seed)
        KoadEngine(4, ThresholdConfig(sigma=1.5, ell=5, max_size=6)).feed_run(
            z, list(range(len(z))), 50
        )
        try:
            KoadEngine(4, ThresholdConfig(sigma=1.5, ell=20, max_size=6)).feed_run(
                z, list(range(len(z))), 50
            )
        except EngineError as exc:
            assert "every dictionary element is under an open tracker" in str(exc)
            exhausted += 1
    assert exhausted > 0


@pytest.mark.parametrize("ell", [10, 20])
@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_trackers_stay_in_deadline_order_through_gaps(sigma, ell):
    """The scorer resolves trackers from the front of ``trackers``, which
    relies on the list staying in deadline order. After every feed it must
    be, and the verdicts must follow the dense reference, including when a
    deadline falls inside a timestep gap and resolves late."""
    cfg = ThresholdConfig(sigma=sigma, ell=ell)
    engine = KoadEngine(4, cfg)
    ref = ReferenceDetector(
        cfg.nu1, cfg.nu2, cfg.ell, cfg.sigma, cfg.lam, cfg.d_similar,
        cfg.epsilon_frac, cfg.prune_period, cfg.usage_floor, cfg.max_size,
    )
    rng = np.random.default_rng(ell + int(10 * sigma))
    z = standardized_synth(3)[:400]
    timesteps = np.cumsum(rng.choice([1, 1, 1, 2, 4], size=len(z))).tolist()
    train = 50
    most_open = late = 0
    for i, (x, t) in enumerate(zip(z, timesteps)):
        got = engine.feed(MeasurementVector(x, t), train)
        deadlines = [tracker.deadline for tracker in engine.trackers]
        assert deadlines == sorted(deadlines)
        most_open = max(most_open, len(deadlines))
        if i < train:
            ref.warm(x, t)
            continue
        want = ref.step(x, t)
        assert [(v.kind.value, v.at_timestep, v.resolves_timestep) for v in got] == [
            (k, at, r) for k, at, _, r in want
        ]
        for v, (_, _, wd, _) in zip(got, want):
            assert v.delta == pytest.approx(wd, abs=1e-9)
        late += sum(v.resolves_timestep is not None and v.at_timestep < t for v in got)
    assert most_open >= 2 and late > 0


def test_verdicts_are_immutable_values():
    green = Verdict(VerdictKind.GREEN, 7, 0.01)
    assert green.resolves_timestep is None
    with pytest.raises(AttributeError):
        green.delta = 0.5
    twin = Verdict(VerdictKind.GREEN, 7, 0.01, None)
    assert twin == green and hash(twin) == hash(green)
    assert green != Verdict(VerdictKind.GREEN, 7, 0.01, 3)
    assert len({green, twin}) == 1
