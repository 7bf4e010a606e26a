"""Recursive inverse-Gram maintenance checked against explicit dense solves."""

import warnings

import numpy as np
import pytest

from vitalwatch.engine import (
    EngineError,
    KoadEngine,
    ThresholdConfig,
)
from vitalwatch.kernels import kernel_vector

from _oracles import LeadingBlockUpdates, oracle_delta, oracle_inverse


def make_engine(dim=2, sigma=1.0, max_size=50, **kw) -> KoadEngine:
    return KoadEngine(dim, ThresholdConfig(sigma=sigma, max_size=max_size, **kw))


def admit_directly(engine: KoadEngine, values, timestep: int) -> int:
    """Mirror the engine's admission path outside of step()."""
    values = np.asarray(values, dtype=float)
    dictionary = engine.dictionary
    delta, coeffs = engine.projection_error(values)
    kvec = kernel_vector(dictionary.basis, values, engine.config.sigma)
    return dictionary.admit(values, timestep, coeffs, delta, kvec)


def test_projection_empty_dictionary():
    engine = make_engine()
    delta, coeffs = engine.projection_error(np.array([4.2, -1.0]))
    assert delta == 1.0
    assert coeffs.shape == (0,)


def test_projection_exact_member_is_zero_with_one_hot_coeffs():
    engine = make_engine()
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(3, 2)) * 2.0
    for i, v in enumerate(vectors):
        admit_directly(engine, v, i)
    delta, coeffs = engine.projection_error(vectors[1])
    assert delta == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(coeffs, [0.0, 1.0, 0.0], atol=1e-9)


def test_projection_matches_dense_oracle():
    rng = np.random.default_rng(22)
    engine = make_engine()
    basis = [rng.normal(size=2) for _ in range(3)]
    for i, v in enumerate(basis):
        admit_directly(engine, v, i)
    for _ in range(20):
        x = rng.normal(size=2)
        delta, _ = engine.projection_error(x)
        want, _ = oracle_delta(basis, x, 1.0)
        assert delta == pytest.approx(want, abs=1e-8)


def test_admit_into_empty():
    engine = make_engine()
    idx = admit_directly(engine, [0.5, -0.5], 0)
    assert idx == 0
    np.testing.assert_array_equal(engine.dictionary.inv_gram, [[1.0]])
    assert engine.dictionary.usage.tolist() == [0.0]


def test_admit_rejects_nonpositive_delta():
    engine = make_engine()
    admit_directly(engine, [0.0, 0.0], 0)
    with pytest.raises(ValueError):
        engine.dictionary.admit(np.zeros(2), 1, np.array([1.0]), 0.0, np.array([1.0]))


def test_admit_at_capacity_raises():
    engine = make_engine(max_size=2)
    admit_directly(engine, [0.0, 0.0], 0)
    admit_directly(engine, [3.0, 0.0], 1)
    with pytest.raises(EngineError, match="at capacity"):
        admit_directly(engine, [0.0, 3.0], 2)


def draw_novel(rng, engine, d, min_delta=0.05):
    """Draw a point the engine would actually admit (delta above an ALD
    threshold); live admission never happens below nu1, so near-singular
    Gram matrices are out of scope."""
    spread = 3.0 * (engine.config.max_size ** (1.0 / d))
    for _ in range(500):
        x = rng.uniform(-spread, spread, size=d)
        delta, _ = engine.projection_error(x)
        if delta >= min_delta:
            return x
    raise AssertionError("could not draw a novel point")


def test_random_admission_sequences_match_direct_inverse():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 16))
        sigma = float(rng.uniform(0.7, 2.0))
        engine = make_engine(dim=d, sigma=sigma, max_size=16)
        basis = []
        for t in range(m):
            x = draw_novel(rng, engine, d)
            admit_directly(engine, x, t)
            basis.append(x)
        err = np.linalg.norm(engine.dictionary.inv_gram - oracle_inverse(basis, sigma))
        assert err < 1e-6


def test_remove_only_element_empties_dictionary():
    engine = make_engine()
    admit_directly(engine, [1.0, 1.0], 0)
    engine.dictionary.remove(0)
    assert engine.dictionary.size == 0
    assert engine.dictionary.inv_gram.shape == (0, 0)
    delta, coeffs = engine.projection_error(np.array([1.0, 1.0]))
    assert delta == 1.0 and coeffs.shape == (0,)


def test_remove_middle_matches_direct_inverse():
    engine = make_engine()
    a, b, c = np.array([0.0, 0.0]), np.array([2.0, 0.5]), np.array([-1.0, 1.5])
    for i, v in enumerate((a, b, c)):
        admit_directly(engine, v, i)
    engine.dictionary.remove(1)
    err = np.linalg.norm(engine.dictionary.inv_gram - oracle_inverse([a, c], 1.0))
    assert err < 1e-6
    assert engine.dictionary.timesteps == [0, 2]


def test_remove_then_readmit():
    engine = make_engine()
    a, b = np.array([0.0, 0.0]), np.array([1.5, -0.5])
    admit_directly(engine, a, 0)
    admit_directly(engine, b, 1)
    engine.dictionary.remove(1)
    delta, _ = engine.projection_error(b)
    assert delta > 0.0
    admit_directly(engine, b, 2)
    err = np.linalg.norm(engine.dictionary.inv_gram - oracle_inverse([a, b], 1.0))
    assert err < 1e-6


def test_remove_out_of_range():
    engine = make_engine()
    admit_directly(engine, [0.0, 0.0], 0)
    with pytest.raises(IndexError):
        engine.dictionary.remove(1)
    with pytest.raises(IndexError):
        engine.dictionary.remove(-1)


def test_interleaved_admissions_and_removals_track_oracle():
    rng = np.random.default_rng(24)
    for _ in range(30):
        d = int(rng.integers(1, 9))
        sigma = float(rng.uniform(0.8, 2.0))
        engine = make_engine(dim=d, sigma=sigma, max_size=25)
        mirror: list[np.ndarray] = []
        t = 0
        for _ in range(40):
            if mirror and rng.random() < 0.35:
                idx = int(rng.integers(0, len(mirror)))
                engine.dictionary.remove(idx)
                mirror.pop(idx)
            elif len(mirror) < 20:
                x = draw_novel(rng, engine, d)
                admit_directly(engine, x, t)
                mirror.append(x)
                t += 1
            x = rng.normal(size=d)
            got, _ = engine.projection_error(x)
            want, _ = oracle_delta(mirror, x, sigma)
            assert got == pytest.approx(want, abs=1e-8)
        assert engine.dictionary.consistency_error() < 1e-6


def admit_both(engine, reference, rng, t):
    """Admit a novel point into the engine and the textbook reference."""
    x = draw_novel(rng, engine, engine.dim)
    delta, coeffs = engine.projection_error(x)
    kvec = kernel_vector(engine.dictionary.basis, x, engine.config.sigma)
    engine.dictionary.admit(x, t, coeffs, delta, kvec)
    reference.admit(coeffs, delta, kvec)


@pytest.mark.parametrize("max_size", [2, 7, 16, 50])
def test_updates_are_bytewise_the_textbook_leading_block_ones(max_size):
    """Whole-row updates over preallocated buffers, whose columns past m hold
    whatever earlier, larger dictionaries left there, give every entry of
    the active block exactly the textbook update's bits."""
    rng = np.random.default_rng(26 + max_size)
    engine = make_engine(dim=3, sigma=1.2, max_size=max_size)
    dictionary = engine.dictionary
    reference = LeadingBlockUpdates()
    t = 0

    def check():
        assert dictionary.inv_gram.tobytes() == reference.inv.tobytes()
        assert dictionary.gram().tobytes() == reference.gram.tobytes()

    for _ in range(3):
        while dictionary.size < max_size - 1:
            admit_both(engine, reference, rng, t)
            t += 1
            check()
        for op in range(4 * max_size):
            m = dictionary.size
            if m > 1 and (m == max_size or rng.random() < 0.5):
                index = (0, m // 2, m - 1)[op % 3]  # first, a middle, last
                dictionary.remove(index)
                reference.remove(index)
            else:
                admit_both(engine, reference, rng, t)
                t += 1
            check()
        while dictionary.size > 1:
            index = (0, dictionary.size // 2, dictionary.size - 1)[dictionary.size % 3]
            dictionary.remove(index)
            reference.remove(index)
            check()
    assert dictionary.consistency_error() < 1e-6


def test_remove_with_a_degenerate_pivot_rebuilds_the_inverse():
    engine = make_engine()
    rng = np.random.default_rng(27)
    for i in range(6):
        admit_directly(engine, rng.normal(size=2) * 2, i)
    dictionary = engine.dictionary
    dictionary.inv_gram[2, 2] = 1e-13  # a pivot drifted to nearly zero
    changes = dictionary.changes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dictionary.remove(2)
    assert dictionary.size == 5
    assert dictionary.changes == changes + 2  # the removal and the refresh
    np.testing.assert_array_equal(dictionary.inv_gram, np.linalg.inv(dictionary.gram()))
    assert dictionary.consistency_error() < 1e-10


def test_consistency_check_and_refresh():
    engine = make_engine()
    rng = np.random.default_rng(25)
    for i in range(6):
        admit_directly(engine, rng.normal(size=2) * 2, i)
    assert engine.dictionary.consistency_error() < 1e-6
    engine.dictionary.inv_gram[0, 0] += 1e-3  # simulate drift
    assert engine.dictionary.consistency_error() > 1e-6
    engine.dictionary.refresh_inverse()
    assert engine.dictionary.consistency_error() < 1e-10


def test_threshold_config_validation():
    with pytest.raises(ValueError):
        ThresholdConfig(nu1=0.2, nu2=0.1)
    with pytest.raises(ValueError):
        ThresholdConfig(nu1=0.0, nu2=0.1)
    with pytest.raises(ValueError):
        ThresholdConfig(nu1=0.5, nu2=1.0)
    with pytest.raises(ValueError):
        ThresholdConfig(lam=0.0)
    with pytest.raises(ValueError):
        ThresholdConfig(ell=0)
    for field, value in (("sigma", np.nan), ("sigma", np.inf), ("usage_floor", np.nan)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ThresholdConfig(**{field: value})
    assert ThresholdConfig().green_quota == 4  # ceil(0.2 * 20)
