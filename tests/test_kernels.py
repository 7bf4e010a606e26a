import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vitalwatch.engine import ThresholdConfig
from vitalwatch.kernels import kernel_eval, kernel_vector

from _oracles import oracle_kernel

SIGMA = 1.0


def test_zero_distance_is_one():
    x = np.array([3.0, -1.5, 0.25])
    assert kernel_eval(x, x, SIGMA) == 1.0


def test_unit_distance_closed_form():
    # exp(-1 / 2) for x=(0,0), y=(1,0), sigma=1
    got = kernel_eval(np.array([0.0, 0.0]), np.array([1.0, 0.0]), SIGMA)
    assert got == pytest.approx(0.6065306597126334, abs=1e-12)


def test_symmetry_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        assert kernel_eval(x, y, SIGMA) == kernel_eval(y, x, SIGMA)


def test_bounds_and_equality_condition():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        k = kernel_eval(x, y, SIGMA)
        assert 0.0 < k <= 1.0
        if not np.array_equal(x, y):
            assert k < 1.0


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        kernel_eval(np.zeros(2), np.zeros(3), SIGMA)
    with pytest.raises(ValueError):
        kernel_vector(np.zeros((2, 3)), np.zeros(2), SIGMA)
    with pytest.raises(ValueError):
        kernel_vector(np.zeros((2, 3)), np.zeros((5, 2)), SIGMA)
    # (m, 1) - (4,) broadcasts without complaint, so only the width check
    # stops a one-wide basis scoring a four-wide arrival
    with pytest.raises(ValueError):
        kernel_vector(np.zeros((3, 1)), np.zeros(4), SIGMA)


def test_bandwidth_must_be_positive():
    with pytest.raises(ValueError):
        ThresholdConfig(sigma=0.0)
    with pytest.raises(ValueError):
        ThresholdConfig(sigma=-1.0)


def test_kernel_vector_singleton_and_empty():
    x = np.array([1.0, 2.0])
    assert kernel_vector(x[None, :], x, SIGMA).tolist() == [1.0]
    assert kernel_vector(np.zeros((0, 2)), x, SIGMA).shape == (0,)
    assert kernel_vector(np.zeros((0, 2)), np.stack([x, x, x]), SIGMA).shape == (3, 0)


def test_kernel_vector_matches_elementwise_eval():
    rng = np.random.default_rng(13)
    basis = rng.normal(size=(3, 2))
    x = rng.normal(size=2)
    got = kernel_vector(basis, x, SIGMA)
    want = [kernel_eval(b, x, SIGMA) for b in basis]
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_kernel_vector_block_rows_equal_single_calls_bitwise():
    rng = np.random.default_rng(16)
    for d in (1, 4, 7):
        # a leading view of a larger buffer, as the engine's basis is
        basis = (rng.normal(size=(50, d)) * 2)[:37]
        for b in (1, 2, 16, 64):
            block = rng.normal(size=(b, d)) * 2
            got = kernel_vector(basis, block, 2.5)
            assert got.shape == (b, 37)
            for row, x in zip(got, block):
                assert row.tobytes() == kernel_vector(basis, x, 2.5).tobytes()


def test_kernel_vector_bytes_equal_the_public_einsum():
    """The kernel row calls numpy's C einsum without its Python wrapper; a
    numpy whose np.einsum("ij,ij->i", ...) sums differently fails here."""
    rng = np.random.default_rng(17)
    sigma = 2.5
    scale = -(2.0 * sigma**2)

    def reference(basis, x):
        # every arrival's (m, d) differences, one arrival after another
        diff = (basis - x[..., None, :]).reshape(-1, basis.shape[1])
        sq = np.einsum("ij,ij->i", diff, diff)
        return np.exp(sq / scale).reshape(x.shape[:-1] + (len(basis),))

    for d in (1, 4, 7):
        buffer = rng.normal(size=(50, d)) * 2
        for m in (0, 1, 37, 50):
            basis = buffer[:m]  # a leading view, as the engine's basis is
            for x in (rng.normal(size=d) * 2, rng.normal(size=(16, d)) * 2):
                got = kernel_vector(basis, x, sigma)
                want = reference(basis, x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_matches_independent_oracle():
    rng = np.random.default_rng(14)
    for sigma in (0.5, 1.0, 2.5):
        for _ in range(50):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            assert kernel_eval(x, y, sigma) == pytest.approx(
                oracle_kernel(x, y, sigma), abs=1e-14
            )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.3, max_value=3.0),
)
def test_gram_positive_semidefinite(m, d, seed, sigma):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(m, d))
    gram = np.array([kernel_vector(basis, row, sigma) for row in basis])
    eigvals = np.linalg.eigvalsh(gram)
    assert eigvals.min() >= -1e-9
