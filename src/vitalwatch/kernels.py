"""Kernel functions used by the online detector.

The kernel is the Gaussian (RBF) kernel, normalized so that k(x, x) = 1,
which the engine relies on when turning kernel values into projection
errors. Every function takes the bandwidth ``sigma`` last; its one
definition and its one check (sigma > 0) are ``ThresholdConfig.sigma``.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum


def kernel_eval(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Evaluate k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).

    Symmetric, bounded in (0, 1], and equal to 1 exactly when x == y.
    A dimension mismatch is a programming fault, not a data fault.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    sq = float(diff @ diff)
    return float(np.exp(-sq / (2.0 * sigma**2)))


def kernel_vector(basis: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel values of x against every basis row.

    basis is an (m, d) float array (m may be 0). x is a length-d float
    array, giving a length-m vector whose j-th entry is
    exp(-||basis[j] - x||^2 / (2 sigma^2)), or a (B, d) block of arrivals,
    giving a (B, m) array whose row i is bitwise the result for x[i] alone.
    """
    if x.shape == basis.shape[1:]:
        # One arrival, the case ``step`` and ``_admit``'s column take: one
        # shape compare stands for every check below.
        diff = basis - x
    elif basis.size == 0:
        return np.zeros(x.shape[:-1] + (0,))
    elif basis.ndim != 2 or basis.shape[1] != x.shape[-1]:
        raise ValueError(f"dimension mismatch: basis {basis.shape} vs x {x.shape}")
    else:
        # Stack the (m, d) differences of each arrival into B * m rows, so
        # the one-arrival einsum below sums every row. Repeating x and
        # subtracting the basis in place is several times faster than the
        # broadcast basis - x[:, None, :], whose inner loop is only d long.
        stacked = np.repeat(x, len(basis), axis=0).reshape(len(x), *basis.shape)
        np.subtract(basis, stacked, out=stacked)
        diff = stacked.reshape(-1, basis.shape[1])
    # einsum, not (diff * diff).sum(axis=1): the two round differently, and
    # the engine's verdicts are pinned to this summation. np.einsum with
    # optimize off (its default) returns c_einsum(*operands); calling it
    # here skips the dispatch and the Python wrapper around that call.
    sq = c_einsum("ij,ij->i", diff, diff)
    sq /= -(2.0 * sigma**2)
    np.exp(sq, sq)
    return sq if x.ndim == 1 else sq.reshape(len(x), len(basis))


def gram_matrix(basis: np.ndarray, sigma: float) -> np.ndarray:
    """Full kernel matrix of the basis rows (used by consistency checks)."""
    basis = np.asarray(basis, dtype=float)
    m = basis.shape[0] if basis.ndim == 2 else 0
    if m == 0:
        return np.zeros((0, 0))
    sq = np.sum((basis[:, None, :] - basis[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / (2.0 * sigma**2))
