"""Kernel functions used by the online detector.

The kernel is the Gaussian (RBF) kernel, normalized so that k(x, x) = 1,
which the engine relies on when turning kernel values into projection
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel bandwidth.

    bandwidth_sigma is in units of the (standardized) feature space; inputs
    are expected to be z-scored upstream, so 1.0 is a natural default scale.
    """

    bandwidth_sigma: float = 1.0
    # 2 sigma^2, the divisor of every squared distance.
    two_sigma_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bandwidth_sigma <= 0:
            raise ValueError(f"bandwidth_sigma must be > 0, got {self.bandwidth_sigma}")
        object.__setattr__(self, "two_sigma_sq", 2.0 * self.bandwidth_sigma**2)


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
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
    return float(np.exp(-sq / spec.two_sigma_sq))


def kernel_vector(spec: KernelSpec, basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Kernel values of x against every basis row.

    basis is an (m, d) float array (m may be 0) and x a length-d float
    array; returns a length-m vector whose j-th entry is
    exp(-||basis[j] - x||^2 / (2 sigma^2)).
    """
    if basis.size == 0:
        return np.zeros(0)
    if basis.ndim != 2 or basis.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: basis {basis.shape} vs x {x.shape}")
    diff = basis - x
    # einsum, not (diff * diff).sum(axis=1): the two round differently, and
    # the engine's verdicts are pinned to this summation.
    sq = np.einsum("ij,ij->i", diff, diff)
    sq /= -spec.two_sigma_sq
    return np.exp(sq, out=sq)


def gram_matrix(spec: KernelSpec, basis: np.ndarray) -> np.ndarray:
    """Full kernel matrix of the basis rows (used by consistency checks)."""
    basis = np.asarray(basis, dtype=float)
    m = basis.shape[0] if basis.ndim == 2 else 0
    if m == 0:
        return np.zeros((0, 0))
    sq = np.sum((basis[:, None, :] - basis[None, :, :]) ** 2, axis=-1)
    return np.exp(-sq / spec.two_sigma_sq)
