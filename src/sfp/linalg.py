"""Finite-dimensional real inner-product space primitives.

Vectors are plain 1-D float64 numpy arrays (validated via :func:`as_vector`);
dense linear operators carry their adjoint and a deterministic spectral-norm
estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "PowerIterationError",
    "as_vector",
    "inner",
    "norm",
    "LinearMap",
]


class DimensionMismatch(ValueError):
    """Vector or operator dimensions are incompatible."""


class PowerIterationError(RuntimeError):
    """Spectral-norm estimate did not settle within the iteration budget.

    The last estimate is kept on the ``estimate`` attribute so callers can
    still inspect the partial result.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Return ``x`` as a validated, read-only 1-D float64 array.

    Rejects empty vectors and non-finite entries; when ``dim`` is given the
    length must match.
    """
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with >= 1 entry, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must all be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got {v.size}")
    v.flags.writeable = False
    return v


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean inner product; raises DimensionMismatch on length mismatch."""
    if x.shape != y.shape:
        raise DimensionMismatch(f"inner product needs equal dimensions, got {x.size} and {y.size}")
    return float(np.dot(x, y))


def norm(x: np.ndarray) -> float:
    """Euclidean norm, sqrt(<x, x>)."""
    return math.sqrt(float(np.dot(x, x)))


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense real matrix acting as a bounded linear operator with adjoint."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must all be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(np.eye(dim))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product; x must have dimension ``cols``."""
        if x.size != self.cols:
            raise DimensionMismatch(f"operator expects dimension {self.cols}, got {x.size}")
        return self.matrix @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose-vector product; y must have dimension ``rows``."""
        if y.size != self.rows:
            raise DimensionMismatch(f"adjoint expects dimension {self.rows}, got {y.size}")
        return self.matrix.T @ y

    def operator_norm(self, tol: float = 1e-12, max_iter: int = 10_000) -> float:
        """Estimate the largest singular value by power iteration on M^T M.

        The start vector is a random unit vector drawn from a fixed seed, so
        repeated calls are reproducible and the start is not orthogonal to the
        top singular vector (as the all-ones vector is for ``[[1, -1]]``).
        Convergence means two consecutive Rayleigh-quotient
        estimates agree to relative tolerance ``tol``; otherwise
        :class:`PowerIterationError` is raised carrying the last estimate.
        """
        if tol <= 0:
            raise ValueError("tol must be > 0")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        gram = self.matrix.T @ self.matrix
        v = np.random.default_rng(0).standard_normal(self.cols)
        v /= norm(v)
        estimate_prev = None
        for _ in range(max_iter):
            w = gram @ v
            rayleigh = float(v @ w)
            estimate = math.sqrt(max(rayleigh, 0.0))
            wn = norm(w)
            if wn == 0.0:
                return 0.0
            v = w / wn
            if estimate_prev is not None and abs(estimate - estimate_prev) <= tol * max(estimate, 1e-300):
                return estimate
            estimate_prev = estimate
        raise PowerIterationError(
            f"power iteration did not converge in {max_iter} iterations (last estimate {estimate_prev})",
            estimate=estimate_prev if estimate_prev is not None else 0.0,
        )
