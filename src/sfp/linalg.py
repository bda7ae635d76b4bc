"""Finite-dimensional real inner-product space primitives.

Vectors are plain 1-D float64 numpy arrays (validated via :func:`as_vector`);
dense linear operators carry their adjoint and their exact spectral norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "as_vector",
    "inner",
    "norm",
    "LinearMap",
]


class DimensionMismatch(ValueError):
    """Vector or operator dimensions are incompatible."""


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

    def operator_norm(self) -> float:
        """The spectral norm ||M||, the largest singular value (LAPACK's SVD)."""
        return float(np.linalg.norm(self.matrix, 2))
