"""Finite-dimensional real inner-product space primitives.

Vectors are plain 1-D float64 numpy arrays (validated via :func:`as_vector`);
dense linear operators carry their adjoint and compute their exact spectral
norm (an SVD on each call of ``operator_norm``).

``row_dots``, ``row_norms``, ``matvec`` and the operator products also take
a ``(k, dim)`` stack of vectors and act on each row.  A stack is computed
with one BLAS call per row (numpy's stacked ``matmul`` issues the ``ddot`` or
``gemv`` that the single vector gets), so row i carries the same bits as the
result for that row alone.  A matrix-matrix product (gemm) or ``einsum``
would not.  A single vector goes through the bound method ``ndarray.dot``:
the same ``ddot`` or ``gemv`` as ``@`` and ``np.dot``, without the ``matmul``
ufunc or ``np.dot``'s dispatcher, which cost more than the product itself at
dim 5.  ``norm`` takes single vectors only: the solver's step calls it twice
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DimensionMismatch",
    "as_vector",
    "norm",
    "within",
    "row_dots",
    "row_norms",
    "matvec",
    "block_rows",
    "LinearMap",
]


# Values per block of stacked rows of a narrow problem (see block_rows).
BLOCK_VALUES = 1024


def block_rows(width: int) -> int:
    """The rows to a block of stacked rows of ``width`` values each: ``run``
    takes the steps of a problem of dimension ``width`` in blocks of this many.

    Up to width 64 a block holds about ``BLOCK_VALUES`` values (204 rows at
    width 5, 16 at 64).  A wider problem still gets 16 rows, so that the
    per-block work (the schedule rows and their checks, the records, one
    hook call) runs once per 16 steps, however little of a step's time it is
    next to the products.  Up to 2**17 values (1 MiB of float64) make one
    stack, so from width 8,193 the rows fall, to one from width 65,537 on.
    A block's iterate stack is 16 x 2,000 x 8 B = 250 KiB at dim 2,000 and
    one row of 781 KiB at dim 10**5.  The step keeps four scalars of each of
    its steps for the records and no vector: a ``run`` of one block peaked at
    0.77 MiB of traced memory at dim 2,000 and at 6.9 MiB at dim 10**5, the
    matrix aside.  ``solver.monitors`` stacks a block's vectors again, one
    block at a time.
    """
    return max(1, BLOCK_VALUES // width, min(16, 2**17 // width))


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


def norm(x: np.ndarray) -> float:
    """Euclidean norm, sqrt(<x, x>)."""
    return math.sqrt(float(x.dot(x)))


def within(residual: float, point: np.ndarray, tol: float) -> bool:
    """Whether ``residual <= tol * max(1, ||point||)``: a check relative to
    the point's size, as rounding grows with it (the norm is taken only
    when the absolute test fails)."""
    return residual <= tol or residual <= tol * norm(point)


def row_dots(x: np.ndarray, y: np.ndarray):
    """<x_i, y_i> for each row of a stack ``x`` against ``y``, a stack of the
    same shape or one vector (one ddot per row); a single vector ``x`` gives
    its inner product with ``y``."""
    if x.ndim == 1:
        return float(x.dot(y))
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def row_norms(x: np.ndarray):
    """The Euclidean norm of each row of a stack; a single vector gives its norm."""
    return norm(x) if x.ndim == 1 else np.sqrt(row_dots(x, x))


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product ``m @ x``; for a stack, ``m @ x_i`` for each row (one gemv per row)."""
    return m.dot(x) if x.ndim == 1 else np.matmul(m, x[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Dense real matrix acting as a bounded linear operator with adjoint."""

    matrix: np.ndarray
    adjoint: np.ndarray = field(init=False, repr=False)  # the view matrix.T, made once

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must all be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "adjoint", m.T)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product, one per row of a stack; x's last axis must
        have length ``cols``."""
        if x.ndim == 0 or x.shape[-1] != self.matrix.shape[1]:
            raise DimensionMismatch(f"operator expects dimension {self.cols}, got shape {x.shape}")
        return matvec(self.matrix, x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose-vector product, one per row of a stack; y's last axis must
        have length ``rows``."""
        if y.ndim == 0 or y.shape[-1] != self.matrix.shape[0]:
            raise DimensionMismatch(f"adjoint expects dimension {self.rows}, got shape {y.shape}")
        return matvec(self.adjoint, y)

    def operator_norm(self) -> float:
        """The spectral norm ||M||, the largest singular value (LAPACK's SVD)."""
        return float(np.linalg.norm(self.matrix, 2))
