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
    "as_array",
    "as_points",
    "as_vector",
    "as_real",
    "as_integer",
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
_BOOLS = frozenset({bool, np.bool_})  # the types of a bool entry, which as_array refuses


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


def _floats(x, name: str, shape: str, ndim: int | None = None) -> np.ndarray:
    """A new float64 array of ``x``.  A ragged list is refused as not a ``shape``,
    as is another number of axes than ``ndim`` or an empty axis where ``ndim``
    is given; so is a bool array or a bool at any depth of a list (a bool as
    :func:`as_real` refuses one).  ``name`` leads the message."""
    try:
        a = np.array(x, dtype=float)
    except ValueError:
        try:
            np.shape(x)  # numpy gives a ragged list no shape
        except ValueError:
            raise ValueError(f"{name} is a ragged list, not a {shape}") from None
        raise  # an entry that does not read as a number, which numpy's message names
    if ndim is not None and (a.ndim != ndim or 0 in a.shape):
        raise ValueError(f"expected a {shape}, got shape {a.shape}")
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        entry = next((e for e in np.array(x, dtype=object).flat if type(e) in _BOOLS), None)
        if entry is not None:
            raise ValueError(f"{name} entries must be numbers, got {bool(entry)}")
    return a


def as_array(x, ndim: int, name: str) -> np.ndarray:
    """A new read-only float64 copy of ``x`` with ``ndim`` (1 or 2) nonempty axes
    and finite entries, read by :func:`_floats`, which refuses a ragged list and a bool."""
    a = _floats(x, name, "1-D vector with >= 1 entry" if ndim == 1 else "2-D matrix", ndim)
    if not np.logical_and.reduce(np.isfinite(a), axis=None):  # .all() without its Python wrapper
        raise ValueError(f"{name} entries must all be finite")
    a.flags.writeable = False
    return a


def as_points(x, name: str) -> np.ndarray:
    """A point or a ``(k, dim)`` stack of points as float64: a float64 ndarray is ``x``
    itself, with no copy and no pass over its entries; anything else is read by
    :func:`_floats`, as :func:`as_array` reads it, at any shape and with any entries."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return _floats(x, name, "point or stack of points")


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """:func:`as_array` for a vector, whose length must be ``dim`` when given."""
    v = as_array(x, 1, name)
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected a vector of dimension {dim}, got {v.size}")
    return v


def as_real(value, name: str) -> float:
    """``float(value)`` for a number or a string that reads as one; a bool or
    anything else is a ``ValueError`` that names ``name``."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def as_integer(value, name: str) -> int:
    """``int(value)`` for an integral number or a string of an integer; a
    bool, a fraction or anything else is a ``ValueError`` that names ``name``."""
    if not isinstance(value, bool):
        try:
            integer = int(value)
            if isinstance(value, str) or integer == value:
                return integer
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        object.__setattr__(self, "matrix", as_array(self.matrix, 2, "matrix"))
        object.__setattr__(self, "adjoint", self.matrix.T)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product, one per row of a stack; x's last axis must
        have length ``cols``.  Anything but an ndarray is read by :func:`as_points`."""
        x = x if isinstance(x, np.ndarray) else as_points(x, "x")
        if x.ndim == 0 or x.shape[-1] != self.matrix.shape[1]:
            raise DimensionMismatch(f"operator expects dimension {self.cols}, got shape {x.shape}")
        return matvec(self.matrix, x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose-vector product, one per row of a stack; y's last axis must
        have length ``rows``.  Anything but an ndarray is read by :func:`as_points`."""
        y = y if isinstance(y, np.ndarray) else as_points(y, "y")
        if y.ndim == 0 or y.shape[-1] != self.matrix.shape[0]:
            raise DimensionMismatch(f"adjoint expects dimension {self.rows}, got shape {y.shape}")
        return matvec(self.adjoint, y)

    def operator_norm(self) -> float:
        """The spectral norm ||M||, the largest singular value (LAPACK's SVD)."""
        return float(np.linalg.norm(self.matrix, 2))
