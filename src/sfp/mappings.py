"""Self-maps with declared contraction classes, and sample-based class checks.

The class tags mirror the usual hierarchy: contraction < nonexpansive <
quasi-nonexpansive < demicontractive.  Verification utilities are sampling
certificates, never proofs: they take the sample as a ``(k, dim)`` point
array and return the largest violation over it.  Outside the solver's step a
map is evaluated only by calling its :class:`Mapping`, on a point or on a
``(k, dim)`` stack at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DimensionMismatch, as_array, as_vector, matvec, norm, row_dots, row_norms, within

__all__ = [
    "CLASS_TAGS",
    "Mapping",
    "average",
    "fixed_point_residual",
    "estimate_demicontractive_modulus",
    "verify_quasi_nonexpansive",
    "identity_map",
    "zero_map",
    "scaling_map",
    "linear_mapping",
    "unit_interval_jump_map",
    "mapping_from_name",
]

CLASS_TAGS = frozenset(
    {
        "contraction",
        "nonexpansive",
        "quasi_nonexpansive",
        "strictly_pseudocontractive",
        "demicontractive",
        "generic",
    }
)
_TAGS_WITH_MODULUS = frozenset({"contraction", "strictly_pseudocontractive", "demicontractive"})


_STACK_CONTRACT = "a Mapping's fn must map a (k, dim) stack row by row, each row as it maps that point alone"


def _same_point(row: np.ndarray, alone) -> bool:
    """Whether ``row`` is ``alone`` (equal, NaN included) or within
    1e-10 * max(1, ||row||) of it, a declared fixed point's tolerance."""
    alone = np.asarray(alone, dtype=float)
    return row.shape == alone.shape and (np.array_equal(row, alone, equal_nan=True)
                                         or within(norm(row - alone), row, 1e-10))


@dataclass(frozen=True, eq=False)
class Mapping:
    """A self-map on R^dim with a declared class tag.

    ``fn`` maps a float64 vector of size ``dim`` to one, and a ``(k, dim)``
    stack row by row, each row as it maps that point alone; the built-in
    maps give the same bits per row.  The solver's step calls ``fn`` on
    single vectors directly; everything else calls the mapping, which
    checks stacked results (see :meth:`__call__`).  ``known_fixed_points``
    entries are validated at construction (residual <= 1e-10 * max(1,
    ||p||)).  Demiclosedness is an analytic assumption of the convergence
    theory; no field records it and nothing verifies it numerically.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    class_tag: str = "generic"
    modulus: float | None = None
    known_fixed_points: tuple = ()

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        if self.class_tag in _TAGS_WITH_MODULUS:
            if self.modulus is None or not (0.0 <= self.modulus < 1.0):
                raise ValueError(f"class {self.class_tag!r} needs a modulus in [0, 1)")
        pts = tuple(as_vector(p, self.dim) for p in self.known_fixed_points)
        object.__setattr__(self, "known_fixed_points", pts)
        for p in pts:
            if not within(fixed_point_residual(self, p), p, 1e-10):
                raise ValueError("declared fixed point has residual > 1e-10 * max(1, ||p||)")

    def __call__(self, x) -> np.ndarray:
        """T x for a point, or T of each row of a ``(k, dim)`` stack in one call
        of ``fn``.  A stack's result is refused with a ``ValueError`` naming
        the contract when ``fn`` raises on the stack but on none of its rows
        alone (a row's own error passes as it is), when its shape is not the
        stack's, or when its first row is not :func:`_same_point` as ``fn`` of
        the first point alone, which costs one one-point call."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DimensionMismatch(f"mapping acts on dimension {self.dim}, got shape {x.shape}")
        if x.ndim == 1:
            return np.asarray(self.fn(x), dtype=float)
        try:
            out = np.asarray(self.fn(x), dtype=float)
        except Exception as exc:
            for row in x:
                self.fn(row)
            raise ValueError(f"fn raised on a {x.shape} stack ({exc}); {_STACK_CONTRACT}") from exc
        if out.shape != x.shape or len(x) and not _same_point(out[0], self.fn(x[0])):
            raise ValueError(f"fn's {out.shape} result for a {x.shape} stack is not fn of each row; "
                             + _STACK_CONTRACT)
        return out


def _averaged_tag(base: Mapping, lam: float) -> tuple[str, float | None]:
    # (1-lam) I + lam T keeps the base class for the convex ones (a
    # contraction whose modulus rounds to 1 is only nonexpansive); a
    # demicontractive base becomes quasi-nonexpansive when lam < 1 - k.
    if base.class_tag == "contraction":
        modulus = 1.0 - lam * (1.0 - base.modulus)
        return ("contraction", modulus) if modulus < 1.0 else ("nonexpansive", None)
    if base.class_tag in ("nonexpansive", "quasi_nonexpansive"):
        return base.class_tag, None
    if base.class_tag == "demicontractive" and lam < 1.0 - base.modulus:
        return "quasi_nonexpansive", None
    return "generic", None


def average(base: Mapping, lam: float) -> Mapping:
    """Averaged map (1 - lam) I + lam base for lam in (0, 1]."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("averaging weight must lie in (0, 1]")
    tag, modulus = _averaged_tag(base, lam)
    keep, fn = 1.0 - lam, base.fn
    averaged = Mapping(fn=lambda x: keep * x + lam * fn(x), dim=base.dim, class_tag=tag, modulus=modulus)
    # Fix((1 - lam) I + lam base) = Fix(base), and the base validated its points
    object.__setattr__(averaged, "known_fixed_points", base.known_fixed_points)
    return averaged


def fixed_point_residual(mapping, x):
    """||T(x) - x||, the quantity an iteration drives to zero, for a point or
    for each row of a ``(k, dim)`` stack."""
    x = np.asarray(x, dtype=float)
    return row_norms(mapping(x) - x)


def _checked(mapping, fixed_point, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The validated fixed point y, the ``(k, dim)`` points and their images,
    taken by one stacked call of ``mapping``."""
    y = as_vector(fixed_point, mapping.dim)
    if not within(fixed_point_residual(mapping, y), y, 1e-10):
        raise ValueError("fixed_point is not a fixed point (residual > 1e-10 * max(1, ||p||))")
    try:
        shape = np.shape(points)
    except ValueError:  # numpy gives a ragged list no shape
        shape = None
    if shape is None or len(shape) != 2 or shape[0] < 1 or shape[1] != mapping.dim:
        got = "a ragged list" if shape is None else f"shape {shape}"
        raise ValueError(f"points must be a (k, {mapping.dim}) array with k >= 1, got {got}")
    x = as_array(points, 2, "points")
    return y, x, mapping(x)


def estimate_demicontractive_modulus(mapping, fixed_point, points) -> float:
    """Smallest k >= 0 with ||Tx - y||^2 <= ||x - y||^2 + k ||x - Tx||^2 over
    the rows x of ``points``, a ``(k, dim)`` array.

    Points x with ||x - Tx|| <= 1e-12 are skipped (the ratio is vacuous there);
    the estimate is floored at 0.  A result < 1 certifies demicontractivity on
    the sample only.
    """
    y, x, tx = _checked(mapping, fixed_point, points)
    move2 = row_dots(x - tx, x - tx)
    moved = move2 > 1e-24
    gain = row_dots(tx - y, tx - y) - row_dots(x - y, x - y)
    return float(np.max(gain[moved] / move2[moved], initial=0.0))


def verify_quasi_nonexpansive(mapping, fixed_point, points) -> float:
    """The largest slack ||Tx - y|| - ||x - y|| over the rows x of ``points``, a
    ``(k, dim)`` array; <= 1e-10 certifies quasi-nonexpansiveness on the sample."""
    y, x, tx = _checked(mapping, fixed_point, points)
    return float(np.max(row_norms(tx - y) - row_norms(x - y)))


# --- built-in mappings ----------------------------------------------------


def identity_map(dim: int) -> Mapping:
    return Mapping(fn=lambda x: x.copy(), dim=dim, class_tag="nonexpansive")


def zero_map(dim: int) -> Mapping:
    """The null map g = 0, a contraction with modulus 0."""
    return Mapping(
        fn=lambda x: np.zeros(x.shape),
        dim=dim,
        class_tag="contraction",
        modulus=0.0,
        known_fixed_points=(np.zeros(dim),),
    )


def scaling_map(dim: int, c: float) -> Mapping:
    """g(x) = c x; a contraction with modulus |c| for |c| < 1."""
    if not (0.0 <= abs(c) < 1.0):
        raise ValueError("scaling contraction needs |c| < 1")
    return Mapping(
        fn=lambda x: c * x,
        dim=dim,
        class_tag="contraction",
        modulus=abs(c),
        known_fixed_points=(np.zeros(dim),),
    )


def linear_mapping(matrix, class_tag: str = "generic", modulus: float | None = None, known_fixed_points=()) -> Mapping:
    """Mapping given by a finite square matrix, read as :class:`LinearMap` reads it."""
    m = as_array(matrix, 2, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ValueError("linear mapping needs a square matrix")
    return Mapping(
        fn=lambda x: matvec(m, x),
        dim=m.shape[0],
        class_tag=class_tag,
        modulus=modulus,
        known_fixed_points=known_fixed_points,
    )


def unit_interval_jump_map() -> Mapping:
    """The 1-D jump map on [0, 1]: x -> 7/8 for x < 1 and 1 -> 1/4.

    Demicontractive with modulus 2/3 (attained at x = 1) but not
    quasi-nonexpansive, which makes it the standard separating example for
    the class hierarchy.  Its only fixed point is 7/8.
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = x[..., 0]
        if not np.all((-1e-12 <= t) & (t <= 1.0 + 1e-12)):
            raise ValueError("jump map is defined on [0, 1]")
        return np.where(t >= 1.0, 0.25, 0.875)[..., None]

    return Mapping(
        fn=f,
        dim=1,
        class_tag="demicontractive",
        modulus=2.0 / 3.0,
        known_fixed_points=(np.array([0.875]),),
    )


def mapping_from_name(spec: str, dim: int | None = None) -> Mapping:
    """Resolve a mapping from its registry name.

    Supported: ``identity``, ``zero``, ``example-2.2``,
    ``contraction-scale:<c>`` and ``linear:<row-major matrix>`` (JSON literal).
    """
    if spec == "example-2.2":
        return unit_interval_jump_map()
    if spec.startswith("linear:"):
        try:
            rows = json.loads(spec.split(":", 1)[1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad matrix literal in {spec!r}: {exc}") from exc
        return linear_mapping(rows)
    if spec not in ("identity", "zero") and not spec.startswith("contraction-scale:"):
        raise ValueError(f"unknown mapping name {spec!r}")
    kind = spec.split(":", 1)[0]
    if dim is None:
        raise ValueError(f"{kind} mapping needs a dimension")
    if kind == "identity":
        return identity_map(dim)
    if kind == "zero":
        return zero_map(dim)
    return scaling_map(dim, float(spec.split(":", 1)[1]))
