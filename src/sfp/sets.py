"""Closed convex sets with exact metric projections.

Every set kind has a closed-form nearest-point map, so the projection
characterization, firm nonexpansiveness and idempotence can be checked
numerically to tight tolerances.

``project`` and :func:`membership_residual` take one point or a ``(k, dim)``
stack of points, read by :func:`~sfp.linalg.as_points`; row i of a stacked
result has the same bits as the result for that row alone.  A single point
keeps its scalar branch (the solver's step projects one point per call); a
stack makes the same choice per row with a mask.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .linalg import LinearMap, as_integer, as_points, as_real, as_vector, matvec, norm, row_dots, row_norms

__all__ = [
    "ConvexSet",
    "Box",
    "Ball",
    "Halfspace",
    "Hyperplane",
    "Singleton",
    "AffineNullspace",
    "WholeSpace",
    "membership_residual",
    "check_projection_characterization",
]


class ConvexSet:
    """Base class: a nonempty closed convex set in R^dim with an exact projection,
    whose ``project`` takes a point of dimension ``dim`` or a ``(k, dim)``
    stack, read by :func:`~sfp.linalg.as_points` (any other shape is refused)."""

    kind: str = "abstract"
    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray
    kind = "box"

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        up = as_vector(self.upper, lo.size, "upper")
        if np.any(lo > up):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "dim", lo.size)

    def project(self, x):
        x = as_points(x, self.dim, "x")
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float
    kind = "ball"

    def __post_init__(self):
        c = as_vector(self.center, name="center")
        radius = as_real(self.radius, "radius")
        if not radius > 0:
            raise ValueError("ball requires radius > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "dim", c.size)

    def project(self, x):
        x = as_points(x, self.dim, "x")
        d = x - self.center
        dist = row_norms(d)
        if x.ndim == 1:
            return x.copy() if dist <= self.radius else self.center + (self.radius / dist) * d
        out = x.copy()
        far = ~(dist <= self.radius)  # a kept row's distance, maybe 0, is never divided by
        out[far] = self.center + (self.radius / dist[far])[:, None] * d[far]
        return out


@dataclass(frozen=True, eq=False)
class _NormalOffset(ConvexSet):
    """The data of a halfspace or hyperplane: a nonzero normal and a finite
    offset.  ``normal_sq`` = <normal, normal> is taken once, here."""

    normal: np.ndarray
    offset: float
    normal_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        a = as_vector(self.normal, name="normal")
        offset = as_real(self.offset, "offset")
        if not math.isfinite(offset):
            raise ValueError(f"{self.kind} offset must be finite, got {offset}")
        with np.errstate(over="ignore"):
            normal_sq = row_dots(a, a)
            if not sys.float_info.min <= normal_sq < math.inf:
                # <a, a> over- or underflows: scaling a and the offset by one
                # power of two, the largest entry of a into [1/2, 1), keeps the set
                shift = -math.frexp(np.max(np.abs(a)))[1]
                a, offset = as_vector(np.ldexp(a, shift)), float(np.ldexp(offset, shift))
                normal_sq = row_dots(a, a)
        if normal_sq == 0.0:
            raise ValueError(f"{self.kind} normal must be nonzero")
        if not math.isfinite(offset):
            raise ValueError(f"{self.kind} offset {self.offset} is too large for a normal of this size")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "normal_sq", normal_sq)
        object.__setattr__(self, "dim", a.size)


class Halfspace(_NormalOffset):
    """Halfspace {x : <normal, x> <= offset}."""

    kind = "halfspace"

    def project(self, x):
        x = as_points(x, self.dim, "x")
        excess = row_dots(x, self.normal) - self.offset
        if x.ndim == 1:
            return x.copy() if excess <= 0.0 else x - (excess / self.normal_sq) * self.normal
        out = x.copy()
        over = ~(excess <= 0.0)
        out[over] = x[over] - (excess[over] / self.normal_sq)[:, None] * self.normal
        return out


class Hyperplane(_NormalOffset):
    """Hyperplane {x : <normal, x> = offset}."""

    kind = "hyperplane"

    def project(self, x):
        x = as_points(x, self.dim, "x")
        scale = (row_dots(x, self.normal) - self.offset) / self.normal_sq
        return x - np.multiply.outer(scale, self.normal)


@dataclass(frozen=True, eq=False)
class Singleton(ConvexSet):
    """One-point set {point}."""

    point: np.ndarray
    kind = "singleton"

    def __post_init__(self):
        p = as_vector(self.point, name="point")
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "dim", p.size)

    def project(self, x):
        x = as_points(x, self.dim, "x")
        return self.point.copy() if x.ndim == 1 else np.broadcast_to(self.point, x.shape).copy()


@dataclass(frozen=True, eq=False)
class AffineNullspace(ConvexSet):
    """Null space {x : Mx = 0} of a linear map, projected via an orthonormal basis.

    An orthonormal basis of null(M) is precomputed from the SVD of M, counting
    as zero the singular values at or below 1e-10 * ||M||, which makes every
    projection an exact subspace projection B (B^T x).  The set is never empty
    since 0 is always a member.
    """

    map: LinearMap
    basis: np.ndarray = field(init=False, repr=False)
    basis_t: np.ndarray = field(init=False, repr=False)  # the view basis.T, made once
    kind = "affine_nullspace"

    def __post_init__(self):
        _, s, vt = np.linalg.svd(self.map.matrix)
        tol = 1e-10 * float(s[0])
        rank = int(np.sum(s > tol)) if s[0] > 0.0 else 0
        basis = vt[rank:].T.copy()  # (cols, cols - rank), orthonormal columns
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "basis_t", basis.T)
        object.__setattr__(self, "dim", self.map.cols)

    def project(self, x):
        x = as_points(x, self.dim, "x")
        return matvec(self.basis, matvec(self.basis_t, x))


@dataclass(frozen=True, eq=False)
class WholeSpace(ConvexSet):
    """The whole ambient space; projection is the identity."""

    dim: int
    kind = "whole_space"

    def __post_init__(self):
        object.__setattr__(self, "dim", as_integer(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    def project(self, x):
        x = as_points(x, self.dim, "x")
        return x.copy()


def membership_residual(cset: ConvexSet, x: np.ndarray):
    """Distance from x to the set, ||x - P(x)||; ~0 iff x is a member.  For a
    stack, the distance of each row."""
    x = as_points(x, cset.dim, "x")
    return row_norms(x - cset.project(x))


def check_projection_characterization(
    cset: ConvexSet, x: np.ndarray, samples: int = 100, seed: int = 0
) -> float:
    """Sample-check that z = P(x) satisfies <x - z, y - z> <= 0 for members y.

    Members are drawn by projecting ambient Gaussian points.  Returns the
    maximum inner product observed; nonpositive (up to 1e-10) certifies the
    nearest-point property on the sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    x = as_vector(x, cset.dim, "x")
    z = cset.project(x)
    rng = np.random.default_rng(seed)
    members = cset.project(rng.standard_normal((samples, cset.dim)) * (1.0 + norm(x)))
    return float(np.max(row_dots(members - z, x - z)))
