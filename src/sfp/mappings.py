"""Self-maps with declared contraction classes, and sample-based class checks.

The class tags mirror the usual hierarchy: contraction < nonexpansive <
quasi-nonexpansive < demicontractive.  Verification utilities are sampling
certificates, never proofs; they report seeds and sample counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DimensionMismatch, as_vector, norm

__all__ = [
    "CLASS_TAGS",
    "Mapping",
    "AveragedMapping",
    "average",
    "fixed_point_residual",
    "estimate_demicontractive_modulus",
    "verify_quasi_nonexpansive",
    "QuasiNonexpansiveReport",
    "identity_map",
    "zero_map",
    "scaling_map",
    "linear_mapping",
    "unit_interval_jump_map",
    "mapping_from_name",
    "gaussian_sampler",
    "grid_sampler_1d",
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


@dataclass(frozen=True, eq=False)
class Mapping:
    """A self-map on R^dim with a declared class tag.

    ``fn`` maps a float64 vector of size ``dim`` to one; the solver's step
    calls it directly.  ``known_fixed_points`` entries are validated at
    construction (residual <= 1e-10).  ``demiclosed_assumed`` records the
    analytic demiclosedness assumption; it is user-supplied and never
    verified numerically.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    class_tag: str = "generic"
    modulus: float | None = None
    known_fixed_points: tuple = ()
    demiclosed_assumed: bool = False
    name: str = ""

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.class_tag!r}")
        if self.class_tag in _TAGS_WITH_MODULUS:
            if self.modulus is None or not (0.0 <= self.modulus < 1.0):
                raise ValueError(f"class {self.class_tag!r} needs a modulus in [0, 1)")
        pts = tuple(as_vector(p, self.dim) for p in self.known_fixed_points)
        object.__setattr__(self, "known_fixed_points", pts)
        for p in pts:
            if fixed_point_residual(self, p) > 1e-10:
                raise ValueError("declared fixed point has residual > 1e-10")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.size != self.dim:
            raise DimensionMismatch(f"mapping acts on dimension {self.dim}, got {x.size}")
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def _averaged_tag(base: Mapping, lam: float) -> tuple[str, float | None]:
    # (1-lam) I + lam T keeps the base class for the convex ones; a
    # demicontractive base becomes quasi-nonexpansive when lam < 1 - k.
    if base.class_tag == "contraction":
        return "contraction", 1.0 - lam * (1.0 - base.modulus)
    if base.class_tag in ("nonexpansive", "quasi_nonexpansive"):
        return base.class_tag, None
    if base.class_tag == "demicontractive" and lam < 1.0 - base.modulus:
        return "quasi_nonexpansive", None
    return "generic", None


@dataclass(frozen=True, eq=False)
class AveragedMapping:
    """The relaxation (1 - lam) I + lam base, sharing the base's fixed points."""

    base: Mapping
    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("averaging weight must lie in (0, 1]")
        tag, modulus = _averaged_tag(self.base, self.lam)
        object.__setattr__(self, "class_tag", tag)
        object.__setattr__(self, "modulus", modulus)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def known_fixed_points(self) -> tuple:
        return self.base.known_fixed_points

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (1.0 - self.lam) * x + self.lam * self.base(x)

    def plain(self) -> Callable[[np.ndarray], np.ndarray]:
        """The same map as a plain function of a float64 vector of size
        ``dim``: the base's ``fn`` is called directly, without the size check
        and conversions of ``__call__``, and the arithmetic is the same."""
        keep, lam, fn = 1.0 - self.lam, self.lam, self.base.fn
        return lambda x: keep * x + lam * fn(x)


def average(base: Mapping, lam: float) -> AveragedMapping:
    """Averaged map (1 - lam) I + lam base for lam in (0, 1]."""
    return AveragedMapping(base=base, lam=lam)


def fixed_point_residual(mapping, x: np.ndarray) -> float:
    """||T(x) - x||, the quantity an iteration drives to zero."""
    x = np.asarray(x, dtype=float)
    return norm(mapping(x) - x)


@dataclass(frozen=True)
class QuasiNonexpansiveReport:
    """Max slack of ||Tx - y|| - ||x - y|| over a sample; <= 1e-10 certifies."""

    max_slack: float
    witness: np.ndarray
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_slack <= 1e-10


def _validated_fixed_point(mapping, fixed_point) -> np.ndarray:
    y = as_vector(fixed_point, mapping.dim)
    if fixed_point_residual(mapping, y) > 1e-10:
        raise ValueError("fixed_point is not a fixed point (residual > 1e-10)")
    return y


def estimate_demicontractive_modulus(
    mapping, fixed_point, domain_sampler, samples: int = 1000, seed: int = 0
) -> float:
    """Smallest k >= 0 with ||Tx - y||^2 <= ||x - y||^2 + k ||x - Tx||^2 on the sample.

    Points x with ||x - Tx|| <= 1e-12 are skipped (the ratio is vacuous there);
    the estimate is floored at 0.  A result < 1 certifies demicontractivity on
    the sample only.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    y = _validated_fixed_point(mapping, fixed_point)
    rng = np.random.default_rng(seed)
    points = domain_sampler(rng, samples)
    k_hat = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        tx = mapping(x)
        move2 = float(np.dot(x - tx, x - tx))
        if move2 <= 1e-24:
            continue
        gain = float(np.dot(tx - y, tx - y) - np.dot(x - y, x - y))
        k_hat = max(k_hat, gain / move2)
    return k_hat


def verify_quasi_nonexpansive(
    mapping, fixed_point, domain_sampler, samples: int = 1000, seed: int = 0
) -> QuasiNonexpansiveReport:
    """Sample the quasi-nonexpansiveness slack ||Tx - y|| - ||x - y||."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    y = _validated_fixed_point(mapping, fixed_point)
    rng = np.random.default_rng(seed)
    points = domain_sampler(rng, samples)
    worst = -np.inf
    witness = None
    for x in points:
        x = np.asarray(x, dtype=float)
        slack = norm(mapping(x) - y) - norm(x - y)
        if slack > worst:
            worst, witness = slack, x.copy()
    return QuasiNonexpansiveReport(max_slack=float(worst), witness=witness, samples=samples, seed=seed)


# --- samplers -------------------------------------------------------------


def gaussian_sampler(dim: int, center=None, scale: float = 1.0):
    """Batch sampler of Gaussian points, for use with the class checks."""
    mu = np.zeros(dim) if center is None else as_vector(center, dim)

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return mu + scale * rng.standard_normal((count, dim))

    return sample


def grid_sampler_1d(lo: float, hi: float, step: float):
    """Deterministic 1-D grid sampler; ignores the rng and requested count."""
    count = int(round((hi - lo) / step)) + 1
    grid = np.linspace(lo, hi, count).reshape(-1, 1)

    def sample(rng: np.random.Generator, requested: int) -> np.ndarray:
        return grid

    return sample


# --- built-in mappings ----------------------------------------------------


def identity_map(dim: int) -> Mapping:
    return Mapping(fn=lambda x: x.copy(), dim=dim, class_tag="nonexpansive", name="identity")


def zero_map(dim: int) -> Mapping:
    """The null map g = 0, a contraction with modulus 0."""
    return Mapping(
        fn=lambda x: np.zeros(dim),
        dim=dim,
        class_tag="contraction",
        modulus=0.0,
        known_fixed_points=(np.zeros(dim),),
        name="zero",
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
        name=f"contraction-scale:{c}",
    )


def linear_mapping(matrix, class_tag: str = "generic", modulus: float | None = None,
                   known_fixed_points=(), name: str = "") -> Mapping:
    """Mapping given by a square matrix."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("linear mapping needs a square matrix")
    m.flags.writeable = False
    return Mapping(
        fn=lambda x: m @ x,
        dim=m.shape[0],
        class_tag=class_tag,
        modulus=modulus,
        known_fixed_points=known_fixed_points,
        name=name or "linear",
    )


def unit_interval_jump_map() -> Mapping:
    """The 1-D jump map on [0, 1]: x -> 7/8 for x < 1 and 1 -> 1/4.

    Demicontractive with modulus 2/3 (attained at x = 1) but not
    quasi-nonexpansive, which makes it the standard separating example for
    the class hierarchy.  Its only fixed point is 7/8.
    """

    def f(x: np.ndarray) -> np.ndarray:
        t = float(x[0])
        if not (-1e-12 <= t <= 1.0 + 1e-12):
            raise ValueError("jump map is defined on [0, 1]")
        return np.array([0.25 if t >= 1.0 else 0.875])

    return Mapping(
        fn=f,
        dim=1,
        class_tag="demicontractive",
        modulus=2.0 / 3.0,
        known_fixed_points=(np.array([0.875]),),
        name="example-2.2",
    )


def mapping_from_name(spec: str, dim: int | None = None) -> Mapping:
    """Resolve a mapping from its registry name.

    Supported: ``identity``, ``zero``, ``example-2.2``,
    ``contraction-scale:<c>`` and ``linear:<row-major matrix>`` (JSON literal).
    """
    if spec == "identity":
        if dim is None:
            raise ValueError("identity mapping needs a dimension")
        return identity_map(dim)
    if spec == "zero":
        if dim is None:
            raise ValueError("zero mapping needs a dimension")
        return zero_map(dim)
    if spec == "example-2.2":
        return unit_interval_jump_map()
    if spec.startswith("contraction-scale:"):
        if dim is None:
            raise ValueError("contraction-scale mapping needs a dimension")
        return scaling_map(dim, float(spec.split(":", 1)[1]))
    if spec.startswith("linear:"):
        try:
            rows = json.loads(spec.split(":", 1)[1])
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad matrix literal in {spec!r}: {exc}") from exc
        return linear_mapping(rows, name=spec)
    raise ValueError(f"unknown mapping name {spec!r}")
