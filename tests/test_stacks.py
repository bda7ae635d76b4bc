"""A (k, dim) stack of points gives, in row i, the bits of point i alone.

The CSV rows are computed from stacks of iterates, and their bytes must equal
an evaluation one iterate at a time; these tests pin that per operation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfp.bench import generate_random_sfp
from sfp.linalg import DimensionMismatch, LinearMap, matvec, norm, row_dots, row_norms
from sfp.mappings import average, identity_map, linear_mapping, scaling_map, unit_interval_jump_map, zero_map
from sfp.sets import (
    AffineNullspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    Singleton,
    WholeSpace,
    membership_residual,
)

stacks = settings(derandomize=True, max_examples=30)
shapes = {"k": st.integers(1, 6), "dim": st.integers(1, 7), "seed": st.integers(0, 2**16),
          "scale": st.sampled_from([1e-3, 1.0, 1e3])}


def _same_rows(stacked, single_of_row, k):
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == k
    for i in range(k):
        single = np.asarray(single_of_row(i))
        assert stacked[i].shape == single.shape
        assert stacked[i].tobytes() == single.tobytes(), i


def _every_set(rng, dim):
    # centred near the origin so that a stack holds rows on both sides of each branch
    center = rng.standard_normal(dim)
    matrix = rng.standard_normal((rng.integers(1, dim + 1), dim))
    return [
        Box(center - rng.random(dim), center + rng.random(dim)),
        Ball(center, 0.5 + rng.random()),
        Halfspace(rng.standard_normal(dim) + 0.1, float(rng.standard_normal())),
        Hyperplane(rng.standard_normal(dim) + 0.1, float(rng.standard_normal())),
        Singleton(center),
        AffineNullspace(LinearMap(matrix)),
        AffineNullspace(LinearMap(np.eye(dim))),  # null space {0}: an empty basis
        WholeSpace(dim),
    ]


@stacks
@given(**shapes)
def test_projections_row_by_row(k, dim, seed, scale):
    rng = np.random.default_rng(seed)
    for cset in _every_set(rng, dim):
        x = scale * rng.standard_normal((k, dim))
        x[::2] = cset.project(x[::2] / scale)  # members, so a kept row is in the stack
        if isinstance(cset, Ball):
            x[0] = cset.center  # distance 0: kept, and never divided by
        _same_rows(cset.project(x), lambda i: cset.project(x[i]), k)
        _same_rows(membership_residual(cset, x), lambda i: membership_residual(cset, x[i]), k)


@stacks
@given(**shapes, cols=st.integers(1, 7))
def test_operator_products_row_by_row(k, dim, seed, scale, cols):
    rng = np.random.default_rng(seed)
    a = LinearMap(scale * rng.standard_normal((dim, cols)))
    x, y = rng.standard_normal((k, cols)), rng.standard_normal((k, dim))
    _same_rows(a.apply(x), lambda i: a.apply(x[i]), k)
    _same_rows(a.apply_adjoint(y), lambda i: a.apply_adjoint(y[i]), k)
    _same_rows(row_norms(y), lambda i: norm(y[i]), k)
    _same_rows(row_dots(x, x[0]), lambda i: float(np.dot(x[i], x[0])), k)
    _same_rows(row_dots(y, 2.0 * y), lambda i: float(np.dot(y[i], 2.0 * y[i])), k)
    assert row_norms(y[0]) == norm(y[0]) and row_dots(x[0], x[-1]) == float(np.dot(x[0], x[-1]))


def _same_as_matmul_and_np_dot(m, x, y):
    """The single-vector products give the bits of ``m @ x``, ``m.T @ y``
    and ``np.dot``, which they call through ``ndarray.dot``."""
    a = LinearMap(m)
    assert matvec(m, x).tobytes() == (m @ x).tobytes()
    assert a.apply(x).tobytes() == (m @ x).tobytes()
    assert a.apply_adjoint(y).tobytes() == (m.T @ y).tobytes()
    for v, w in ((x, x), (y, y), (y, m @ x)):
        assert row_dots(v, w).hex() == float(np.dot(v, w)).hex()
        assert norm(v).hex() == math.sqrt(float(np.dot(v, v))).hex()


@stacks
@given(dim=shapes["dim"], cols=st.integers(1, 7), seed=shapes["seed"], scale=shapes["scale"])
def test_single_vector_products_keep_the_bits_of_matmul(dim, cols, seed, scale):
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((dim, cols))
    _same_as_matmul_and_np_dot(m, rng.standard_normal(cols), rng.standard_normal(dim))
    # strided views, as a column or a row block of a stack is
    x, y = rng.standard_normal(2 * cols), rng.standard_normal(2 * dim)
    _same_as_matmul_and_np_dot(m, x[::2], y[::2])


def test_single_vector_products_keep_the_bits_of_matmul_at_box_2000_shape():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((1500, 2000))
    _same_as_matmul_and_np_dot(m, rng.standard_normal(2000), rng.standard_normal(1500))


@stacks
@given(**shapes, lam=st.sampled_from([0.25, 0.5, 1.0]))
def test_builtin_maps_row_by_row(k, dim, seed, scale, lam):
    rng = np.random.default_rng(seed)
    maps = [
        identity_map(dim),
        zero_map(dim),
        scaling_map(dim, 0.5),
        linear_mapping(rng.standard_normal((dim, dim))),
        generate_random_sfp(dim, 2, "box", seed, include_fixed_point_map=True).S,
    ]
    x = scale * rng.standard_normal((k, dim))
    for mapping in maps + [average(m, lam) for m in maps]:
        _same_rows(mapping.fn(x), lambda i: mapping.fn(x[i]), k)
    jump = unit_interval_jump_map()
    t = np.concatenate([[[1.0], [0.0]], rng.random((k, 1))])  # both branches
    for m in (jump, average(jump, lam)):
        _same_rows(m.fn(t), lambda i: m.fn(t[i]), k + 2)


def test_jump_map_rejects_a_row_outside_its_domain():
    with pytest.raises(ValueError, match="defined on"):
        unit_interval_jump_map().fn(np.array([[0.5], [1.5]]))


def test_stack_of_the_wrong_width_is_rejected():
    with pytest.raises(DimensionMismatch):
        Box(np.zeros(2), np.ones(2)).project(np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        LinearMap(np.ones((2, 3))).apply(np.ones((4, 2)))
    with pytest.raises(DimensionMismatch):
        LinearMap(np.ones((2, 3))).apply_adjoint(np.ones((4, 3)))
