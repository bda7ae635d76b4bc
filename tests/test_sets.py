import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfp.linalg import DimensionMismatch, LinearMap, norm, row_dots
from sfp.sets import (
    AffineNullspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    Singleton,
    WholeSpace,
    check_projection_characterization,
    membership_residual,
)
from sfp.bench import representative_sets

TOL = 1e-10


class TestClosedForms:
    def test_box_clamp(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(box.project(np.array([1.5, -0.2])), np.array([1.0, 0.0]))

    def test_ball_radial_scaling(self):
        ball = Ball(np.zeros(2), 1.0)
        assert np.allclose(ball.project(np.array([3.0, 4.0])), np.array([0.6, 0.8]), atol=1e-15)

    def test_interior_points_fixed(self):
        ball = Ball(np.zeros(3), 2.0)
        x = np.array([0.1, -0.5, 0.3])
        assert np.array_equal(ball.project(x), x)

    def test_halfspace(self):
        hs = Halfspace(np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(hs.project(np.array([3.0, 5.0])), np.array([1.0, 5.0]))
        inside = np.array([0.5, -2.0])
        assert np.array_equal(hs.project(inside), inside)

    def test_hyperplane(self):
        hp = Hyperplane(np.array([0.0, 2.0]), 4.0)
        assert np.allclose(hp.project(np.array([7.0, 0.0])), np.array([7.0, 2.0]), atol=1e-15)

    def test_singleton(self):
        s = Singleton(np.array([1.0, 2.0]))
        assert np.array_equal(s.project(np.array([-3.0, 9.0])), np.array([1.0, 2.0]))

    def test_whole_space(self):
        w = WholeSpace(4)
        x = np.arange(4.0)
        assert np.array_equal(w.project(x), x)

    def test_nullspace_projects_solution_to_itself(self, s4, x_star):
        # oracle: (I - S) x* = 0 by direct multiplication, so x* is a member
        residual = s4.C.map.apply(x_star)
        assert norm(residual) <= 1e-15
        assert norm(s4.C.project(x_star) - x_star) <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Box(np.zeros(2), np.ones(2)).project(np.ones(3))


class TestConstructionValidation:
    def test_box_ordering(self):
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))

    def test_ball_radius(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)

    def test_zero_normals(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            Hyperplane(np.zeros(3), 0.0)

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_offsets(self, kind, offset):
        with pytest.raises(ValueError, match="offset must be finite"):
            kind(np.ones(2), offset)

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("scale", [1e160, 2.0**600, 1e-170, 2.0**-600, 2.0**-520],
                             ids=["1e160", "2^600", "1e-170", "2^-600", "2^-520"])
    def test_extreme_normals_keep_their_set(self, kind, scale):
        # <a, a> overflows or leaves the normal floats; the set is that of the unscaled normal
        plain = kind(np.array([3.0, -4.0]), 5.0)
        extreme = kind(scale * plain.normal, scale * plain.offset)
        assert 0.25 <= extreme.normal_sq < 2.0
        points = np.array([[6.0, -8.0], [1.0, 1.0], [-3.0, 4.0]])
        np.testing.assert_allclose(extreme.project(points), plain.project(points), rtol=1e-15, atol=1e-15)
        for x in points:
            np.testing.assert_allclose(extreme.project(x), plain.project(x), rtol=1e-15, atol=1e-15)
        assert np.allclose(kind(np.array([scale, 0.0]), 0.0).project(np.array([1.0, 0.0])), 0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("normal", [[3.0, -4.0], [2.0**-511, 0.0], [1e150, 1e150]])
    def test_normal_range_normals_kept(self, kind, normal):
        cset = kind(np.array(normal), 5.0)
        assert np.array_equal(cset.normal, normal) and cset.offset == 5.0
        assert cset.normal_sq == float(np.dot(normal, normal))

    def test_offset_beyond_a_tiny_normal(self):
        with pytest.raises(ValueError, match="too large"):
            Halfspace(np.array([1e-170, 0.0]), 1e200)

    def test_whole_space_dim(self):
        with pytest.raises(ValueError):
            WholeSpace(0)


class TestMembershipResidual:
    def test_interior_point(self):
        box = Box(np.zeros(2), np.ones(2))
        assert membership_residual(box, np.array([0.5, 0.5])) == 0.0

    def test_distance_along_ray(self):
        ball = Ball(np.zeros(2), 1.0)
        assert membership_residual(ball, np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_exact_solution_feasible(self, s4, x_star):
        # ||A x* - b|| = 0: the image point is the singleton's point
        assert membership_residual(s4.Q, s4.A.apply(x_star)) <= 1e-12
        assert membership_residual(s4.C, x_star) <= TOL


class TestProjectionProperties:
    @pytest.mark.parametrize("cset", representative_sets(), ids=lambda s: s.kind)
    def test_idempotence(self, cset):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = cset.project(3.0 * rng.standard_normal(cset.dim))
            assert norm(cset.project(p) - p) <= TOL

    @pytest.mark.parametrize("cset", representative_sets(), ids=lambda s: s.kind)
    def test_nonexpansive_and_firm(self, cset):
        rng = np.random.default_rng(43)
        for _ in range(300):
            x = 3.0 * rng.standard_normal(cset.dim)
            y = 3.0 * rng.standard_normal(cset.dim)
            px, py = cset.project(x), cset.project(y)
            assert norm(px - py) <= norm(x - y) + TOL
            assert norm(px - py) ** 2 <= row_dots(x - y, px - py) + TOL

    @pytest.mark.parametrize("cset", representative_sets(), ids=lambda s: s.kind)
    def test_characterization(self, cset):
        rng = np.random.default_rng(44)
        for trial in range(5):
            x = 3.0 * rng.standard_normal(cset.dim)
            assert check_projection_characterization(cset, x, samples=200, seed=trial) <= TOL

    def test_characterization_inside_point(self):
        box = Box(-np.ones(3), np.ones(3))
        assert check_projection_characterization(box, np.zeros(3), samples=100, seed=0) <= TOL

    @pytest.mark.parametrize("x, message", [([np.nan, 0.0], "x entries must all be finite"),
                                            ([0.0, 0.0, 0.0], "expected a vector of dimension 2, got 3")])
    def test_characterization_reads_x_as_a_vector(self, x, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_projection_characterization(Box(np.zeros(2), np.ones(2)), x)

    def test_characterization_direct_arithmetic(self):
        # Projecting (2, 0.5) on the unit box gives (1, 0.5); the member (0, 0)
        # has <x - z, y - z> = <(1, 0), (-1, -0.5)> = -1.
        box = Box(np.zeros(2), np.ones(2))
        x = np.array([2.0, 0.5])
        z = box.project(x)
        assert np.array_equal(z, np.array([1.0, 0.5]))
        assert row_dots(x - z, np.array([0.0, 0.0]) - z) == -1.0

    def test_characterization_random_halfspaces(self):
        rng = np.random.default_rng(45)
        worst = -np.inf
        for trial in range(20):
            hs = Halfspace(rng.standard_normal(4), float(rng.standard_normal()))
            x = 3.0 * rng.standard_normal(4)
            worst = max(worst, check_projection_characterization(hs, x, samples=50, seed=trial))
        assert worst <= TOL


class TestAffineNullspace:
    def test_basis_is_orthonormal(self, s4):
        basis = s4.C.basis
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= TOL

    def test_basis_columns_in_nullspace(self, s4):
        m = s4.C.map
        scale = m.operator_norm()
        rank_tol = 1e-10 * scale  # the singular values the basis counts as zero
        for j in range(s4.C.basis.shape[1]):
            assert norm(m.apply(s4.C.basis[:, j])) <= rank_tol * max(scale, 1.0)

    def test_projection_is_linear(self, s4):
        rng = np.random.default_rng(46)
        for _ in range(50):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            a, b = rng.standard_normal(2)
            lhs = s4.C.project(a * x + b * y)
            rhs = a * s4.C.project(x) + b * s4.C.project(y)
            assert norm(lhs - rhs) <= TOL

    def test_expected_nullspace_dimension(self, s4):
        # Fix(S) for the experiment's S is the line through (1, 2, 4, 8, 16)
        assert s4.C.basis.shape == (5, 1)
        direction = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        direction /= norm(direction)
        assert abs(abs(row_dots(s4.C.basis[:, 0], direction)) - 1.0) <= 1e-12

    def test_zero_map_gives_whole_space(self):
        cs = AffineNullspace(LinearMap(np.zeros((3, 3))))
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(cs.project(x), x, atol=1e-12)

    def test_full_rank_gives_origin(self):
        cs = AffineNullspace(LinearMap(np.eye(3)))
        for x in (np.array([1.0, -2.0, 3.0]), np.array([[1.0, -2.0, 3.0], [-4.0, 5.0, -6.0]])):
            p = cs.project(x)
            assert p.dtype == np.float64 and p.shape == x.shape
            assert np.array_equal(p, np.zeros(x.shape)) and not np.signbit(p).any()  # +0.0, not -0.0


bounded = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(
    lower=arrays(np.float64, (3,), elements=st.floats(-5.0, 0.0)),
    width=arrays(np.float64, (3,), elements=st.floats(0.0, 5.0)),
    x=arrays(np.float64, (3,), elements=bounded),
)
def test_box_projection_properties(lower, width, x):
    box = Box(lower, lower + width)
    p = box.project(x)
    assert np.all(p >= box.lower) and np.all(p <= box.upper)
    assert norm(box.project(p) - p) <= TOL
