import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sfp.linalg import DimensionMismatch, LinearMap, as_array, as_points, as_vector, norm, row_dots

# largest singular value of the experiment's coefficient matrix, frozen from an
# independent eigendecomposition of A^T A (np.linalg.eigvalsh) run before the
# solver was built
S4_OPERATOR_NORM = 10.591820151285528

finite_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def vec_strategy(dim):
    return arrays(np.float64, (dim,), elements=finite_entries)


class TestAsVector:
    def test_accepts_lists(self):
        v = as_vector([1.0, 2.0])
        assert v.shape == (2,)
        assert not v.flags.writeable

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_vector([])
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_numbers_that_read_as_zero_or_one_are_kept(self):
        # only a bool is refused: ints, floats and numeric strings of 0 and 1 are numbers
        for x in ([0, 1], [0.0, 1.0], ["0", "1"], np.array([0, 1]), [np.int64(0), np.float64(1.0)]):
            assert as_vector(x).tolist() == [0.0, 1.0]
        assert LinearMap([[1, 0], [0, 1]]).matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("entries, finite", [
        ([1e308, 1e308], True), ([[1e308], [1e308]], True), ([1e308, -1e308, float("inf")], False),
        ([float("inf"), float("-inf")], False), ([1e308, 1e308, float("nan")], False),
    ])
    def test_finiteness_does_not_depend_on_the_sum(self, entries, finite):
        # the entries' sum overflows or cancels; only a non-finite entry is refused
        read = (lambda: LinearMap(entries)) if isinstance(entries[0], list) else (lambda: as_vector(entries))
        if finite:
            read()
        else:
            with pytest.raises(ValueError, match="entries must all be finite"):
                read()

    @pytest.mark.parametrize("x, ndim, shape", [
        ([[1.0], [2.0, 3.0]], 2, "2-D matrix"), ([[1.0, 2.0], [3.0, [4.0]]], 2, "2-D matrix"),
        ([np.zeros(2), np.zeros(3)], 2, "2-D matrix"), ([np.zeros((2, 2)), np.zeros((2, 3))], 2, "2-D matrix"),
        ([[1.0], 2.0], 1, "1-D vector with >= 1 entry"), ([1, [2], 3], 1, "1-D vector with >= 1 entry"),
        ([["a"], [1.0, 2.0]], 2, "2-D matrix"),
    ])
    def test_a_ragged_list_is_named(self, x, ndim, shape):
        with pytest.raises(ValueError, match=f"^{re.escape(f'field is a ragged list, not a {shape}')}$"):
            as_array(x, ndim, "field")

    def test_an_entry_that_is_not_a_number_keeps_numpys_message(self):
        with pytest.raises(ValueError, match="^could not convert string to float: 'a'$"):
            as_array([[1.0], ["a"]], 2, "field")

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0], dim=3)


class TestInnerAndNorm:
    def test_orthogonal(self):
        assert row_dots(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_direct_arithmetic(self):
        assert row_dots(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_pythagorean(self):
        assert norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert norm(np.zeros(7)) == 0.0

    def test_self_inner_is_norm_squared(self):
        # independent oracle: norm squared accumulated entrywise
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.standard_normal(6)
            expected = sum(float(t) * float(t) for t in x)
            assert abs(row_dots(x, x) - expected) <= 1e-12 * (1.0 + expected)
            assert abs(norm(x) ** 2 - expected) <= 1e-12 * (1.0 + expected)

    @given(x=vec_strategy(4), y=vec_strategy(4))
    def test_symmetry(self, x, y):
        assert row_dots(x, y) == pytest.approx(row_dots(y, x), abs=1e-12)

    @given(x=vec_strategy(3), y=vec_strategy(3), t=st.floats(0.0, 1.0))
    def test_convex_combination_identity(self, x, y, t):
        # ||tx + (1-t)y||^2 = t||x||^2 + (1-t)||y||^2 - t(1-t)||x-y||^2,
        # both sides evaluated independently
        lhs = norm(t * x + (1.0 - t) * y) ** 2
        rhs = t * norm(x) ** 2 + (1.0 - t) * norm(y) ** 2 - t * (1.0 - t) * norm(x - y) ** 2
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_convex_combination_identity_seeded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            t = rng.uniform()
            lhs = norm(t * x + (1 - t) * y) ** 2
            rhs = t * norm(x) ** 2 + (1 - t) * norm(y) ** 2 - t * (1 - t) * norm(x - y) ** 2
            assert abs(lhs - rhs) <= 1e-12

    def test_expansion_inequality_seeded(self):
        # ||x + y||^2 <= ||x||^2 + 2 <y, x + y>
        rng = np.random.default_rng(13)
        for _ in range(100):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            assert norm(x + y) ** 2 <= norm(x) ** 2 + 2.0 * row_dots(y, x + y) + 1e-12


class TestLinearMap:
    def test_identity_apply(self):
        m = LinearMap(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(m.apply(x), x)
        assert np.array_equal(m.apply_adjoint(x), x)

    def test_s_matrix_fixes_solution(self, s4, x_star):
        # direct-multiply oracle: S x* accumulated row by row
        s = np.eye(5) - s4.C.map.matrix  # C is the null space of I - S
        expected = np.array([sum(s[i, j] * x_star[j] for j in range(5)) for i in range(5)])
        assert np.allclose(expected, x_star, atol=1e-15)
        assert np.allclose(s @ x_star, x_star, atol=1e-15)

    def test_a_matrix_maps_solution_to_b(self, s4, x_star):
        b = np.array([43 / 16, 2.0, 19 / 16, 51 / 8, 41 / 8])
        assert np.array_equal(s4.A.apply(x_star), b)

    def test_adjoint_direct_arithmetic(self):
        m = LinearMap(np.array([[1.0, 2.0]]))
        assert np.array_equal(m.apply_adjoint(np.array([3.0])), np.array([3.0, 6.0]))

    def test_adjoint_identity_sampled(self, s4):
        rng = np.random.default_rng(3)
        maps = [s4.A, LinearMap(rng.standard_normal((4, 7)))]
        for m in maps:
            for _ in range(100):
                x = rng.standard_normal(m.cols)
                y = rng.standard_normal(m.rows)
                lhs = row_dots(m.apply(x), y)
                rhs = row_dots(x, m.apply_adjoint(y))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + norm(x) * norm(y))

    def test_dimension_mismatch(self):
        m = LinearMap(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            m.apply(np.ones(2))
        with pytest.raises(DimensionMismatch):
            m.apply_adjoint(np.ones(3))

    # a point is read by linalg.as_points, as Mapping and the sets read one: a
    # float64 ndarray is used as it is, anything else (a list, an int or a bool
    # array) is read into a new float64 array, and a bool is refused
    def test_a_list_is_read_as_a_point(self):
        m = LinearMap(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(m.apply([1, 2]), m.apply(np.array([1.0, 2.0])))
        assert np.array_equal(m.apply([[1, 2], [0, 1]]), m.apply(np.array([[1.0, 2.0], [0.0, 1.0]])))
        assert np.array_equal(m.apply(np.array([1, 2])), [5.0, 11.0, 17.0])
        assert np.array_equal(m.apply_adjoint([1.0, 0.0, 1.0]), [6.0, 8.0])
        with pytest.raises(ValueError, match=r"^x entries must be numbers, got True$"):
            m.apply([True, 2.0])
        with pytest.raises(ValueError, match=r"^x entries must be numbers, got True$"):
            m.apply(np.array([True, False]))
        with pytest.raises(ValueError, match=r"^y is a ragged list, not a point or stack of points$"):
            m.apply_adjoint([[1.0], [2.0, 3.0]])
        with pytest.raises(DimensionMismatch, match=r"^x must be a point of dimension 2 or a \(k, 2\) stack, "
                           r"got shape \(3,\)$"):
            m.apply([1.0, 2.0, 3.0])
        for x in (np.array([1.0, 2.0]), np.ones((4, 2))):
            assert as_points(x, 2, "x") is x

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            LinearMap(np.ones(3))
        with pytest.raises(ValueError):
            LinearMap(np.array([[np.inf, 1.0]]))


class TestOperatorNorm:
    def test_identity(self):
        assert LinearMap(np.eye(3)).operator_norm() == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        m = LinearMap(np.diag([1.0, 2.0, 3.0]))
        assert m.operator_norm() == pytest.approx(3.0, rel=1e-10)

    def test_s4_matrix_against_eigendecomposition(self, s4):
        est = s4.A.operator_norm()
        assert est == pytest.approx(S4_OPERATOR_NORM, rel=1e-9)
        # recompute the oracle in place as well
        gram = s4.A.matrix.T @ s4.A.matrix
        exact = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
        assert exact == pytest.approx(S4_OPERATOR_NORM, rel=1e-12)

    def test_bounds_rayleigh_quotient(self):
        rng = np.random.default_rng(5)
        m = LinearMap(rng.standard_normal((6, 4)))
        est = m.operator_norm()
        for _ in range(50):
            x = rng.standard_normal(4)
            assert norm(m.apply(x)) / norm(x) <= est * (1.0 + 1e-9)

    def test_start_not_orthogonal_to_top_singular_vector(self):
        # the all-ones vector lies in the null space of [[1, -1]]
        assert LinearMap(np.array([[1.0, -1.0]])).operator_norm() == pytest.approx(math.sqrt(2.0), rel=1e-10)

    def test_zero_matrix(self):
        assert LinearMap(np.zeros((3, 3))).operator_norm() == 0.0

    @pytest.mark.parametrize("second", [0.99995, 1.0 - 1e-7])
    def test_near_equal_top_singular_values(self, second):
        # the top two singular values agree to 5e-5 and to 1e-7
        assert LinearMap(np.diag([1.0, second])).operator_norm() == 1.0
