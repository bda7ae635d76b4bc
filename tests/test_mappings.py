import numpy as np
import pytest

from sfp.bench import PRESETS, generate_random_sfp, schedule_from_config
from sfp.linalg import DimensionMismatch, LinearMap, row_dots, row_norms
from sfp.mappings import (
    Mapping,
    average,
    estimate_demicontractive_modulus,
    fixed_point_residual,
    identity_map,
    linear_mapping,
    mapping_from_name,
    scaling_map,
    unit_interval_jump_map,
    verify_quasi_nonexpansive,
    zero_map,
)
from sfp.sets import Ball, WholeSpace
from sfp.solver import SfpProblem, StepperConfig, monitors, run

FIXED = np.array([0.875])
GRID = np.linspace(0.0, 1.0, 10001)[:, None]
STACK_CONTRACT = r"a Mapping's fn must map a \(k, dim\) stack row by row"


def _one_point_at_a_time(mapping, y, x):
    """Both certificates with the images taken one point at a time, the
    stacked call's reference."""
    tx = np.array([mapping(p) for p in x])
    move2 = row_dots(x - tx, x - tx)
    moved = move2 > 1e-24
    gain = row_dots(tx - y, tx - y) - row_dots(x - y, x - y)
    return (float(np.max(gain[moved] / move2[moved], initial=0.0)),
            float(np.max(row_norms(tx - y) - row_norms(x - y))))


class TestJumpMap:
    def test_values(self):
        jump = unit_interval_jump_map()
        assert jump(np.array([0.5]))[0] == 0.875
        assert jump(np.array([1.0]))[0] == 0.25
        assert jump(np.array([0.0]))[0] == 0.875

    def test_domain_enforced(self):
        jump = unit_interval_jump_map()
        with pytest.raises(ValueError):
            jump(np.array([1.5]))

    def test_fixed_point_residuals(self):
        jump = unit_interval_jump_map()
        assert fixed_point_residual(jump, FIXED) == 0.0
        assert fixed_point_residual(jump, np.array([1.0])) == 0.75

    def test_modulus_estimate_on_grid(self):
        # closed-form maximum of the demicontractivity ratio sits at x = 1:
        # (|1/4 - 7/8|^2 - |1 - 7/8|^2) / |1 - 1/4|^2 = (25/64 - 1/64) / (9/16) = 2/3
        jump = unit_interval_jump_map()
        k_hat = estimate_demicontractive_modulus(jump, FIXED, GRID)
        assert k_hat == pytest.approx(2.0 / 3.0, abs=1e-3)
        assert k_hat < 1.0

    def test_single_point_ratio(self):
        jump = unit_interval_jump_map()
        k_hat = estimate_demicontractive_modulus(jump, FIXED, np.array([[1.0]]))
        assert k_hat == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_not_quasi_nonexpansive(self):
        # witness x = 1: ||T1 - 7/8|| - ||1 - 7/8|| = 5/8 - 1/8 = 1/2 > 0
        jump = unit_interval_jump_map()
        assert verify_quasi_nonexpansive(jump, FIXED, GRID) == pytest.approx(0.5, abs=1e-12)


class TestAveraging:
    def test_weight_one_is_the_base_map(self):
        jump = unit_interval_jump_map()
        avg = average(jump, 1.0)
        for t in (0.0, 0.3, 0.875, 1.0):
            x = np.array([t])
            assert np.array_equal(avg(x), jump(x))
        assert isinstance(avg, Mapping)
        with pytest.raises(DimensionMismatch):
            avg(np.zeros(2))

    def test_direct_arithmetic(self):
        avg = average(unit_interval_jump_map(), 0.25)
        assert avg(np.array([1.0]))[0] == pytest.approx(0.8125, abs=1e-15)

    def test_pointwise_formula(self):
        rng = np.random.default_rng(0)
        base = scaling_map(3, 0.5)
        avg = average(base, 0.7)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert np.allclose(avg(x), 0.3 * x + 0.7 * base(x), atol=0.0)

    def test_fixed_points_preserved(self):
        jump = unit_interval_jump_map()
        for lam in (0.1, 0.25, 0.5, 0.75, 1.0):
            avg = average(jump, lam)
            assert fixed_point_residual(avg, FIXED) <= 1e-10
            assert np.array_equal(avg.known_fixed_points[0], FIXED)
        # the averaged map inherits the base's points without evaluating them
        # again: (1 - lam) p + lam p rounds away from this p (|p| ~ 3e7) for 11
        # of the 19 weights, by more than the 1e-10 a re-check would allow
        far = 1e7 * np.array([1.0 / 3.0, np.sqrt(2.0), np.pi])
        base = Mapping(fn=lambda x: x.copy(), dim=3, class_tag="nonexpansive", known_fixed_points=(far,))
        for lam in np.linspace(0.05, 0.95, 19):
            assert average(base, float(lam)).known_fixed_points is base.known_fixed_points

    def test_weight_validation(self):
        jump = unit_interval_jump_map()
        with pytest.raises(ValueError):
            average(jump, 0.0)
        with pytest.raises(ValueError):
            average(jump, 1.5)

    def test_demicontractive_base_becomes_quasi_nonexpansive(self):
        jump = unit_interval_jump_map()  # declared modulus 2/3
        assert average(jump, 0.25).class_tag == "quasi_nonexpansive"
        assert average(jump, 0.5).class_tag == "generic"

    def test_quasi_nonexpansive_on_grid_below_threshold(self):
        # every averaging weight below 1 - k keeps the map quasi-nonexpansive
        jump = unit_interval_jump_map()
        k_hat = estimate_demicontractive_modulus(jump, FIXED, GRID)
        for lam in np.linspace(0.02, 1.0 - k_hat - 0.02, 6):
            assert verify_quasi_nonexpansive(average(jump, float(lam)), FIXED, GRID) <= 1e-10, f"lam={lam}"

    def test_contraction_base_stays_contraction(self):
        avg = average(scaling_map(2, 0.5), 0.5)
        assert avg.class_tag == "contraction"
        assert avg.modulus == pytest.approx(0.75)
        # a weight so small that the modulus rounds to 1 leaves a nonexpansive map
        assert average(scaling_map(2, 0.5), 1e-17).class_tag == "nonexpansive"


class TestClassEstimators:
    def test_identity_has_zero_modulus(self):
        ident = identity_map(3)
        points = np.random.default_rng(1).standard_normal((200, 3))
        k = estimate_demicontractive_modulus(ident, np.zeros(3), points)
        assert k == 0.0  # every point is fixed, the maximum is vacuous

    def test_identity_quasi_nonexpansive(self):
        ident = identity_map(3)
        points = np.random.default_rng(1).standard_normal((200, 3))
        assert verify_quasi_nonexpansive(ident, np.zeros(3), points) <= 1e-10

    def test_contraction_class_chain(self):
        # a 0.5-contraction has nonpositive slack for every class on shared samples
        g = scaling_map(4, 0.5)
        points = np.random.default_rng(2).standard_normal((200, 4))
        origin = np.zeros(4)
        for x in points:
            lipschitz_slack = np.linalg.norm(g(x) - g(origin)) - 0.5 * np.linalg.norm(x - origin)
            assert lipschitz_slack <= 1e-12
        assert verify_quasi_nonexpansive(g, origin, points) <= 0.0
        k = estimate_demicontractive_modulus(g, origin, points)
        assert k == 0.0  # raw ratios are negative, floored to zero

    def test_estimator_monotone_in_samples(self):
        jump = unit_interval_jump_map()
        rng = np.random.default_rng(3)
        batch = np.sort(rng.uniform(0.0, 1.0, size=(64, 1)), axis=0)
        estimates = []
        for count in (4, 16, 64):
            estimates.append(estimate_demicontractive_modulus(jump, FIXED, batch[:count]))
        assert estimates == sorted(estimates)

    def test_rejects_non_fixed_point(self):
        jump = unit_interval_jump_map()
        with pytest.raises(ValueError):
            estimate_demicontractive_modulus(jump, np.array([0.2]), GRID)
        with pytest.raises(ValueError):
            verify_quasi_nonexpansive(jump, np.array([0.2]), GRID)

    @pytest.mark.parametrize("points", [np.array([0.5]), np.empty((0, 1)), np.zeros((3, 2)),
                                        np.zeros((2, 1, 1)), 0.5, [[0.5], [0.2, 0.3]]])
    def test_points_must_be_a_nonempty_stack(self, points):
        jump = unit_interval_jump_map()
        for check in (estimate_demicontractive_modulus, verify_quasi_nonexpansive):
            with pytest.raises(ValueError, match=r"points must be a \(k, 1\) array"):
                check(jump, FIXED, points)

    @pytest.mark.parametrize("points", [[[0.5], [np.nan]], np.array([[np.inf]])])
    def test_points_must_be_finite(self, points):
        jump = unit_interval_jump_map()
        for check in (estimate_demicontractive_modulus, verify_quasi_nonexpansive):
            with pytest.raises(ValueError, match=r"^points entries must all be finite$"):
                check(jump, FIXED, points)

    def test_certificates_refuse_a_one_point_fn(self):
        # the sample is one stacked call: a fn that raises on a stack, or that
        # maps a (dim, dim) stack as one point (swapping rows, not coordinates)
        def one_point_only(x):
            assert x.shape == (2,)
            return 0.5 * x

        g = Mapping(fn=one_point_only, dim=2, class_tag="contraction", modulus=0.5)
        swap = Mapping(fn=lambda x: np.array([x[1], x[0]]), dim=2, known_fixed_points=([1.0, 1.0],))
        for mapping, fixed, points in ((g, np.zeros(2), np.random.default_rng(4).standard_normal((30, 2))),
                                       (swap, np.ones(2), np.array([[0.3, -0.9], [0.5, 0.2]]))):
            for check in (estimate_demicontractive_modulus, verify_quasi_nonexpansive):
                with pytest.raises(ValueError, match=STACK_CONTRACT):
                    check(mapping, fixed, points)

    @pytest.mark.parametrize("name", ["identity", "zero", "scale", "linear", "pull", "jump"])
    @pytest.mark.parametrize("lam", [None, 1.0, 0.3])
    def test_certificates_as_one_point_at_a_time(self, name, lam):
        # the same floats as the images taken one point at a time
        rng = np.random.default_rng(7)
        mapping, fixed = {
            "identity": (identity_map(3), np.zeros(3)),
            "zero": (zero_map(3), np.zeros(3)),
            "scale": (scaling_map(3, 0.5), np.zeros(3)),
            "linear": (linear_mapping(rng.standard_normal((3, 3))), np.zeros(3)),
            "pull": (generate_random_sfp(3, 2, "box", 5, include_fixed_point_map=True).S, None),
            "jump": (unit_interval_jump_map(), FIXED),
        }[name]
        fixed = mapping.known_fixed_points[0] if fixed is None else fixed
        mapping = mapping if lam is None else average(mapping, lam)
        samples = [GRID, rng.random((50, 1))] if name == "jump" else [3.0 * rng.standard_normal((50, 3))]
        for points in samples:
            got = (estimate_demicontractive_modulus(mapping, fixed, points),
                   verify_quasi_nonexpansive(mapping, fixed, points))
            assert got == _one_point_at_a_time(mapping, fixed, points)


class TestMappingType:
    def test_modulus_required(self):
        with pytest.raises(ValueError):
            Mapping(fn=lambda x: x, dim=2, class_tag="contraction")
        with pytest.raises(ValueError):
            Mapping(fn=lambda x: x, dim=2, class_tag="demicontractive", modulus=1.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            Mapping(fn=lambda x: x, dim=2, class_tag="mystery")

    def test_declared_fixed_points_validated(self):
        with pytest.raises(ValueError):
            Mapping(fn=lambda x: x + 1.0, dim=2, known_fixed_points=(np.zeros(2),))

    def test_large_fixed_points_accepted(self):
        # T(p) rounds to within a few ulps of ||p||; an absolute 1e-10 rejected 4 of these
        for a in np.arange(1, 31) * 1e6:
            linear_mapping([[0.3, 0.7], [0.7, 0.3]], known_fixed_points=[(a, a)])

    @pytest.mark.parametrize("point, fixed", [
        ((1e7, 1e7 + 1e-3), True),  # residual 9.9e-4 <= 1e-10 * ||p|| = 1.41e-3
        ((1e7, 1e7 + 3e-3), False),  # residual 2.97e-3
        ((0.0, 1e-10), True),  # residual 9.9e-11 <= 1e-10, the floor for ||p|| < 1
        ((0.0, 1e-9), False),  # residual 9.9e-10
    ])
    def test_tolerance_scales_with_the_point(self, point, fixed):
        if fixed:
            linear_mapping([[0.3, 0.7], [0.7, 0.3]], known_fixed_points=[point])
        else:
            with pytest.raises(ValueError, match="declared fixed point"):
                linear_mapping([[0.3, 0.7], [0.7, 0.3]], known_fixed_points=[point])

    def test_dimension_check(self):
        with pytest.raises(Exception):
            identity_map(2)(np.ones(3))


class TestStackContract:
    def test_stack_is_mapped_row_by_row(self):
        rng = np.random.default_rng(5)
        mapping = average(linear_mapping(rng.standard_normal((3, 3))), 0.3)
        x = rng.standard_normal((4, 3))
        stacked = mapping(x)
        assert stacked.shape == (4, 3)
        for i in range(4):
            assert stacked[i].tobytes() == mapping(x[i]).tobytes()
            assert fixed_point_residual(mapping, x)[i] == fixed_point_residual(mapping, x[i])
        assert mapping(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 2), ()])
    def test_dimension_of_a_point_or_a_stack(self, shape):
        with pytest.raises(DimensionMismatch):
            identity_map(2)(np.ones(shape))

    def test_result_of_another_shape_is_refused(self):
        first = Mapping(fn=lambda x: x[..., :1], dim=2)
        with pytest.raises(ValueError, match=r"fn's \(3, 1\) result for a \(3, 2\) stack is not fn of each row; "
                           + STACK_CONTRACT):
            first(np.ones((3, 2)))

    @pytest.mark.parametrize("shift, refused", [(1e-9, True), (1e-11, False)])
    def test_first_row_within_a_fixed_points_tolerance(self, shift, refused):
        # the stack's result is off by shift * sqrt(2) * ||row 0|| in row 0, and
        # the tolerance is 1e-10 * max(1, ||row 0||), at norm 1 and at 2e6 alike
        for scale in (1.0, 2e6):
            mapping = Mapping(fn=lambda x: x + (scale * shift if x.ndim == 2 else 0.0), dim=2)
            x = np.array([[scale, 0.0], [0.5, 0.5]])
            if refused:
                with pytest.raises(ValueError, match=r"\(2, 2\) result for a \(2, 2\) stack is not fn of each row"):
                    mapping(x)
            else:
                assert np.array_equal(mapping(x), x + scale * shift)

    def test_equal_values_pass_nan_included(self):
        mapping = Mapping(fn=lambda x: np.where(x > 0.0, np.nan, x), dim=2)
        out = mapping(np.array([[1.0, -1.0], [-2.0, 3.0]]))
        assert np.array_equal(out, [[np.nan, -1.0], [-2.0, np.nan]], equal_nan=True)

    @pytest.mark.parametrize("points", [[[1.5], [0.5]], [[0.5], [1.5]]], ids=["first-row", "second-row"])
    def test_a_rows_own_error_is_the_maps(self, points):
        # the jump map takes stacks; a point outside [0, 1] fails alone too
        with pytest.raises(ValueError, match=r"^jump map is defined on \[0, 1\]$"):
            unit_interval_jump_map()(np.array(points))

    def test_a_fn_that_raises_only_on_the_stack_breaks_the_contract(self):
        # item() takes a one-value array: each point maps alone, the stack raises
        mapping = Mapping(fn=lambda x: np.array([x.item()]), dim=1)
        with pytest.raises(ValueError, match=r"^fn raised on a \(2, 1\) stack \(.+\); " + STACK_CONTRACT):
            mapping(np.array([[0.5], [1.5]]))

    @staticmethod
    def _swap_problem(fn):
        # A = I, C the plane, Q the ball of radius 0.1 about (1, 1), S a swap of the coordinates
        swap = Mapping(fn=fn, dim=2, known_fixed_points=([1.0, 1.0],))
        return SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=Ball(np.ones(2), 0.1), S=swap,
                          known_solution=np.ones(2))

    @pytest.mark.parametrize("steps", [2, 5])
    def test_monitors_refuse_a_one_point_fn(self, steps):
        # with 2 steps the one-point swap swaps the stack's rows and used to give
        # false slacks without an error; with 5 it failed inside numpy
        problem = self._swap_problem(lambda x: np.array([x[1], x[0]]))
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config, x0 = StepperConfig(max_iter=steps, mode=mode), np.array([0.3, -0.9])
        history = run(problem, schedule, config, x0)
        assert history.steps == steps
        with pytest.raises(ValueError, match=STACK_CONTRACT):
            monitors(problem, schedule, config, x0, history)

    def test_monitors_of_the_swap_written_for_stacks(self):
        problem = self._swap_problem(lambda x: x[..., ::-1].copy())
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config, x0 = StepperConfig(max_iter=2, mode=mode), np.array([0.3, -0.9])
        slack = monitors(problem, schedule, config, x0, run(problem, schedule, config, x0)).quasi_ne_slack
        assert slack == pytest.approx([-0.186368, -0.049371], abs=1e-6)


class TestRegistry:
    def test_identity(self):
        m = mapping_from_name("identity", 4)
        x = np.arange(4.0)
        assert np.array_equal(m(x), x)

    def test_zero(self):
        m = mapping_from_name("zero", 3)
        assert np.array_equal(m(np.ones(3)), np.zeros(3))
        assert m.class_tag == "contraction" and m.modulus == 0.0

    def test_example(self):
        m = mapping_from_name("example-2.2")
        assert m.dim == 1
        assert m(np.array([0.25]))[0] == 0.875

    def test_contraction_scale(self):
        m = mapping_from_name("contraction-scale:0.5", 2)
        assert np.array_equal(m(np.array([2.0, -4.0])), np.array([1.0, -2.0]))

    def test_linear(self):
        m = mapping_from_name("linear:[[0.0, 1.0], [1.0, 0.0]]")
        assert np.array_equal(m(np.array([1.0, 2.0])), np.array([2.0, 1.0]))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            mapping_from_name("does-not-exist", 2)

    @pytest.mark.parametrize("dim", [2, None])
    def test_contraction_scale_without_a_factor_is_unknown(self, dim):
        with pytest.raises(ValueError, match="^unknown mapping name 'contraction-scale'$"):
            mapping_from_name("contraction-scale", dim)

    @pytest.mark.parametrize("spec, kind", [("identity", "identity"), ("zero", "zero"),
                                            ("contraction-scale:0.5", "contraction-scale")])
    def test_needs_a_dimension(self, spec, kind):
        with pytest.raises(ValueError, match=f"^{kind} mapping needs a dimension$"):
            mapping_from_name(spec)

    def test_bad_matrix_literal(self):
        with pytest.raises(ValueError):
            mapping_from_name("linear:[[1, 2]", 2)

    @pytest.mark.parametrize("spec, message", [
        ("linear:[[NaN]]", "matrix entries must all be finite"),
        ("linear:[[1.0, Infinity], [0.0, 1.0]]", "matrix entries must all be finite"),
        ("linear:[[1.0, 2.0]]", "linear mapping needs a square matrix"),
    ], ids=["nan", "infinity", "not-square"])
    def test_linear_matrix_is_read_as_a_linear_map(self, spec, message):
        # the same checks as LinearMap, plus the square one
        with pytest.raises(ValueError, match=f"^{message}$"):
            mapping_from_name(spec)

    def test_zero_map_matches_scaling_limit(self):
        z = zero_map(2)
        g = linear_mapping(np.zeros((2, 2)), class_tag="contraction", modulus=0.0)
        x = np.array([3.0, -1.0])
        assert np.array_equal(z(x), g(x))
