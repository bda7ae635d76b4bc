import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from sfp.bench import PRESETS, build_example_s4, generate_random_sfp, preset_schedule
from sfp.linalg import LinearMap, norm
from sfp.mappings import linear_mapping, scaling_map, unit_interval_jump_map, zero_map
from sfp.sets import Box, Singleton, WholeSpace
from sfp.solver import (
    DivergenceError,
    ParameterSchedule,
    ScheduleViolation,
    Seq,
    SfpProblem,
    StepperConfig,
    StoppingRule,
    adaptive_tau,
    inertial_theta,
    psi_diagnostic,
    run,
    step,
    validate_schedule,
)

# value of the split objective and of the adaptive step at the all-ones start
# of the reference experiment, frozen from direct arithmetic (the matrix and
# right-hand side are dyadic rationals, so f and the gradient are exact)
F_AT_ONES = 79.14453125
GRAD_AT_ONES = np.array([35.125, 35.875, 54.125, 106.75, 27.5])
TAU_AT_ONES_RHO2 = 0.008992618959908036


def constant_schedule(alpha=0.0, beta=0.0, delta=0.0, rho=2.0, epsilon=0.0, theta=0.0, lam=0.5):
    return ParameterSchedule(
        alpha=Seq.constant(alpha),
        beta=Seq.constant(beta),
        gamma=None,
        delta=Seq.constant(delta),
        rho=Seq.constant(rho),
        epsilon=Seq.constant(epsilon),
        theta=theta,
        lam=lam,
    )


class TestObjective:
    def test_zero_at_solution(self, s4, x_star):
        assert s4.f_value(x_star) == 0.0
        assert norm(s4.grad_f(x_star)) == 0.0

    def test_value_at_ones(self, s4):
        assert s4.f_value(np.ones(5)) == F_AT_ONES

    def test_gradient_at_ones(self, s4):
        assert np.array_equal(s4.grad_f(np.ones(5)), GRAD_AT_ONES)

    def test_singleton_reduction(self, s4):
        # with Q = {b} the gradient is A^T (A x - b) exactly
        rng = np.random.default_rng(0)
        b = s4.Q.point
        for _ in range(20):
            x = rng.standard_normal(5)
            expected = s4.A.matrix.T @ (s4.A.matrix @ x - b)
            assert np.allclose(s4.grad_f(x), expected, atol=0.0)

    def test_zero_when_image_feasible(self):
        problem = SfpProblem(
            A=LinearMap(np.eye(2)),
            C=WholeSpace(2),
            Q=Box(-np.ones(2), np.ones(2)),
        )
        x = np.array([0.5, -0.5])
        assert problem.f_value(x) == 0.0
        assert np.array_equal(problem.grad_f(x), np.zeros(2))

    def test_finite_difference_oracle(self):
        problem = generate_random_sfp(4, 3, "ball", seed=99)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = 2.0 * rng.standard_normal(4)
            g = problem.grad_f(x)
            h = 1e-6 * (1.0 + norm(x))
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (problem.f_value(x + e) - problem.f_value(x - e)) / (2 * h)
            assert norm(fd - g) <= 1e-6 * (1.0 + norm(g))


class TestAdaptiveTau:
    def test_guard_at_solution(self, s4, x_star):
        assert adaptive_tau(s4, x_star, rho=2.0) == 0.0

    def test_direct_substitution(self):
        # A = I/2 on R^2 with Q = {0}: at u = (8, 0), f = 8 and ||grad||^2 = 4,
        # so tau = rho f / ||grad||^2 = 4 for rho = 2
        problem = SfpProblem(A=LinearMap(0.5 * np.eye(2)), C=WholeSpace(2), Q=Singleton(np.zeros(2)))
        u = np.array([8.0, 0.0])
        assert problem.f_value(u) == 8.0
        assert norm(problem.grad_f(u)) ** 2 == 4.0
        assert adaptive_tau(problem, u, rho=2.0) == 4.0

    def test_reference_value_at_ones(self, s4):
        assert adaptive_tau(s4, np.ones(5), rho=2.0) == pytest.approx(TAU_AT_ONES_RHO2, abs=1e-18)

    def test_rho_validated(self, s4):
        with pytest.raises(ValueError):
            adaptive_tau(s4, np.ones(5), rho=4.0)
        with pytest.raises(ValueError):
            adaptive_tau(s4, np.ones(5), rho=0.0)


class TestInertialTheta:
    def test_equal_iterates_return_theta(self):
        x = np.ones(3)
        assert inertial_theta(0.7, 0.01, x, x) == 0.7

    def test_ratio_branch(self):
        x = np.zeros(2)
        y = np.array([0.1, 0.0])
        assert inertial_theta(0.5, 0.01, x, y) == pytest.approx(0.1, abs=1e-15)

    def test_theta_branch(self):
        x = np.zeros(2)
        y = np.array([0.1, 0.0])
        assert inertial_theta(0.05, 10.0, x, y) == 0.05

    def test_validation(self):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            inertial_theta(-0.1, 0.0, x, x)
        with pytest.raises(ValueError):
            inertial_theta(0.1, -1.0, x, x)
        for theta, epsilon in ((math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan)):
            with pytest.raises(ValueError):
                inertial_theta(theta, epsilon, x, x + 1.0)


def reference_step(problem, mode, params, theta, lam, x_n, x_prev, tau=None, rho=2.0,
                   guard=1e-24):
    """Independent recomputation of one update, straight from the formulas."""
    al, be, de, eps = params["alpha"], params["beta"], params["delta"], params["epsilon"]
    ga = 1.0 - al - be
    dx = np.linalg.norm(x_n - x_prev)
    th = theta if dx == 0 else min(theta, eps / dx)
    u = x_n + th * (x_n - x_prev)
    au = problem.A.matrix @ u
    r = au - problem.Q.project(au)
    f_u = 0.5 * float(r @ r)
    g = problem.A.matrix.T @ r
    gg = float(g @ g)
    if tau is None:
        tau = 0.0 if gg <= guard else rho * f_u / gg
    s = problem.S if problem.S is not None else None
    su = s(u) if s is not None else u
    t_u = (1.0 - lam) * u + lam * su
    if mode == "proof":
        y = problem.C.project((1 - de) * (u - tau * g) + de * t_u)
    elif mode == "statement":
        y = problem.C.project((1 - de) * u - tau * g) + de * t_u
    else:
        y = problem.C.project((1 - de) * u + de * t_u - tau * g)
    x_next = al * problem.g(x_n) + be * u + ga * y
    return x_next, u, y


class TestStep:
    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_matches_direct_formulas(self, mode):
        problem = generate_random_sfp(4, 3, "box", seed=5, include_fixed_point_map=True)
        schedule = ParameterSchedule(
            alpha=Seq.power_law(0.0, 0.1, 1.0),
            beta=Seq.power_law(0.4, -0.04, 1.0),
            gamma=None,
            delta=Seq.constant(0.6),
            rho=Seq.constant(2.5),
            epsilon=Seq.power_law(0.0, 0.1, 2.0),
            theta=0.3,
            lam=0.5,
        )
        config = StepperConfig(mode=mode)
        rng = np.random.default_rng(6)
        x_prev = rng.standard_normal(4)
        x_n = rng.standard_normal(4)
        for n in (1, 2, 7):
            x_next, record = step(problem, schedule, config, n, x_n, x_prev)
            p = schedule.at(n)
            expected, u, y = reference_step(
                problem, mode,
                {"alpha": p.alpha, "beta": p.beta, "delta": p.delta, "epsilon": p.epsilon},
                schedule.theta, schedule.lam, x_n, x_prev, rho=p.rho,
            )
            assert norm(x_next - expected) <= 1e-12
            x_prev, x_n = x_n, x_next

    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_cq_reduction_modes_coincide(self, s4, mode):
        # with delta = 0 every composition collapses to P_C(u - tau grad)
        schedule = constant_schedule(delta=0.0)
        config = StepperConfig(mode=mode)
        x = np.ones(5)
        x_next, _ = step(s4, schedule, config, 1, x, x)
        direct = s4.C.project(x - TAU_AT_ONES_RHO2 * s4.grad_f(x))
        assert norm(x_next - direct) <= 1e-12

    def test_fixed_point_consistency(self, s4, x_star):
        # at the solution with a null contraction and alpha -> 0 the update is stationary
        schedule = constant_schedule(alpha=0.0, beta=0.3, delta=0.5, theta=0.5)
        for mode in ("proof", "statement", "explore"):
            x_next, record = step(s4, schedule, StepperConfig(mode=mode), 3, x_star, x_star)
            assert norm(x_next - x_star) <= 1e-12
            assert record.tau == 0.0  # vanishing gradient takes the guard path

    def test_schedule_violation_named(self, s4):
        bad = ParameterSchedule(
            alpha=Seq.constant(0.5),
            beta=Seq.constant(0.2),
            gamma=Seq.constant(0.2),  # sums to 0.9
            delta=Seq.constant(0.5),
            rho=Seq.constant(2.0),
            epsilon=Seq.constant(0.0),
        )
        with pytest.raises(ScheduleViolation, match=r"\(c5\)"):
            step(s4, bad, StepperConfig(), 1, np.ones(5), np.ones(5))

    def test_range_violation_named(self, s4):
        bad = ParameterSchedule(
            alpha=Seq.constant(-0.1),
            beta=Seq.constant(0.6),
            gamma=None,
            delta=Seq.constant(0.5),
            rho=Seq.constant(2.0),
            epsilon=Seq.constant(0.0),
        )
        with pytest.raises(ScheduleViolation, match="alpha"):
            step(s4, bad, StepperConfig(), 1, np.ones(5), np.ones(5))

    def test_inertial_bound_structural(self, s4):
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs)
        x_prev = np.ones(5)
        x_n = np.ones(5) * 1.5
        for n in range(1, 40):
            x_next, record = step(s4, schedule, config, n, x_n, x_prev)
            eps_n = schedule.at(n).epsilon
            assert record.theta * norm(x_n - x_prev) <= eps_n + 1e-15
            x_prev, x_n = x_n, x_next

    def test_tau_numerator_switch(self, s4):
        # the experimentation switch evaluates the adaptive numerator at the
        # current iterate instead of the extrapolated point
        schedule = constant_schedule(theta=0.5, epsilon=10.0, delta=0.0)
        x_prev = np.ones(5)
        x_n = np.ones(5) * 1.2
        u = x_n + 0.5 * (x_n - x_prev)
        gvec = s4.grad_f(u)
        for numerator, f_point in (("u", u), ("x", x_n)):
            config = StepperConfig(tau_numerator=numerator)
            x_next, record = step(s4, schedule, config, 1, x_n, x_prev)
            tau_expected = 2.0 * s4.f_value(f_point) / float(gvec @ gvec)
            assert record.tau == pytest.approx(tau_expected, rel=1e-15)
            assert norm(x_next - s4.C.project(u - tau_expected * gvec)) <= 1e-12

    def test_convex_combination_identity(self):
        # x_{n+1} = alpha g(x_n) + (1 - alpha) v_n with v_n the (beta, gamma) blend
        problem = generate_random_sfp(3, 3, "halfspace", seed=8)
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs)
        rng = np.random.default_rng(9)
        x_prev, x_n = rng.standard_normal(3), rng.standard_normal(3)
        for n in (1, 4, 9):
            p = schedule.at(n)
            x_next, _ = step(problem, schedule, config, n, x_n, x_prev)
            expected, u, y = reference_step(
                problem, "proof",
                {"alpha": p.alpha, "beta": p.beta, "delta": p.delta, "epsilon": p.epsilon},
                schedule.theta, schedule.lam, x_n, x_prev, rho=p.rho,
            )
            v = (p.beta * u + p.gamma * y) / (1.0 - p.alpha)
            recombined = p.alpha * problem.g(x_n) + (1.0 - p.alpha) * v
            assert norm(recombined - x_next) <= 1e-12
            x_prev, x_n = x_n, x_next


class TestRun:
    def test_start_at_solution(self, s4, x_star):
        schedule, kwargs = preset_schedule("paper-s4")
        history = run(s4, schedule, StepperConfig(**kwargs), x_star, x_star)
        assert history.termination_reason == "residual_met"
        assert history.steps == 0
        assert len(history.iterates) == 1

    def test_default_second_seed(self, s4, x_star):
        schedule, kwargs = preset_schedule("paper-s4")
        history = run(s4, schedule, StepperConfig(**kwargs), x_star)
        assert history.termination_reason == "residual_met"

    def test_cq_preset_converges(self, s4, x_star):
        schedule, kwargs = preset_schedule("cq")
        config = StepperConfig(**kwargs, stopping=StoppingRule(max_iter=1000))
        history = run(s4, schedule, config, np.ones(5))
        assert history.termination_reason == "residual_met"
        assert np.max(np.abs(history.final - x_star)) <= 1e-10

    def test_cq_on_random_instances_drives_f_to_zero(self):
        schedule, kwargs = preset_schedule("cq")
        for seed, family in ((1, "box"), (2, "ball"), (3, "halfspace")):
            problem = generate_random_sfp(5, 4, family, seed=seed)
            config = StepperConfig(**kwargs, stopping=StoppingRule(max_iter=10_000))
            history = run(problem, schedule, config, np.zeros(5))
            assert problem.f_value(history.final) <= 1e-10

    def test_determinism_bitwise(self, s4):
        schedule, kwargs = preset_schedule("fast")
        config = StepperConfig(**kwargs, stopping=StoppingRule(max_iter=300))
        h1 = run(s4, schedule, config, np.ones(5))
        h2 = run(s4, schedule, config, np.ones(5))
        assert h1.termination_reason == h2.termination_reason
        assert len(h1.iterates) == len(h2.iterates)
        for a, b in zip(h1.iterates, h2.iterates):
            assert np.array_equal(a, b)
        for r1, r2 in zip(h1.records, h2.records):
            assert r1 == r2

    def test_divergence_raises_with_partial_history(self):
        # an expanding fixed-point map with heavy averaged weight blows up
        problem = SfpProblem(
            A=LinearMap(np.eye(1)),
            C=WholeSpace(1),
            Q=Singleton(np.array([1.0])),
            S=linear_mapping([[3.0]], name="expanding"),
        )
        schedule = constant_schedule(delta=0.9, lam=1.0)
        with pytest.raises(DivergenceError) as exc:
            run(problem, schedule, StepperConfig(stopping=StoppingRule(max_iter=500)), np.array([2.0]))
        history = exc.value.history
        assert history.termination_reason == "divergence"
        assert history.steps > 0
        assert norm(history.final) <= 1e12

    def test_schedule_violation_keeps_partial_history(self, s4):
        schedule = dataclasses.replace(constant_schedule(), epsilon=Seq.explicit([0.1, 0.05, 0.025]))
        with pytest.raises(ScheduleViolation, match=r"^explicit sequence exhausted at n = 4 \(length 3\)$") as exc:
            run(s4, schedule, StepperConfig(), np.ones(5))
        history = exc.value.history
        assert history.termination_reason == "schedule_violation"
        assert history.steps == 3 and len(history.iterates) == 4
        with pytest.raises(ScheduleViolation) as exc:
            step(s4, schedule, StepperConfig(), 4, np.ones(5), np.ones(5))
        assert exc.value.history is None

    def test_grad_zero_reason(self):
        # Q is the whole space, so the gradient vanishes identically while the
        # start point is far from C: the scheme's own stop rule fires
        problem = SfpProblem(
            A=LinearMap(np.eye(2)),
            C=Box(np.ones(2) * 5.0, np.ones(2) * 6.0),
            Q=WholeSpace(2),
        )
        schedule = constant_schedule()
        history = run(problem, schedule, StepperConfig(), np.zeros(2))
        assert history.termination_reason == "grad_zero"
        assert history.steps == 0

    def test_max_iter_reason(self, s4):
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs, stopping=StoppingRule(max_iter=5))
        history = run(s4, schedule, config, np.ones(5))
        assert history.termination_reason == "max_iter"
        assert history.steps == 5
        assert len(history.iterates) == 6

    def test_fejer_monitors_on_reference_problem(self, s4):
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs, stopping=StoppingRule(max_iter=400))
        history = run(s4, schedule, config, np.ones(5))
        checked = 0
        for rec in history.records:
            if rec.quasi_ne_slack <= 1e-10:
                checked += 1
                assert rec.fejer_gap_y <= 1e-10
                assert rec.fejer_gap_v <= 1e-10
        assert checked > 0

    def test_fixed_step_validated_against_operator_norm(self, s4):
        schedule, _ = preset_schedule("cq")
        too_big = 2.0 / (0.9 * S4_NORM_SQ)
        config = StepperConfig(step_rule="fixed", fixed_step=too_big)
        with pytest.raises(ValueError, match="fixed step"):
            run(s4, schedule, config, np.ones(5))

    def test_fixed_step_bound_sees_all_singular_directions(self):
        problem = SfpProblem(A=LinearMap(np.array([[1.0, -1.0]])), C=WholeSpace(2), Q=Singleton(np.zeros(1)))
        config = StepperConfig(step_rule="fixed", fixed_step=5.0, stopping=StoppingRule(max_iter=20))
        with pytest.raises(ValueError, match="fixed step"):  # the limit is 2 / ||A||^2 = 1
            run(problem, constant_schedule(), config, np.array([1.0, 0.0]))

    @staticmethod
    def _run_jump_map(lam):
        problem = SfpProblem(
            A=LinearMap(np.eye(1)),
            C=Box(np.zeros(1), np.ones(1)),
            Q=WholeSpace(1),
            S=unit_interval_jump_map(),  # demicontractive, modulus 2/3
        )
        run(problem, constant_schedule(delta=0.5, lam=lam),
            StepperConfig(stopping=StoppingRule(max_iter=2)), np.array([0.4]))

    def test_lambda_warning_for_declared_modulus(self):
        with pytest.warns(UserWarning, match="averaging weight"):
            self._run_jump_map(0.5)  # 0.5 >= 1 - 2/3

    def test_no_lambda_warning_inside_modulus_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            self._run_jump_map(0.25)  # 0.25 < 1 - 2/3


S4_NORM_SQ = 10.591820151285528**2


def assert_run_is_step_loop(problem, schedule, config, x0):
    """run() and a hand-driven step() loop give bit-identical iterates and records."""
    history = run(problem, schedule, config, x0)
    assert history.steps >= 1
    x_prev = x_n = np.asarray(x0, dtype=float)
    for n, record in enumerate(history.records, start=1):
        x_next, expected = step(problem, schedule, config, n, x_n, x_prev)
        assert history.iterates[n].tobytes() == x_next.tobytes()
        assert [float(v).hex() for v in dataclasses.astuple(record)] == \
            [float(v).hex() for v in dataclasses.astuple(expected)]
        x_prev, x_n = x_n, x_next
    if history.termination_reason != "max_iter":
        # the loop stopped because the next step's gradient passed the test
        _, next_record = step(problem, schedule, config, history.steps + 1, x_n, x_prev)
        assert next_record.grad_norm_u <= config.stopping.grad_tol


class TestRunIsStepLoop:
    @pytest.mark.parametrize("numerator", ["u", "x"])
    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reference_problem(self, s4, preset, mode, numerator):
        schedule, _ = preset_schedule(preset)
        config = StepperConfig(mode=mode, tau_numerator=numerator, stopping=StoppingRule(max_iter=50))
        assert_run_is_step_loop(s4, schedule, config, np.ones(5))

    @pytest.mark.parametrize("numerator", ["u", "x"])
    def test_random_problem_with_fixed_point_map(self, numerator):
        problem = generate_random_sfp(6, 4, "box", seed=8, include_fixed_point_map=True)
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs, tau_numerator=numerator, stopping=StoppingRule(max_iter=50))
        x0 = np.random.default_rng(9).standard_normal(6)
        assert_run_is_step_loop(problem, schedule, config, x0)


def written_out_step(problem, schedule, config, n, x_n, x_prev):
    """One update with every quantity formed in the order of the scheme,
    through the public operations only; returns (x_next, record fields)."""
    p = schedule.at(n)
    dx = norm(x_n - x_prev)
    theta_n = schedule.theta if dx == 0.0 else min(schedule.theta, p.epsilon / dx)
    u = x_n + theta_n * (x_n - x_prev)
    r = problem.residual(u)
    gvec = problem.A.apply_adjoint(r)
    f_u, gg = 0.5 * float(np.dot(r, r)), float(np.dot(gvec, gvec))
    if config.step_rule == "fixed":
        tau = config.fixed_step
    elif gg <= 1e-24:
        tau = 0.0
    else:
        tau = p.rho * (problem.f_value(x_n) if config.tau_numerator == "x" else f_u) / gg
    t_u = problem.averaged_map(schedule.lam)(u)
    d = p.delta
    w = (1.0 - d) * (u - tau * gvec) + d * t_u
    if config.mode == "proof":
        y = problem.C.project(w)
    elif config.mode == "statement":
        y = problem.C.project((1.0 - d) * u - tau * gvec) + d * t_u
    else:
        y = problem.C.project((1.0 - d) * u + d * t_u - tau * gvec)
    x_next = p.alpha * problem.g(x_n) + p.beta * u + p.gamma * y

    gap_y = gap_v = qne_slack = float("nan")
    xs = problem.known_solution
    if xs is not None:
        du = norm(u - xs)
        gap_y = norm(y - xs) - du
        if 1.0 - p.alpha > 1e-300:
            gap_v = norm((p.beta * u + p.gamma * y) / (1.0 - p.alpha) - xs) - du
        qne_slack = norm(t_u - xs) - du

    coef = p.gamma / (1.0 - p.alpha) if 1.0 - p.alpha > 1e-300 else 0.0
    term1 = (1.0 - d) * coef * p.rho * (4.0 - p.rho) * f_u * f_u / gg if gg > 1e-24 else 0.0
    drift = t_u - u + tau * gvec
    blend_residual = w - problem.C.project(w)
    psi = (term1 + d * (1.0 - d) * coef * float(np.dot(drift, drift))
           + coef * float(np.dot(blend_residual, blend_residual)))
    return x_next, (n, theta_n, tau, f_u, math.sqrt(gg), gap_y, gap_v, qne_slack, psi)


def assert_run_is_written_out_step(problem, schedule, config, x0):
    """run() reproduces the written-out update bit for bit, record field by field."""
    history = run(problem, schedule, config, x0)
    assert history.steps >= 1
    x_prev = x_n = np.asarray(x0, dtype=float)
    for n, record in enumerate(history.records, start=1):
        x_next, fields = written_out_step(problem, schedule, config, n, x_n, x_prev)
        assert history.iterates[n].tobytes() == x_next.tobytes()
        assert [float(v).hex() for v in dataclasses.astuple(record)] == [float(v).hex() for v in fields]
        x_prev, x_n = x_n, x_next


class TestRunMatchesWrittenOutStep:
    @pytest.mark.parametrize("numerator", ["u", "x"])
    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reference_problem(self, s4, preset, mode, numerator):
        schedule, _ = preset_schedule(preset)
        config = StepperConfig(mode=mode, tau_numerator=numerator, stopping=StoppingRule(max_iter=50))
        assert_run_is_written_out_step(s4, schedule, config, np.ones(5))

    @pytest.mark.parametrize("numerator", ["u", "x"])
    def test_random_problem_with_fixed_point_map(self, numerator):
        problem = generate_random_sfp(6, 4, "box", seed=8, include_fixed_point_map=True)
        schedule, kwargs = preset_schedule("paper-s4")
        config = StepperConfig(**kwargs, tau_numerator=numerator, stopping=StoppingRule(max_iter=50))
        assert_run_is_written_out_step(problem, schedule, config, np.random.default_rng(9).standard_normal(6))

    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_fixed_step_rule(self, s4, mode):
        schedule, _ = preset_schedule("paper-s4")
        config = StepperConfig(mode=mode, step_rule="fixed", fixed_step=1e-3, stopping=StoppingRule(max_iter=50))
        assert_run_is_written_out_step(s4, schedule, config, np.ones(5))


class TestPsiDiagnostic:
    def test_zero_at_solution(self, s4, x_star):
        schedule, _ = preset_schedule("paper-s4")
        assert psi_diagnostic(s4, schedule, 1, x_star, 0.0) <= 1e-20

    def test_delta_one_kills_first_two_terms(self, s4):
        schedule = constant_schedule(delta=1.0)
        u = np.ones(5)
        tau = TAU_AT_ONES_RHO2
        psi = psi_diagnostic(s4, schedule, 1, u, tau)
        # only the projection-residual term survives structurally
        t_u = s4.averaged_map(schedule.lam)(u)
        res = t_u - s4.C.project(t_u)
        expected = float(res @ res)  # gamma / (1 - alpha) = 1 here
        assert psi == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_on_random_steps(self):
        problem = generate_random_sfp(4, 4, "box", seed=17, include_fixed_point_map=True)
        schedule, _ = preset_schedule("paper-s4")
        rng = np.random.default_rng(18)
        for n in range(1, 30):
            u = rng.standard_normal(4) * 2.0
            tau = adaptive_tau(problem, u, rho=schedule.at(n).rho)
            assert psi_diagnostic(problem, schedule, n, u, tau) >= -1e-12


class TestValidateSchedule:
    def test_reference_schedule_passes(self):
        schedule, _ = preset_schedule("paper-s4")
        report = validate_schedule(schedule, horizon=10_000)
        assert report.ok
        levels = {e.condition: e.level for e in report.entries}
        for cond in ("(c1)", "(c2)", "(c3)", "(c4)", "(c5)"):
            assert levels[cond] == "pass", report.text()

    def test_zero_beta_warns_on_range_not_c1(self):
        schedule, _ = preset_schedule("table-1")
        report = validate_schedule(schedule, horizon=1000)
        assert report.ok  # warnings only
        c1 = [e for e in report.entries if e.condition == "(c1)"]
        assert c1[0].level == "pass"
        range_warns = [e for e in report.entries if e.condition == "range" and e.level == "warn"]
        assert any("beta" in e.message for e in range_warns)

    def test_sum_violation_fails(self):
        bad = ParameterSchedule(
            alpha=Seq.constant(0.5), beta=Seq.constant(0.2), gamma=Seq.constant(0.2),
            delta=Seq.constant(0.5), rho=Seq.constant(2.0), epsilon=Seq.constant(0.0),
        )
        report = validate_schedule(bad, horizon=10)
        assert not report.ok
        failed = [e for e in report.entries if e.level == "fail"]
        assert any(e.condition == "(c5)" for e in failed)

    @pytest.mark.parametrize("values", [
        {}, {"alpha": 1.5}, {"alpha": math.nan}, {"beta": -0.1}, {"alpha": 0.5, "beta": 0.2, "gamma": 0.2},
        {"epsilon": -1.0}, {"epsilon": math.inf}, {"epsilon": math.nan}, {"rho": 4.0}, {"rho": math.nan},
    ], ids=["admissible", "alpha=1.5", "alpha=nan", "beta=-0.1", "sum=0.9", "epsilon=-1", "epsilon=inf",
            "epsilon=nan", "rho=4", "rho=nan"])
    def test_run_and_validation_agree(self, s4, values):
        schedule = dataclasses.replace(constant_schedule(), **{k: Seq.constant(v) for k, v in values.items()})
        try:
            run(s4, schedule, StepperConfig(stopping=StoppingRule(max_iter=3)), np.ones(5))
            raised = ""
        except ScheduleViolation as exc:
            raised = str(exc)
        report = validate_schedule(schedule, horizon=3)
        flagged = [e for e in report.entries if e.level == "fail"]
        if "rho" in values:  # the step rule is unknown to the validator
            assert not flagged
            flagged = [e for e in report.warnings if e.message.startswith("rho(")]
        assert bool(raised) == bool(flagged) == bool(values), report.text()
        if raised:
            assert raised.endswith(" " + flagged[0].message), report.text()
        assert "np.float64" not in report.text()

    def test_cq_schedule_warns_on_vanishing_alpha(self):
        schedule, _ = preset_schedule("cq")
        report = validate_schedule(schedule, horizon=100)
        assert report.ok
        warned = {e.condition for e in report.warnings}
        assert "(c2)" in warned and "(c3)" in warned

    def test_explicit_sequence_exhaustion(self):
        schedule = ParameterSchedule(
            alpha=Seq.explicit([0.1, 0.05]), beta=Seq.constant(0.4), gamma=None,
            delta=Seq.constant(0.5), rho=Seq.constant(2.0), epsilon=Seq.constant(0.0),
        )
        assert schedule.at(2).alpha == 0.05
        with pytest.raises(ScheduleViolation):
            validate_schedule(schedule, horizon=5)

    def test_horizon_validated(self):
        schedule, _ = preset_schedule("paper-s4")
        with pytest.raises(ValueError):
            validate_schedule(schedule, horizon=0)


class TestProblemValidation:
    def test_dimension_checks(self):
        with pytest.raises(Exception):
            SfpProblem(A=LinearMap(np.ones((2, 3))), C=WholeSpace(2), Q=WholeSpace(2))

    def test_known_solution_must_be_feasible(self):
        with pytest.raises(ValueError, match="known_solution"):
            SfpProblem(
                A=LinearMap(np.eye(2)),
                C=Box(np.zeros(2), np.ones(2)),
                Q=WholeSpace(2),
                known_solution=np.array([5.0, 5.0]),
            )

    def test_g_must_be_contraction(self):
        from sfp.mappings import identity_map

        with pytest.raises(ValueError, match="contraction"):
            SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=WholeSpace(2),
                       g=identity_map(2))

    def test_default_g_is_null_map(self, s4):
        assert s4.g.name == "zero"
        assert np.array_equal(s4.g(np.ones(5)), np.zeros(5))


class TestConfigValidation:
    def test_mode_names(self):
        with pytest.raises(ValueError):
            StepperConfig(mode="informal")

    def test_fixed_step_requires_value(self):
        with pytest.raises(ValueError):
            StepperConfig(step_rule="fixed")

    def test_stopping_rule_positive(self):
        with pytest.raises(ValueError):
            StoppingRule(grad_tol=0.0)
        with pytest.raises(ValueError):
            StoppingRule(max_iter=0)

    def test_schedule_pickles(self):
        schedule, _ = preset_schedule("paper-s4")
        schedule = dataclasses.replace(schedule, epsilon=Seq.explicit([0.1, 0.05]))
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy == schedule
        assert [copy.at(n) for n in (1, 2)] == [schedule.at(n) for n in (1, 2)]

    def test_schedule_scalar_validation(self):
        with pytest.raises(ValueError):
            constant_schedule(theta=-1.0)
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^theta: must be finite and >= 0"):
                constant_schedule(theta=theta)
        with pytest.raises(ValueError):
            constant_schedule(lam=0.0)
