import dataclasses
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sfp import solver
from sfp.bench import PRESETS, build_example_s4, generate_random_sfp, representative_sets, schedule_from_config
from sfp.linalg import LinearMap, block_rows, norm
from sfp.mappings import (estimate_demicontractive_modulus, linear_mapping, scaling_map, unit_interval_jump_map,
                          verify_quasi_nonexpansive, zero_map)
from sfp.sets import AffineNullspace, Ball, Box, Singleton, WholeSpace
from sfp.solver import (
    GRAD_GUARD,
    MONITOR_DTYPE,
    RECORD_DTYPE,
    ParameterSchedule,
    ScheduleViolation,
    Seq,
    SfpProblem,
    StepperConfig,
    monitors,
    run,
    validate_schedule,
)

# value of the split objective and of the adaptive step at the all-ones start
# of the reference experiment, frozen from direct arithmetic (the matrix and
# right-hand side are dyadic rationals, so f and the gradient are exact)
F_AT_ONES = 79.14453125
GRAD_AT_ONES = np.array([35.125, 35.875, 54.125, 106.75, 27.5])
TAU_AT_ONES_RHO2 = 0.008992618959908036


# the sequences of a schedule row, in the order of ParameterSchedule.block's tuples
SCHEDULE_FIELDS = ("alpha", "beta", "gamma", "delta", "rho", "epsilon")

# schedule values for property tests: finite floats mixed with the range
# boundaries and the non-finite values
SCHEDULE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            st.sampled_from([0.0, 1.0, 4.0, math.inf, -math.inf, math.nan]))


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


def one_step_run(problem, schedule, x_prev, x_n, config=StepperConfig()):
    """The history of a run of one step from the seeds (x_prev, x_n)."""
    return run(problem, schedule, dataclasses.replace(config, max_iter=1), x_prev, x_n)


def record_at(problem, schedule, u, config=StepperConfig()):
    """The record of step 1 from x_0 = x_1 = u, which extrapolates to u itself."""
    history = one_step_run(problem, schedule, u, u, config)
    assert history.steps == 1, history.termination_reason
    return history.records[0]


def step_at(problem, schedule, n, x_prev, x_n, config=StepperConfig()):
    """(x_next, record) of step n from (x_prev, x_n), through the update and
    the records of run but without its stop tests, so also where the gradient
    vanishes (where run takes no step), and without run's blocks."""
    x_next, kept = solver._stepper(problem, schedule, config)(schedule.block(n, n + 1)[0], x_n, x_prev)
    return x_next, solver._records(n, [kept]).view(np.recarray)[0]


def monitors_at(problem, schedule, n, x_prev, x_n, config=StepperConfig()):
    """The monitors of step n from (x_prev, x_n), taken by step_at."""
    x_next, record = step_at(problem, schedule, n, x_prev, x_n, config)
    history = solver.RunHistory(np.array([x_n, x_next]), np.array([record]).view(np.recarray), "max_iter")
    return monitors(problem, schedule, config, x_prev, history)[0]


class TestAdaptiveTau:
    def test_guard_at_solution(self, s4, x_star):
        assert step_at(s4, constant_schedule(), 1, x_star, x_star)[1].tau == 0.0

    def test_direct_substitution(self):
        # A = I/2 on R^2 with Q = {0}: at u = (8, 0), f = 8 and ||grad||^2 = 4,
        # so tau = rho f / ||grad||^2 = 4 for rho = 2
        problem = SfpProblem(A=LinearMap(0.5 * np.eye(2)), C=WholeSpace(2), Q=Singleton(np.zeros(2)))
        u = np.array([8.0, 0.0])
        assert problem.f_value(u) == 8.0
        assert norm(problem.grad_f(u)) ** 2 == 4.0
        assert record_at(problem, constant_schedule(rho=2.0), u).tau == 4.0

    def test_reference_value_at_ones(self, s4):
        tau = record_at(s4, constant_schedule(rho=2.0), np.ones(5)).tau
        assert tau == pytest.approx(TAU_AT_ONES_RHO2, abs=1e-18)

    def test_rho_validated(self, s4):
        for rho in (4.0, 0.0):
            history = one_step_run(s4, constant_schedule(rho=rho), np.ones(5), np.ones(5))
            assert (history.termination_reason, history.steps) == ("schedule_violation", 0)
            assert history.error == f"(range) rho(1) = {rho} outside (0, 4)"


class TestInertialTheta:
    """theta_n = min(theta, epsilon / ||x_n - x_prev||), read off the step's record."""

    @staticmethod
    def theta_n(theta, epsilon, x_n, x_prev):
        # theta_n does not read Q; a far singleton keeps the gradient from
        # vanishing, where run would take no step
        dim = x_n.size
        problem = SfpProblem(A=LinearMap(np.eye(dim)), C=WholeSpace(dim), Q=Singleton(np.full(dim, 100.0)))
        schedule = constant_schedule(theta=theta, epsilon=epsilon)
        return one_step_run(problem, schedule, x_prev, x_n).records[0].theta

    def test_equal_iterates_return_theta(self):
        x = np.ones(3)
        assert self.theta_n(0.7, 0.01, x, x) == 0.7

    def test_ratio_branch(self):
        x = np.zeros(2)
        y = np.array([0.1, 0.0])
        assert self.theta_n(0.5, 0.01, x, y) == pytest.approx(0.1, abs=1e-15)

    def test_theta_branch(self):
        x = np.zeros(2)
        y = np.array([0.1, 0.0])
        assert self.theta_n(0.05, 10.0, x, y) == 0.05


def run_seeds(problem, schedule, config, x0, x1):
    """The seed x0 and the iterates of a run of config.max_iter steps from
    (x0, x1): step n goes from rows (n - 1, n) to row n + 1.  The run must
    not stop early, as it does once the gradient vanishes."""
    history = run(problem, schedule, config, x0, x1)
    assert history.steps == config.max_iter, history.termination_reason
    return np.vstack([x0, history.iterates])


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
            alpha=Seq("power-law", coeff=0.1, power=1.0),
            beta=Seq("power-law", const=0.4, coeff=-0.04, power=1.0),
            gamma=None,
            delta=Seq.constant(0.6),
            rho=Seq.constant(2.5),
            epsilon=Seq("power-law", coeff=0.1, power=2.0),
            theta=0.3,
            lam=0.5,
        )
        rng = np.random.default_rng(12)  # seeds whose gradient does not vanish within 7 steps
        seeds = run_seeds(problem, schedule, StepperConfig(mode=mode, max_iter=7),
                          4.0 * rng.standard_normal(4), 4.0 * rng.standard_normal(4))
        for n in (1, 2, 7):
            alpha, beta, _, delta, rho, epsilon = schedule.at(n)
            expected, u, y = reference_step(
                problem, mode,
                {"alpha": alpha, "beta": beta, "delta": delta, "epsilon": epsilon},
                schedule.theta, schedule.lam, seeds[n], seeds[n - 1], rho=rho,
            )
            assert norm(seeds[n + 1] - expected) <= 1e-12

    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_cq_reduction_modes_coincide(self, s4, mode):
        # with delta = 0 every composition collapses to P_C(u - tau grad)
        schedule = constant_schedule(delta=0.0)
        x = np.ones(5)
        x_next = one_step_run(s4, schedule, x, x, StepperConfig(mode=mode)).iterates[1]
        direct = s4.C.project(x - TAU_AT_ONES_RHO2 * s4.grad_f(x))
        assert norm(x_next - direct) <= 1e-12

    def test_fixed_point_consistency(self, s4, x_star):
        # at the solution with a null contraction and alpha -> 0 the update is stationary
        schedule = constant_schedule(alpha=0.0, beta=0.3, delta=0.5, theta=0.5)
        for mode in ("proof", "statement", "explore"):
            x_next, record = step_at(s4, schedule, 3, x_star, x_star, StepperConfig(mode=mode))
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
        history = one_step_run(s4, bad, np.ones(5), np.ones(5))
        assert (history.termination_reason, history.steps) == ("schedule_violation", 0)
        assert history.error.startswith("(c5) ")

    def test_range_violation_named(self, s4):
        bad = ParameterSchedule(
            alpha=Seq.constant(-0.1),
            beta=Seq.constant(0.6),
            gamma=None,
            delta=Seq.constant(0.5),
            rho=Seq.constant(2.0),
            epsilon=Seq.constant(0.0),
        )
        history = one_step_run(s4, bad, np.ones(5), np.ones(5))
        assert (history.termination_reason, history.steps) == ("schedule_violation", 0)
        assert history.error == "(range) alpha(1) = -0.1 outside [0, 1]"

    def test_inertial_bound_structural(self, s4):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, max_iter=39)
        history = run(s4, schedule, config, np.ones(5), np.ones(5) * 1.5)
        seeds = np.vstack([np.ones(5), history.iterates])
        assert history.steps == 39
        for n, record in enumerate(history.records, start=1):
            *_, eps_n = schedule.at(n)
            assert record.theta * norm(seeds[n] - seeds[n - 1]) <= eps_n + 1e-15

    def test_tau_numerator_switch(self, s4):
        # the experimentation switch evaluates the adaptive numerator at the
        # current iterate instead of the extrapolated point
        schedule = constant_schedule(theta=0.5, epsilon=10.0, delta=0.0)
        x_prev = np.ones(5)
        x_n = np.ones(5) * 1.2
        u = x_n + 0.5 * (x_n - x_prev)
        gvec = s4.grad_f(u)
        for numerator, f_point in (("u", u), ("x", x_n)):
            history = one_step_run(s4, schedule, x_prev, x_n, StepperConfig(tau_numerator=numerator))
            x_next, record = history.iterates[1], history.records[0]
            tau_expected = 2.0 * s4.f_value(f_point) / float(gvec @ gvec)
            assert record.tau == pytest.approx(tau_expected, rel=1e-15)
            assert norm(x_next - s4.C.project(u - tau_expected * gvec)) <= 1e-12

    def test_convex_combination_identity(self):
        # x_{n+1} = alpha g(x_n) + (1 - alpha) v_n with v_n the (beta, gamma) blend
        problem = generate_random_sfp(3, 3, "halfspace", seed=8)
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        rng = np.random.default_rng(10)  # seeds whose gradient does not vanish within 9 steps
        seeds = run_seeds(problem, schedule, StepperConfig(mode=mode, max_iter=9),
                          rng.standard_normal(3), rng.standard_normal(3))
        for n in (1, 4, 9):
            alpha, beta, gamma, delta, rho, epsilon = schedule.at(n)
            x_prev, x_n = seeds[n - 1], seeds[n]
            expected, u, y = reference_step(
                problem, "proof",
                {"alpha": alpha, "beta": beta, "delta": delta, "epsilon": epsilon},
                schedule.theta, schedule.lam, x_n, x_prev, rho=rho,
            )
            v = (beta * u + gamma * y) / (1.0 - alpha)
            recombined = alpha * problem.g(x_n) + (1.0 - alpha) * v
            assert norm(recombined - seeds[n + 1]) <= 1e-12


ADVERSARIAL_OPERATORS = dict(
    kind=st.sampled_from(["ones-in-null-space", "rank-deficient", "near-equal-top", "condition-1e12"]),
    rows=st.integers(2, 6), cols=st.integers(2, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**16),
)


def adversarial_matrix(kind, rows, cols, scale, rng):
    """A rows x cols operator of the given kind, drawn from ``rng``."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    if kind == "ones-in-null-space":
        a = rng.standard_normal((rows, cols))
        a -= np.outer(a.sum(axis=1), np.ones(cols)) / cols
    else:
        sv = {"rank-deficient": np.concatenate([1.0 + rng.random(k - 1), [0.0]]),
              "near-equal-top": np.concatenate([[1.0, 1.0 - 1e-4], 0.5 * rng.random(k - 2)]),
              "condition-1e12": np.logspace(0.0, -12.0, k)}[kind]
        a = u @ np.diag(sv) @ v.T
    return a * scale


def fixed_step_limit(a):
    """2 / ||A||^2 from an independent oracle, the largest eigenvalue of A^T A."""
    return 2.0 / float(np.linalg.eigvalsh(a.T @ a)[-1])


class TestRun:
    def test_start_at_solution(self, s4, x_star):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        history = run(s4, schedule, StepperConfig(mode=mode), x_star, x_star)
        assert history.termination_reason == "residual_met" and history.error is None
        assert history.steps == 0
        assert len(history.iterates) == 1

    def test_default_second_seed(self, s4, x_star):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        history = run(s4, schedule, StepperConfig(mode=mode), x_star)
        assert history.termination_reason == "residual_met"

    def test_cq_preset_converges(self, s4, x_star):
        schedule, mode = schedule_from_config({"preset": "cq"}), PRESETS["cq"][1]
        config = StepperConfig(mode=mode, max_iter=1000)
        history = run(s4, schedule, config, np.ones(5))
        assert history.termination_reason == "residual_met"
        assert np.max(np.abs(history.final - x_star)) <= 1e-10

    def test_cq_on_random_instances_drives_f_to_zero(self):
        schedule, mode = schedule_from_config({"preset": "cq"}), PRESETS["cq"][1]
        for seed, family in ((1, "box"), (2, "ball"), (3, "halfspace")):
            problem = generate_random_sfp(5, 4, family, seed=seed)
            config = StepperConfig(mode=mode, max_iter=10_000)
            history = run(problem, schedule, config, np.zeros(5))
            assert problem.f_value(history.final) <= 1e-10

    def test_determinism_bitwise(self, s4):
        schedule, mode = schedule_from_config({"preset": "fast"}), PRESETS["fast"][1]
        config = StepperConfig(mode=mode, max_iter=300)
        h1 = run(s4, schedule, config, np.ones(5))
        h2 = run(s4, schedule, config, np.ones(5))
        assert h1.termination_reason == h2.termination_reason
        assert len(h1.iterates) == len(h2.iterates)
        for a, b in zip(h1.iterates, h2.iterates):
            assert np.array_equal(a, b)
        for r1, r2 in zip(h1.records, h2.records):
            assert r1 == r2

    def test_divergence_returns_partial_history(self):
        # an expanding fixed-point map with heavy averaged weight blows up
        problem = SfpProblem(
            A=LinearMap(np.eye(1)),
            C=WholeSpace(1),
            Q=Singleton(np.array([1.0])),
            S=linear_mapping([[3.0]]),
        )
        schedule = constant_schedule(delta=0.9, lam=1.0)
        history = run(problem, schedule, StepperConfig(max_iter=500), np.array([2.0]))
        assert history.termination_reason == "divergence"
        assert history.steps > 0
        assert history.error == f"iterates diverged at step {history.steps + 1}"
        assert norm(history.final) <= 1e12

    def test_schedule_violation_returns_partial_history(self, s4):
        schedule = dataclasses.replace(constant_schedule(), epsilon=Seq.explicit([0.1, 0.05, 0.025]))
        history = run(s4, schedule, StepperConfig(), np.ones(5))
        assert history.termination_reason == "schedule_violation"
        assert history.error == "explicit sequence exhausted at n = 4 (length 3)"
        assert history.steps == 3 and len(history.iterates) == 4

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
        assert history.termination_reason == "grad_zero" and history.error is None
        assert history.steps == 0

    def test_max_iter_reason(self, s4):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, max_iter=5)
        history = run(s4, schedule, config, np.ones(5))
        assert history.termination_reason == "max_iter" and history.error is None
        assert history.steps == 5
        assert len(history.iterates) == 6

    def test_fejer_monitors_on_reference_problem(self, s4):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, max_iter=400)
        history = run(s4, schedule, config, np.ones(5))
        checked = 0
        for rec in monitors(s4, schedule, config, np.ones(5), history):
            if rec.quasi_ne_slack <= 1e-10:
                checked += 1
                assert rec.fejer_gap_y <= 1e-10
                assert rec.fejer_gap_v <= 1e-10
        assert checked > 0

    def test_fixed_step_validated_against_operator_norm(self, s4):
        schedule = schedule_from_config({"preset": "cq"})
        too_big = 2.0 / (0.9 * S4_NORM_SQ)
        config = StepperConfig(step_rule="fixed", fixed_step=too_big)
        with pytest.raises(ValueError, match="fixed step"):
            run(s4, schedule, config, np.ones(5))

    def test_fixed_step_bound_sees_all_singular_directions(self):
        problem = SfpProblem(A=LinearMap(np.array([[1.0, -1.0]])), C=WholeSpace(2), Q=Singleton(np.zeros(1)))
        config = StepperConfig(step_rule="fixed", fixed_step=5.0, max_iter=20)
        with pytest.raises(ValueError, match="fixed step"):  # the limit is 2 / ||A||^2 = 1
            run(problem, constant_schedule(), config, np.array([1.0, 0.0]))

    @settings(derandomize=True, max_examples=25)
    @given(**ADVERSARIAL_OPERATORS)
    def test_fixed_step_bound_on_adversarial_operators(self, kind, rows, cols, scale, seed):
        rng = np.random.default_rng(seed)
        a = adversarial_matrix(kind, rows, cols, scale, rng)
        limit = fixed_step_limit(a)
        problem = SfpProblem(A=LinearMap(a), C=WholeSpace(cols), Q=Ball(10.0 * scale * np.ones(rows), 0.5))
        x1 = rng.standard_normal(cols)

        def one_step(fixed_step):
            config = StepperConfig(step_rule="fixed", fixed_step=fixed_step, max_iter=1)
            return run(problem, constant_schedule(), config, x1)

        with pytest.raises(ValueError, match="fixed step"):
            one_step(limit * (1.0 + 1e-9))
        assert one_step(limit * (1.0 - 1e-9)).steps <= 1

    @settings(derandomize=True, max_examples=25)
    @given(**ADVERSARIAL_OPERATORS, data=st.data())
    def test_delta_zero_is_projected_gradient(self, kind, rows, cols, scale, seed, data):
        # with delta = 0 the three compositions of y collapse to the CQ update
        # x <- P_C(x - tau A^T (A x - P_Q(A x))), criterion 7's oracle
        rng = np.random.default_rng(seed)
        a = adversarial_matrix(kind, rows, cols, scale, rng)
        # representative_sets' null space is 5-dimensional whatever the dim
        c = data.draw(st.sampled_from([s for s in representative_sets(cols) if s.dim == cols]))
        q = data.draw(st.sampled_from([s for s in representative_sets(rows) if s.dim == rows]))
        problem = SfpProblem(A=LinearMap(a), C=c, Q=q)
        x1 = rng.standard_normal(cols)
        assume(problem.f_value(x1) > 0.0)  # a start with A x1 in Q stops before any step
        tau = 0.9 * fixed_step_limit(a)
        stop = {"max_iter": 20, "grad_tol": 1e-300, "residual_tol": 1e-300}

        def iterates(mode, **rule):
            config = StepperConfig(mode=mode, **stop, **rule)
            return np.array(run(problem, constant_schedule(delta=0.0), config, x1).iterates)

        for rule in ({"step_rule": "adaptive"}, {"step_rule": "fixed", "fixed_step": tau}):
            proof = iterates("proof", **rule)
            for mode in ("statement", "explore"):
                assert np.array_equal(iterates(mode, **rule), proof)
        x = x1
        for x_next in proof[1:]:  # the fixed-step run
            ax = a @ x
            x = c.project(x - tau * (a.T @ (ax - q.project(ax))))
            assert norm(x_next - x) <= 1e-12

    @staticmethod
    def _run_jump_map(lam):
        problem = SfpProblem(
            A=LinearMap(np.eye(1)),
            C=Box(np.zeros(1), np.ones(1)),
            Q=WholeSpace(1),
            S=unit_interval_jump_map(),  # demicontractive, modulus 2/3
        )
        run(problem, constant_schedule(delta=0.5, lam=lam),
            StepperConfig(max_iter=2), np.array([0.4]))

    def test_lambda_warning_for_declared_modulus(self):
        with pytest.warns(UserWarning, match="averaging weight"):
            self._run_jump_map(0.5)  # 0.5 >= 1 - 2/3

    def test_no_lambda_warning_inside_modulus_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            self._run_jump_map(0.25)  # 0.25 < 1 - 2/3


class TestJumpMapMonitors:
    """The paper's class: S the jump map, demicontractive with k = 2/3 and not
    quasi-nonexpansive, whose averaged map T is quasi-nonexpansive for lambda
    < 1 - k.  A = [[1]], C the whole line and Q = {7/8}, the one solution."""

    @staticmethod
    def monitored(lam, x1):
        problem = SfpProblem(A=LinearMap([[1.0]]), C=WholeSpace(1), Q=Singleton(np.array([0.875])),
                             S=unit_interval_jump_map(), known_solution=np.array([0.875]))
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        schedule = dataclasses.replace(schedule, lam=lam)
        config = StepperConfig(mode=mode, max_iter=200)
        history = run(problem, schedule, config, np.array([x1]))
        assert (history.termination_reason, history.steps) == ("max_iter", 200)
        return monitors(problem, schedule, config, np.array([x1]), history)

    @pytest.mark.parametrize("x1", [0.0, 0.3, 0.6, 0.95, 1.0])
    def test_inside_the_modulus_bound(self, x1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            monitored = self.monitored(0.25, x1)
        for name in ("quasi_ne_slack", "fejer_gap_y", "fejer_gap_v"):
            assert (monitored[name] <= 0.0).all(), name

    def test_outside_the_modulus_bound(self):
        # at lambda = 0.5, T 1 = 0.625 is farther from 7/8 than 1 is: the first
        # step from x1 = 1, where u = 1, is the one with a positive slack
        with pytest.warns(UserWarning, match="averaging weight"):
            monitored = self.monitored(0.5, 1.0)
        assert np.flatnonzero(monitored.quasi_ne_slack > 0.0).tolist() == [0]


class TestDemicontractiveMonitorsInSixDimensions:
    """The paper's class in R^6: S = P_F + c (I - P_F) for a plane F and c = -2
    is demicontractive with k = (c + 1) / (c - 1) = 1/3, exactly on every point
    off F, and not quasi-nonexpansive.  The averaged map is P_F + (1 - 3 lam)
    (I - P_F), so it is quasi-nonexpansive for lam < 1 - k = 2/3 and moves a
    point off F farther from F above it.  A is a seeded 4 x 6 Gaussian, C = [-1,
    1]^6 and Q the ball of radius 0.05 about A p for a p in F and C, which is
    the known solution.  Only the warning and the monitors are asserted, not
    how a run ends or whether it converges."""

    C_FACTOR = -2.0

    @classmethod
    def problem(cls):
        rng = np.random.default_rng(7)
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        p_f = basis @ basis.T
        p = basis @ rng.standard_normal(2)
        p *= 0.5 / np.max(np.abs(p))
        a = rng.standard_normal((4, 6))
        c = cls.C_FACTOR
        s = linear_mapping(p_f + c * (np.eye(6) - p_f), "demicontractive", (c + 1.0) / (c - 1.0),
                           known_fixed_points=(p,))
        return SfpProblem(A=LinearMap(a), C=Box(-np.ones(6), np.ones(6)), Q=Ball(a @ p, 0.05), S=s,
                          known_solution=p)

    def test_the_map_is_in_the_paper_class(self):
        problem = self.problem()
        points = np.random.default_rng(8).uniform(-3.0, 3.0, (50, 6))
        xs = problem.known_solution
        assert math.isclose(estimate_demicontractive_modulus(problem.S, xs, points), 1.0 / 3.0, abs_tol=1e-12)
        assert verify_quasi_nonexpansive(problem.S, xs, points) > 0.1

    @pytest.mark.parametrize("lam, outside", [(0.3, False), (0.6, False), (0.7, True), (0.9, True)])
    def test_monitors_follow_the_modulus_bound(self, lam, outside):
        problem = self.problem()
        schedule = schedule_from_config({"preset": "paper-s4", "lambda": lam})
        config = StepperConfig(mode=PRESETS["paper-s4"][1], max_iter=500)
        for x1 in np.random.default_rng(9).uniform(-3.0, 3.0, (3, 6)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                history = run(problem, schedule, config, x1)
            messages = [str(w.message) for w in caught]
            assert len(messages) == outside and all(m.startswith("averaging weight") for m in messages)
            monitored = monitors(problem, schedule, config, x1, history)
            assert history.steps > 0 and len(monitored) == history.steps
            if outside:
                # every u off F is moved farther from p
                assert (monitored.quasi_ne_slack > 0.0).all()
            else:
                for name in ("quasi_ne_slack", "fejer_gap_y", "fejer_gap_v"):
                    assert (monitored[name] <= 0.0).all(), name


S4_NORM_SQ = 10.591820151285528**2


def assert_run_is_step_loop(problem, schedule, config, x0):
    """run()'s block loop and a loop of single steps (step_at) give
    bit-identical iterates and records."""
    history = run(problem, schedule, config, x0)
    assert history.steps >= 1
    x_prev = x_n = np.asarray(x0, dtype=float)
    for n, record in enumerate(history.records, start=1):
        x_next, expected = step_at(problem, schedule, n, x_prev, x_n, config)
        assert history.iterates[n].tobytes() == x_next.tobytes()
        assert [float(v).hex() for v in tuple(record)] == [float(v).hex() for v in tuple(expected)]
        x_prev, x_n = x_n, x_next
    if history.termination_reason != "max_iter":
        # the loop stopped because the next step's gradient passed the test
        _, next_record = step_at(problem, schedule, history.steps + 1, x_prev, x_n, config)
        assert next_record.grad_norm_u <= config.grad_tol


class TestRunIsStepLoop:
    @pytest.mark.parametrize("numerator", ["u", "x"])
    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reference_problem(self, s4, preset, mode, numerator):
        schedule = schedule_from_config({"preset": preset})
        config = StepperConfig(mode=mode, tau_numerator=numerator, max_iter=50)
        assert_run_is_step_loop(s4, schedule, config, np.ones(5))

    @pytest.mark.parametrize("numerator", ["u", "x"])
    def test_random_problem_with_fixed_point_map(self, numerator):
        problem = generate_random_sfp(6, 4, "box", seed=8, include_fixed_point_map=True)
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, tau_numerator=numerator, max_iter=50)
        x0 = np.random.default_rng(9).standard_normal(6)
        assert_run_is_step_loop(problem, schedule, config, x0)


def written_out_step(problem, schedule, config, n, x_n, x_prev):
    """One update with every quantity formed in the order of the scheme,
    through the public operations only; returns (x_next, record fields)."""
    alpha, beta, gamma, delta, rho, epsilon = schedule.at(n)
    dx = norm(x_n - x_prev)
    theta_n = schedule.theta if dx == 0.0 else min(schedule.theta, epsilon / dx)
    u = x_n + theta_n * (x_n - x_prev)
    r = problem.residual(u)
    gvec = problem.A.apply_adjoint(r)
    f_u, gg = 0.5 * float(np.dot(r, r)), float(np.dot(gvec, gvec))
    if config.step_rule == "fixed":
        tau = config.fixed_step
    elif gg <= 1e-24:
        tau = 0.0
    else:
        tau = rho * (problem.f_value(x_n) if config.tau_numerator == "x" else f_u) / gg
    t_u = problem.averaged_map(schedule.lam)(u)
    d = delta
    w = (1.0 - d) * (u - tau * gvec) + d * t_u
    if config.mode == "proof":
        y = problem.C.project(w)
    elif config.mode == "statement":
        y = problem.C.project((1.0 - d) * u - tau * gvec) + d * t_u
    else:
        y = problem.C.project((1.0 - d) * u + d * t_u - tau * gvec)
    x_next = alpha * problem.g(x_n) + beta * u + gamma * y

    gap_y = gap_v = qne_slack = float("nan")
    xs = problem.known_solution
    if xs is not None:
        du = norm(u - xs)
        gap_y = norm(y - xs) - du
        if 1.0 - alpha > 1e-300:
            gap_v = norm((beta * u + gamma * y) / (1.0 - alpha) - xs) - du
        qne_slack = norm(t_u - xs) - du

    coef = gamma / (1.0 - alpha) if 1.0 - alpha > 1e-300 else 0.0
    term1 = (1.0 - d) * coef * rho * (4.0 - rho) * f_u * f_u / gg if gg > 1e-24 else 0.0
    drift = t_u - u + tau * gvec
    blend_residual = w - problem.C.project(w)
    psi = (term1 + d * (1.0 - d) * coef * float(np.dot(drift, drift))
           + coef * float(np.dot(blend_residual, blend_residual)))
    return x_next, (n, theta_n, tau, f_u, math.sqrt(gg), gap_y, gap_v, qne_slack, psi)


def assert_run_is_written_out_step(problem, schedule, config, x0, on_block=None, x1=None):
    """run() reproduces the written-out update bit for bit, record field by
    field, and monitors() the written-out monitors."""
    history = run(problem, schedule, config, x0, x1, on_block=on_block)
    assert history.steps >= 1
    monitored = monitors(problem, schedule, config, x0, history)
    assert monitored.dtype == MONITOR_DTYPE and len(monitored) == history.steps
    x_prev = np.asarray(x0, dtype=float)
    x_n = x_prev if x1 is None else np.asarray(x1, dtype=float)
    for n, (record, monitor) in enumerate(zip(history.records, monitored), start=1):
        x_next, fields = written_out_step(problem, schedule, config, n, x_n, x_prev)
        assert history.iterates[n].tobytes() == x_next.tobytes()
        assert [float(v).hex() for v in tuple(record) + tuple(monitor)] == [float(v).hex() for v in fields]
        x_prev, x_n = x_n, x_next
    if history.termination_reason in ("residual_met", "grad_zero"):
        # the run stopped because the next step's gradient passed the test
        _, fields = written_out_step(problem, schedule, config, history.steps + 1, x_n, x_prev)
        assert fields[4] <= config.grad_tol  # grad_norm_u
    return history


class TestRunMatchesWrittenOutStep:
    @pytest.mark.parametrize("numerator", ["u", "x"])
    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_reference_problem(self, s4, preset, mode, numerator):
        schedule = schedule_from_config({"preset": preset})
        config = StepperConfig(mode=mode, tau_numerator=numerator, max_iter=50)
        assert_run_is_written_out_step(s4, schedule, config, np.ones(5))

    @pytest.mark.parametrize("numerator", ["u", "x"])
    def test_random_problem_with_fixed_point_map(self, numerator):
        problem = generate_random_sfp(6, 4, "box", seed=8, include_fixed_point_map=True)
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, tau_numerator=numerator, max_iter=50)
        assert_run_is_written_out_step(problem, schedule, config, np.random.default_rng(9).standard_normal(6))

    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_fixed_step_rule(self, s4, mode):
        schedule = schedule_from_config({"preset": "paper-s4"})
        config = StepperConfig(mode=mode, step_rule="fixed", fixed_step=1e-3, max_iter=50)
        assert_run_is_written_out_step(s4, schedule, config, np.ones(5))

    @pytest.mark.parametrize("mode", ["proof", "statement", "explore"])
    def test_distinct_seeds(self, s4, mode):
        # x0 is the iterate before x1, so the first step extrapolates along x1 - x0
        schedule = schedule_from_config({"preset": "paper-s4"})
        config = StepperConfig(mode=mode, max_iter=2 * BLOCK_S4 + 40)
        assert_run_is_written_out_step(s4, schedule, config, np.arange(5.0), x1=np.ones(5))

    def test_no_known_solution(self, s4):
        # without x* the gaps are NaN, and psi is still taken
        problem = SfpProblem(A=s4.A, C=s4.C, Q=s4.Q, S=s4.S)
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, max_iter=50)
        history = assert_run_is_written_out_step(problem, schedule, config, np.ones(5))
        monitored = monitors(problem, schedule, config, np.ones(5), history)
        for name in ("fejer_gap_y", "fejer_gap_v", "quasi_ne_slack"):
            assert np.isnan(monitored[name]).all()
        assert (monitored.psi >= 0.0).all()


# blocks of block_rows(dim) steps: 204 at dim 5, 16 from dim 65 to 8,192
BLOCK_S4 = block_rows(5)
WIDE = 600  # a dim with blocks of 16 steps


class TestBlocks:
    """run takes its steps in blocks; no block boundary may show in the results."""

    @pytest.mark.parametrize("preset", ["paper-s4", "fast"])
    def test_several_blocks_at_dim_five(self, s4, preset):
        schedule, mode = schedule_from_config({"preset": preset}), PRESETS[preset][1]
        config = StepperConfig(mode=mode, max_iter=2 * BLOCK_S4 + 40)
        assert_run_is_written_out_step(s4, schedule, config, np.ones(5))

    # about 1,024 values to a block up to dim 64, then 16 steps until 16 rows
    # pass 2**17 values
    @pytest.mark.parametrize("dim, block", [(5, 204), (64, 16), (65, 16), (341, 16), (600, 16), (10_000, 13)])
    def test_wide_problems(self, s4, dim, block):
        if dim == 5:  # random instances this narrow stop within 40 steps
            problem, x0 = s4, np.ones(5)
        else:
            problem = generate_random_sfp(dim, min(dim // 2, 300), "box", seed=8, include_fixed_point_map=True)
            x0 = np.random.default_rng(9).standard_normal(dim)
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        config = StepperConfig(mode=mode, max_iter=3 * block + 2)
        lengths = []
        assert_run_is_written_out_step(problem, schedule, config, x0,
                                       on_block=lambda iterates, records: lengths.append(len(records)))
        assert lengths == [block, block, block, 2]

    def test_vanishing_gradient_records(self, s4):
        # with a grad_tol below 1e-12 the run keeps steps whose ||grad f||^2 is at
        # most GRAD_GUARD: tau = 0 and psi has no gradient term
        schedule, mode = schedule_from_config({"preset": "cq"}), PRESETS["cq"][1]
        config = StepperConfig(mode=mode, grad_tol=1e-300, residual_tol=1e-300, max_iter=1500)
        history = assert_run_is_written_out_step(s4, schedule, config, np.ones(5))
        guarded = [r for r in history.records if r.grad_norm_u ** 2 <= GRAD_GUARD]
        assert len(guarded) > BLOCK_S4 and all(r.tau == 0.0 for r in guarded)


class TestHistoryArrays:
    """A run's history is one iterate array and one column per record field."""

    def test_a_long_run_holds_few_bytes_per_step(self, s4):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        run(s4, schedule, StepperConfig(mode=mode, max_iter=300), np.ones(5))  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            history = run(s4, schedule, StepperConfig(mode=mode, max_iter=20_000), np.ones(5))
            held, peak = (traced - before for traced in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert (history.termination_reason, history.steps) == ("max_iter", 20_000)
        # 40 bytes of iterate and 40 of record per step, and under one byte of
        # the interpreter's own (free lists): 80.8
        assert history.iterates.nbytes + history.records.nbytes == 80 * history.steps + 40
        assert held / history.steps <= 81
        # the iterate blocks go before the record blocks are joined: about 123
        assert peak / history.steps <= 128
        assert history.iterates.shape == (20_001, 5) and history.iterates.dtype == np.float64
        assert history.records.theta.shape == (20_000,)
        assert (history.records[0].n, history.records[-1].n) == (1, 20_000)

    def test_a_run_without_steps(self, s4, x_star):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
        broken = dataclasses.replace(schedule, alpha=Seq.explicit([1.5]))
        for history in (run(s4, schedule, StepperConfig(mode=mode), x_star),
                        run(s4, broken, StepperConfig(mode=mode), np.ones(5))):
            assert history.iterates.shape == (1, 5) and len(history.records) == 0
            assert len(monitors(s4, schedule, StepperConfig(mode=mode), history.iterates[0], history)) == 0
        assert history.error == "(range) alpha(1) = 1.5 outside [0, 1]"


# the step n at which each ending is placed: the first, a middle and the last
# step of the first two blocks at dim 5
ENDING_STEPS = [1, BLOCK_S4 // 2, BLOCK_S4, BLOCK_S4 + 1, BLOCK_S4 + BLOCK_S4 // 2, 2 * BLOCK_S4]


def _ending_case(ending, n, dim=5):
    """(problem, schedule, config, x0, expected error) of a run that ends at
    step n with ``ending``; past dim 5, A has columns of zeros."""
    # spread singular values keep the gradient above grad_tol for 2 * BLOCK_S4 steps
    a = LinearMap(np.pad([[1.0, 0, 0, 0.5, 0], [0, 0.3, 0, 0, 0.2], [0, 0, 0.05, 0, 0]], ((0, 0), (0, dim - 5))))
    origin = Singleton(np.zeros(3))
    problem = SfpProblem(A=a, C=Box(-np.ones(dim), np.ones(dim)), Q=origin, known_solution=np.zeros(dim))
    x0 = np.full(dim, 3.0)
    schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]
    config = StepperConfig(mode=mode)
    error = None
    if ending in ("residual_met", "grad_zero"):
        # alpha(n - 1) = 1 moves x_n to g(x_{n-1}) = 0, where Q holds A x and
        # the gradient vanishes; C holds 0 for residual_met only
        if ending == "grad_zero":
            problem = SfpProblem(A=a, C=Box(np.ones(dim), 2 * np.ones(dim)), Q=origin)
        alphas = ([0.0] * (n - 2) + [1.0] if n > 1 else []) + [0.0] * 10
        schedule = dataclasses.replace(constant_schedule(delta=0.5, theta=0.5), alpha=Seq.explicit(alphas))
        x0 = x0 if n > 1 else np.zeros(dim)
    elif ending == "divergence":
        # delta(n) = 1 puts the step on T = (I + S) / 2 with S = 1e13 I
        problem = SfpProblem(A=a, C=WholeSpace(dim), Q=origin, S=linear_mapping(1e13 * np.eye(dim)))
        deltas = [0.0] * (n - 1) + [1.0] + [0.0] * 10
        schedule = dataclasses.replace(constant_schedule(), delta=Seq.explicit(deltas))
        error = f"iterates diverged at step {n}"
    elif ending == "range":
        alphas = [0.01] * (n - 1) + [1.5] + [0.01] * 10
        schedule = dataclasses.replace(schedule, alpha=Seq.explicit(alphas))
        error = f"(range) alpha({n}) = 1.5 outside [0, 1]"
    elif ending == "exhausted":
        schedule = dataclasses.replace(schedule, epsilon=Seq.explicit([0.01] * (n - 1)))
        error = f"explicit sequence exhausted at n = {n} (length {n - 1})"
    elif ending == "max_iter":
        config = StepperConfig(mode=mode, max_iter=n)
    return problem, schedule, config, x0, error


ENDINGS = ["residual_met", "grad_zero", "divergence", "range", "exhausted", "max_iter"]


class TestEndingsAtBlockBoundaries:
    @staticmethod
    def assert_ending(ending, n, dim=5):
        """A run set up to end at step n with ``ending`` ends there, with the
        written-out steps; returns the lengths of the blocks it handed on."""
        problem, schedule, config, x0, error = _ending_case(ending, n, dim)
        lengths = []
        history = run(problem, schedule, config, x0, on_block=lambda iterates, records: lengths.append(len(records)))
        assert all(lengths) and sum(lengths) == history.steps  # no block is empty, not even the last
        assert (history.termination_reason, history.error) == (
            "schedule_violation" if ending in ("range", "exhausted") else ending, error)
        assert history.steps == (n if ending == "max_iter" else n - 1)
        if history.steps:
            assert_run_is_written_out_step(problem, schedule, config, x0)
        if ending in ("residual_met", "grad_zero") and n > 1:
            # step n - 1 ran with 1 - alpha = 0: no blend v, and psi has coefficient 0
            last = monitors(problem, schedule, config, x0, history)[-1]
            assert math.isnan(last.fejer_gap_v) and last.psi == 0.0
            assert (not math.isnan(last.fejer_gap_y)) == (ending == "residual_met")
        return lengths

    @pytest.mark.parametrize("n", ENDING_STEPS)
    @pytest.mark.parametrize("ending", ENDINGS)
    def test_ending(self, ending, n):
        if ending == "exhausted" and n == 1:
            n = 2  # a list has at least one value
        self.assert_ending(ending, n)

    # step 24, in the middle of the second block of 16; the rows of a list
    # end with the block, and the next block, which finds none, is not handed on
    @pytest.mark.parametrize("ending", ENDINGS)
    def test_a_wide_run_ending_in_the_middle_of_a_block(self, ending):
        block = block_rows(WIDE)
        n = block + block // 2
        steps = n if ending == "max_iter" else n - 1
        lengths = self.assert_ending(ending, n, WIDE)
        assert lengths == [block, steps - block]


class TestOnBlock:
    @pytest.mark.parametrize("n", ENDING_STEPS)
    @pytest.mark.parametrize("ending", ["residual_met", "divergence", "exhausted", "max_iter"])
    def test_blocks_make_up_the_history(self, ending, n):
        self.assert_blocks_make_up_the_history(ending, max(n, 2))

    # blocks of 16 steps, the third cut short at step 40 (the fourth finds
    # that the list has run out, and is not handed on)
    @pytest.mark.parametrize("ending", ["residual_met", "divergence", "exhausted", "max_iter"])
    def test_wide_blocks_make_up_the_history(self, ending):
        blocks = self.assert_blocks_make_up_the_history(ending, 40, WIDE)
        lengths = [len(records) for _, records in blocks]
        assert lengths == [16, 16, 8 - (ending != "max_iter")]

    # a list of 2 * 16 values runs out at the end of the second block; the
    # third, which finds no value, is not handed on (dim 5: test_ending)
    def test_a_wide_list_that_runs_out_at_the_end_of_a_block(self):
        blocks = self.assert_blocks_make_up_the_history("exhausted", 2 * block_rows(WIDE) + 1, WIDE)
        assert [len(records) for _, records in blocks] == [16, 16]

    @staticmethod
    def assert_blocks_make_up_the_history(ending, n, dim=5):
        problem, schedule, config, x0, _ = _ending_case(ending, n, dim)
        blocks = []
        history = run(problem, schedule, config, x0, on_block=lambda *block: blocks.append(block))
        for iterates, records in blocks:
            assert len(records) >= 1
            assert iterates.shape == (len(records), dim) and iterates.dtype == np.float64
            assert records.dtype == RECORD_DTYPE
        assert np.array_equal(np.concatenate([history.iterates[:1]] + [b[0] for b in blocks]), history.iterates)
        assert b"".join(b[1].tobytes() for b in blocks) == history.records.tobytes()
        return blocks

    @pytest.mark.parametrize("dim", [5, WIDE])
    def test_monitors_of_each_block(self, dim):
        # a block with the iterate before it is a history from step records.n[0]
        problem, schedule, config, x0, _ = _ending_case("exhausted", 2 * block_rows(dim) + 3, dim)
        blocks = []
        history = run(problem, schedule, config, x0, on_block=lambda *block: blocks.append(block))
        whole = monitors(problem, schedule, config, x0, history)
        lo, x_prev, x_n = 0, x0, history.iterates[0]
        for iterates, records in blocks:  # the third ends where the list runs out
            block = solver.RunHistory(np.concatenate((x_n[None], iterates)), records, "max_iter")
            got = monitors(problem, schedule, config, x_prev, block)
            assert got.tobytes() == whole[lo:lo + len(records)].tobytes()
            lo, x_prev, x_n = lo + len(records), block.iterates[-2], block.iterates[-1]
        assert lo == history.steps and [len(records) for _, records in blocks] == [block_rows(dim)] * 2 + [2]

    def test_a_hook_that_raises_ends_the_run(self, s4):
        schedule, mode = schedule_from_config({"preset": "paper-s4"}), PRESETS["paper-s4"][1]

        def hook(iterates, records):
            if records["n"][0] > BLOCK_S4:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run(s4, schedule, StepperConfig(mode=mode, max_iter=3 * BLOCK_S4), np.ones(5), on_block=hook)


class TestPsiDiagnostic:
    def test_zero_at_solution(self, s4, x_star):
        schedule = schedule_from_config({"preset": "paper-s4"})
        assert monitors_at(s4, schedule, 1, x_star, x_star).psi <= 1e-20

    def test_delta_one_kills_first_two_terms(self, s4):
        schedule = constant_schedule(delta=1.0)
        u = np.ones(5)
        history = one_step_run(s4, schedule, u, u)
        assert history.records[0].tau == pytest.approx(TAU_AT_ONES_RHO2, abs=1e-18)
        psi = monitors(s4, schedule, StepperConfig(), u, history)[0].psi
        # only the projection-residual term survives structurally
        t_u = s4.averaged_map(schedule.lam)(u)
        res = t_u - s4.C.project(t_u)
        expected = float(res @ res)  # gamma / (1 - alpha) = 1 here
        assert psi == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_on_random_steps(self):
        problem = generate_random_sfp(4, 4, "box", seed=17, include_fixed_point_map=True)
        schedule = schedule_from_config({"preset": "paper-s4"})
        rng = np.random.default_rng(18)
        for n in range(1, 30):
            u = rng.standard_normal(4) * 2.0
            assert monitors_at(problem, schedule, n, u, u).psi >= -1e-12

    def test_overflow_to_inf_without_a_warning(self):
        # f_u * f_u overflows: Python floats give inf in silence, and the
        # per-block arithmetic must not warn where the scalar formula did not
        problem = SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=Singleton(np.zeros(2)))
        schedule, mode = schedule_from_config({"preset": "cq"}), PRESETS["cq"][1]
        config = StepperConfig(mode=mode, max_iter=3)
        x0 = np.array([1e80, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history = assert_run_is_written_out_step(problem, schedule, config, x0)
        assert (history.termination_reason, history.steps) == ("residual_met", 1)
        assert history.records[0].f_u == 5e159
        assert monitors(problem, schedule, config, x0, history)[0].psi == math.inf


NO_LIMIT = " is an explicit list, which ends the run where it runs out, so it has no limit"


class TestValidateSchedule:
    def test_reference_schedule_passes(self):
        schedule = schedule_from_config({"preset": "paper-s4"})
        report = validate_schedule(schedule, horizon=10_000)
        assert report.ok
        levels = {e.condition: e.level for e in report.entries}
        for cond in ("(c1)", "(c2)", "(c3)", "(c4)", "(c5)"):
            assert levels[cond] == "pass", report.text()

    def test_zero_beta_warns_on_range_not_c1(self):
        schedule = schedule_from_config({"preset": "table-1"})
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

    @staticmethod
    def assert_run_and_validation_agree(s4, schedule, horizon):
        """``run``'s error and the report's first fail (else its ``rho(``
        warning) name the same violation at n = 1, or none."""
        history = run(s4, schedule, StepperConfig(max_iter=horizon), np.ones(5))
        error = history.error
        report = validate_schedule(schedule, horizon=horizon)
        # rho's range only warns, as the step rule is unknown to the validator
        flagged = ([e.message for e in report.entries if e.level == "fail"]
                   or [e.message for e in report.entries if e.level == "warn" and e.message.startswith("rho(")])
        assert (error is None) == (not flagged), report.text()
        if error is not None:
            assert history.termination_reason == "schedule_violation" and history.steps == 0
            assert error.endswith(" " + flagged[0]), report.text()
        assert "np.float64" not in report.text()
        return error

    @pytest.mark.parametrize("values", [
        {}, {"alpha": 1.5}, {"alpha": math.nan}, {"beta": -0.1}, {"alpha": 0.5, "beta": 0.2, "gamma": 0.2},
        {"epsilon": -1.0}, {"epsilon": math.inf}, {"epsilon": math.nan}, {"rho": 4.0}, {"rho": 0.0},
        {"rho": math.nan},
    ], ids=["admissible", "alpha=1.5", "alpha=nan", "beta=-0.1", "sum=0.9", "epsilon=-1", "epsilon=inf",
            "epsilon=nan", "rho=4", "rho=0", "rho=nan"])
    def test_run_and_validation_agree(self, s4, values):
        schedule = dataclasses.replace(constant_schedule(), **{k: Seq.constant(v) for k, v in values.items()})
        raised = self.assert_run_and_validation_agree(s4, schedule, horizon=3)
        assert (raised is None) == (not values)

    @settings(derandomize=True, max_examples=50)
    @given(values=st.dictionaries(st.sampled_from(SCHEDULE_FIELDS), SCHEDULE_VALUES))
    @example(values={"alpha": 1e-300, "epsilon": 1e300})  # epsilon / alpha overflows a float
    def test_run_and_validation_agree_on_random_values(self, s4, values):
        # the drawn values replace those of an admissible schedule; gamma is the
        # complement unless it is drawn
        schedule = dataclasses.replace(constant_schedule(), **{k: Seq.constant(v) for k, v in values.items()})
        self.assert_run_and_validation_agree(s4, schedule, horizon=1)

    def test_first_fail_is_the_earliest_violation(self, s4):
        # beta breaks its range at n = 1 and alpha at n = 2: run stops at beta(1),
        # so the report lists it first
        schedule = dataclasses.replace(constant_schedule(), alpha=Seq.explicit([0.1, 1.5, 0.1]),
                                       beta=Seq.explicit([-0.1, 0.2, 0.2]))
        report = validate_schedule(schedule, horizon=3)
        fails = [e.message for e in report.entries if e.level == "fail"]
        assert fails == ["beta(1) = -0.1 outside [0, 1]", "alpha(2) = 1.5 outside [0, 1]",
                         "gamma(2) = -0.7 outside [0, 1]"]
        assert run(s4, schedule, StepperConfig(), np.ones(5)).error == "(range) " + fails[0]

    @settings(derandomize=True, max_examples=50)
    @given(values=st.dictionaries(st.sampled_from(SCHEDULE_FIELDS), st.lists(SCHEDULE_VALUES, min_size=3, max_size=3)))
    @example(values={"alpha": [0.1, 1.5, 0.1], "beta": [-0.1, 0.2, 0.2]})
    def test_first_flag_is_where_run_stops(self, s4, values):
        # lists of three values replace those of an admissible schedule; the
        # report's first fail or rho warning is the violation run stops at
        schedule = dataclasses.replace(constant_schedule(), **{k: Seq.explicit(v) for k, v in values.items()})
        history = run(s4, schedule, StepperConfig(max_iter=3), np.ones(5))
        report = validate_schedule(schedule, horizon=3)
        flagged = [e.message for e in report.entries if e.level == "fail" or e.message.startswith("rho(")]
        if history.termination_reason == "schedule_violation":
            assert history.error.endswith(" " + flagged[0]), report.text()
        elif history.termination_reason == "max_iter":
            assert not flagged, report.text()

    def test_cq_schedule_warns_on_vanishing_alpha(self):
        schedule = schedule_from_config({"preset": "cq"})
        report = validate_schedule(schedule, horizon=100)
        assert report.ok
        warned = {e.condition for e in report.entries if e.level == "warn"}
        assert "(c2)" in warned and "(c3)" in warned

    def test_explicit_sequence_exhaustion(self, s4):
        schedule = ParameterSchedule(
            alpha=Seq.explicit([0.1, 0.05]), beta=Seq.constant(0.4), gamma=None,
            delta=Seq.constant(0.5), rho=Seq.constant(2.0), epsilon=Seq.constant(0.0),
        )
        alpha, *_ = schedule.at(2)
        assert alpha == 0.05
        report = validate_schedule(schedule, horizon=5)
        message = "explicit sequence exhausted at n = 3 (length 2)"
        assert run(s4, schedule, StepperConfig(), np.ones(5)).error == message
        assert not report.ok and report.horizon == 2
        failed = [e for e in report.entries if e.level == "fail"]
        assert [(e.condition, e.message) for e in failed] == [("length", message)]
        assert [e.condition for e in report.entries] == ["(c5)", "length", "(c1)", "(c2)", "(c3)", "(c4)"]
        assert report.text().startswith("schedule check over n = 1..2\n")

    def test_horizon_validated(self):
        schedule = schedule_from_config({"preset": "paper-s4"})
        with pytest.raises(ValueError):
            validate_schedule(schedule, horizon=0)

    @staticmethod
    def asymptotic(schedule, horizon=1000):
        """The (c1)-(c4) entries of the report, as (condition, level, message)."""
        report = validate_schedule(schedule, horizon=horizon)
        return [(e.condition, e.level, e.message) for e in report.entries
                if e.condition in ("(c1)", "(c2)", "(c3)", "(c4)")]

    # paper-s4 with one sequence replaced: epsilon/alpha stays 0.009, and
    # sum 0.1 / n**1.05 converges, though a finite tail of either looks as if
    # the condition held
    @pytest.mark.parametrize("replaced, condition, message", [
        ({"epsilon": Seq("power-law", coeff=0.0009, power=1.0)}, "(c2)",
         "epsilon/alpha does not tend to 0: epsilon ~ 0.0009/n^1, alpha ~ 0.1/n^1"),
        ({"alpha": Seq("power-law", coeff=0.1, power=1.05)}, "(c3)",
         "alpha ~ 0.1/n^1.05 tends to 0 and its sum converges"),
    ], ids=["epsilon-over-alpha", "summable-alpha"])
    @pytest.mark.parametrize("horizon", [1000, 100_000])
    def test_a_condition_that_fails_on_every_tail_warns(self, replaced, condition, message, horizon):
        schedule = dataclasses.replace(schedule_from_config({"preset": "paper-s4"}), **replaced)
        entries = self.asymptotic(schedule, horizon)
        assert (condition, "warn", message) in entries
        assert [level for _, level, _ in entries].count("warn") == 1

    def test_fast_alpha_has_a_convergent_sum(self):
        entries = self.asymptotic(schedule_from_config({"preset": "fast"}))
        assert ("(c3)", "warn", "alpha ~ 0.1/n^3 tends to 0 and its sum converges") in entries

    @pytest.mark.parametrize("preset, warned", [("paper-s4", []), ("viscosity", []), ("fast", ["(c3)"]),
                                                ("cq", ["(c2)", "(c3)", "(c4)"]), ("table-1", ["(c4)"])])
    def test_asymptotic_verdicts_do_not_depend_on_the_horizon(self, preset, warned):
        schedule = schedule_from_config({"preset": preset})
        entries = self.asymptotic(schedule, 10)
        assert [condition for condition, level, _ in entries if level == "warn"] == warned
        assert entries == self.asymptotic(schedule, 1000) == self.asymptotic(schedule, 100_000)

    @pytest.mark.parametrize("replaced, undecided", [
        ({"alpha": Seq.explicit([0.1] * 5)}, {"(c2)": "alpha" + NO_LIMIT, "(c3)": "alpha" + NO_LIMIT}),
        ({"delta": Seq.explicit([0.5] * 5)}, {"(c4)": "delta" + NO_LIMIT}),
        ({"epsilon": Seq.constant(math.inf)}, {"(c2)": "a parameter of epsilon is not finite"}),
        ({"beta": Seq("power-law", const=0.5, coeff=-0.05, power=math.nan)},
         {"(c1)": "a parameter of beta is not finite"}),
    ], ids=["alpha-list", "delta-list", "epsilon-inf", "beta-power-nan"])
    def test_a_list_or_a_non_finite_parameter_is_undecided(self, replaced, undecided):
        schedule = dataclasses.replace(schedule_from_config({"preset": "paper-s4"}), **replaced)
        warned = {condition: message for condition, level, message in self.asymptotic(schedule, 5) if level == "warn"}
        assert warned == {condition: f"undecided: {why}" for condition, why in undecided.items()}

    # the leading term c / n**p of const + coeff / n**power, checked against the
    # sequence's own values at n = 1e20: with |power| >= 0.5 and the magnitudes
    # of const and coeff within a factor 1e3, the other term is at most
    # 1e3 / 1e10 = 1e-7 of the leading one there
    @settings(derandomize=True, max_examples=200)
    @given(const=st.sampled_from([0.0]) | st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
           coeff=st.sampled_from([0.0]) | st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
           power=st.sampled_from([0.0]) | st.floats(0.5, 3.0) | st.floats(-3.0, -0.5),
           rule=st.sampled_from(["constant", "power-law"]))
    def test_the_leading_term_is_that_of_the_values(self, const, coeff, power, rule):
        seq = Seq.constant(const) if rule == "constant" else Seq("power-law", const=const, coeff=coeff, power=power)
        c, p = solver._leading(seq)
        n = 10**20
        value = seq.block(n, n + 1)[0]
        if c == 0.0:
            assert p == 0.0 and value == 0.0
        else:
            assert math.isclose(value, c / float(n) ** p, rel_tol=1e-6)


class TestSequences:
    @pytest.mark.parametrize("seq", [Seq.constant(0.3), Seq("power-law", const=0.5, coeff=-0.05),
                                     Seq("power-law", coeff=0.1, power=2.5),
                                     Seq.explicit([0.1, 0.2, 0.3, 0.4])], ids=["constant", "power-1", "power-2.5",
                                                                              "explicit"])
    def test_at_is_the_one_row_block(self, seq):
        # a constant is the power law of power 0, so the formula is its reference too
        expected = list(seq.values) if seq.rule == "explicit" else [
            seq.const + seq.coeff / float(n) ** seq.power for n in range(1, 5)]  # Python's power
        assert seq.block(1, 5) == expected == [seq.block(n, n + 1)[0] for n in range(1, 5)]
        assert seq.block(3, 5) == expected[2:]

    @pytest.mark.parametrize("c", [0.5, 0.0, -0.0, math.inf, math.nan, 5e-324])
    def test_a_constant_block_is_the_constant_bit_for_bit(self, c):
        assert np.array(Seq.constant(c).block(1, 300)).tobytes() == np.array([c] * 299).tobytes()

    def test_a_constant_is_the_power_law_of_power_0(self):
        assert Seq.constant(0.3) == Seq("power-law", const=0.3, coeff=-0.0, power=0.0)
        # its values are not computed from n, so every n has one, however large
        assert Seq.constant(0.3).block(10**400, 10**400 + 2) == [0.3, 0.3]
        with pytest.raises(ValueError, match="^unknown sequence rule 'constant'$"):
            Seq("constant")

    def test_block_stops_at_the_end_of_a_list(self):
        seq = Seq.explicit([0.1, 0.2])
        assert seq.block(2, 10) == [0.2]
        with pytest.raises(ScheduleViolation, match=r"^explicit sequence exhausted at n = 3 \(length 2\)$"):
            seq.block(3, 10)

    def test_power_law_without_a_value(self, s4):
        # 2.0 ** 2000 overflows and 2.0 ** -2000 is 0: the values stop before n = 2,
        # which ends a run as an exhausted list does
        for power in (2000.0, -2000.0):
            seq = Seq("power-law", coeff=0.1, power=power)
            message = f"power-law sequence has no value at n = 2 (2**{power!r} overflows or is 0)"
            match = f"^{re.escape(message)}$"
            assert seq.block(1, 5) == [0.1]
            with pytest.raises(ScheduleViolation, match=match):
                seq.block(2, 5)
            schedule = dataclasses.replace(constant_schedule(), alpha=seq)
            with pytest.raises(ScheduleViolation, match=match):
                schedule.at(2)
            # a run that stops before n = 2 never needs that value
            history = run(s4, schedule, StepperConfig(max_iter=1), np.ones(5))
            assert (history.termination_reason, history.steps) == ("max_iter", 1)
            history = run(s4, schedule, StepperConfig(max_iter=2), np.ones(5))
            assert (history.termination_reason, history.steps, history.error) == ("schedule_violation", 1, message)
            assert len(history.iterates) == 2
            report = validate_schedule(schedule, horizon=10)
            assert not report.ok and report.horizon == 1
            assert [(e.condition, e.message) for e in report.entries if e.level == "fail"] == [("length", message)]

    def test_rule_and_index_checked(self):
        with pytest.raises(ValueError, match="unknown sequence rule 'cubic'"):
            Seq("cubic")
        with pytest.raises(ValueError, match="indexed from n = 1"):
            Seq.constant(1.0).block(0, 1)

    @pytest.mark.parametrize("make", [lambda: Seq("explicit"), lambda: Seq.explicit([])], ids=["Seq", "Seq.explicit"])
    def test_empty_list_refused(self, make):
        with pytest.raises(ValueError, match="^explicit sequence needs at least one value$"):
            make()

    @pytest.mark.parametrize("fields, message", [
        ({"rule": "power-law", "const": 0.5, "values": (9.0,)}, "values is read only by rule 'explicit'"),
        ({"rule": "explicit", "values": (1.0,), "const": 0.5}, "const is read only by rule 'power-law'"),
        ({"rule": "explicit", "values": (1.0,), "coeff": math.nan}, "coeff is read only by rule 'power-law'"),
        ({"rule": "explicit", "values": (1.0,), "power": 2}, "power is read only by rule 'power-law'"),
        # the numbers are read first, so a number's own message stays
        ({"rule": "explicit", "values": (1.0,), "const": True}, "const must be a number, got True"),
        ({"rule": "power-law", "values": (True,)}, "each value must be a number, got True"),
        ({"rule": "explicit", "const": 0.5}, "explicit sequence needs at least one value"),
    ], ids=["power-law-values", "explicit-const", "explicit-coeff-nan", "explicit-power", "bool-const", "bool-value",
            "explicit-empty"])
    def test_a_field_that_the_rule_does_not_read_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Seq(**fields)
        # the defaults are not refused
        assert Seq("explicit", const=0, coeff=0.0, power=1, values=(1.0,)).block(1, 3) == [1.0]
        assert Seq("power-law", const=0.5, values=[]).block(1, 3) == [0.5, 0.5]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_a_schedule_row_is_a_plain_tuple(self, preset):
        schedule = schedule_from_config({"preset": preset})
        rows = schedule.block(1, 2 * BLOCK_S4)
        for n in (1, 2, BLOCK_S4 + 1):
            row = schedule.at(n)
            assert type(row) is tuple and row == schedule.block(n, n + 1)[0] == rows[n - 1]

    def test_numbers_read_as_floats(self):
        assert Seq.constant("0.5").block(1, 3) == [0.5, 0.5]
        assert Seq.explicit(["0.1", 2]).values == (0.1, 2.0)
        seq = Seq("power-law", const="0", coeff=1, power="2")
        assert (seq.const, seq.coeff, seq.power) == (0.0, 1.0, 2.0) and seq.block(2, 3) == [0.25]


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

    @pytest.mark.parametrize("scale", [1e8, 1e9, 1e10])
    def test_large_known_solution_accepted(self, scale):
        # P_C, P_Q and S round to within a few ulps of ||x||; an absolute 1e-8
        # rejected most of these
        diagonal = AffineNullspace(LinearMap([[1.0, -1.0]]))
        swap = linear_mapping([[0.3, 0.7], [0.7, 0.3]])
        for a in np.arange(1, 31) * scale:
            xs = np.array([a, a])
            SfpProblem(A=LinearMap(np.eye(2)), C=diagonal, Q=WholeSpace(2), known_solution=xs)
            SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=diagonal, known_solution=xs)
            SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=WholeSpace(2), S=swap, known_solution=xs)

    @pytest.mark.parametrize("role", ["C", "Q", "S"])
    @pytest.mark.parametrize("xs", [(1e9, 1e9 + 40.0), (0.0, 1e-7)], ids=["large", "small"])
    def test_known_solution_near_miss_rejected(self, role, xs):
        # distance to the diagonal |x1 - x2| / sqrt(2): 28 > 1e-8 * 1.41e9 = 14, and 7e-8 > 1e-8
        diagonal = AffineNullspace(LinearMap([[1.0, -1.0]]))
        sets = {"C": diagonal if role == "C" else WholeSpace(2), "Q": diagonal if role == "Q" else WholeSpace(2)}
        s_map = linear_mapping([[0.5, 0.5], [0.5, 0.5]]) if role == "S" else None
        with pytest.raises(ValueError, match="known_solution"):
            SfpProblem(A=LinearMap(np.eye(2)), S=s_map, known_solution=np.array(xs), **sets)

    @pytest.mark.parametrize("role, message", [("S", "fixed-point map S must act on the domain space"),
                                               ("g", "contraction g must act on the domain space")])
    def test_maps_of_another_dimension_refused(self, role, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=WholeSpace(2), **{role: zero_map(3)})

    def test_g_must_be_contraction(self):
        from sfp.mappings import identity_map

        with pytest.raises(ValueError, match="contraction"):
            SfpProblem(A=LinearMap(np.eye(2)), C=WholeSpace(2), Q=WholeSpace(2),
                       g=identity_map(2))

    def test_default_g_is_null_map(self, s4):
        # build_example_s4 passes no g, so s4.g is the default
        assert (s4.g.class_tag, s4.g.modulus) == ("contraction", 0.0)
        assert np.array_equal(s4.g(np.ones(5)), np.zeros(5))
        assert np.array_equal(s4.g(np.ones((3, 5))), np.zeros((3, 5)))

    def test_averaged_map_is_the_relaxation_bit_for_bit(self, s4):
        # without S the identity stands in for it
        plain = SfpProblem(A=LinearMap(np.eye(3)), C=WholeSpace(3), Q=WholeSpace(3))
        rng = np.random.default_rng(7)
        for problem, s_fn in ((s4, s4.S.fn), (plain, lambda x: x)):
            for lam in (0.05, 0.5, 1.0):
                t_fn = problem.averaged_map(lam).fn
                for _ in range(10):
                    x = rng.standard_normal(problem.dim)
                    assert np.array_equal(t_fn(x), (1 - lam) * x + lam * s_fn(x))


class TestConfigValidation:
    def test_mode_names(self):
        with pytest.raises(ValueError):
            StepperConfig(mode="informal")

    def test_fixed_step_requires_value(self):
        with pytest.raises(ValueError):
            StepperConfig(step_rule="fixed")

    def test_values_the_step_rule_ignores_rejected(self):
        with pytest.raises(ValueError, match="^fixed_step is read only by step_rule 'fixed'$"):
            StepperConfig(fixed_step=0.01)
        with pytest.raises(ValueError, match="^tau_numerator 'x' is read only by step_rule 'adaptive'$"):
            StepperConfig(step_rule="fixed", fixed_step=0.01, tau_numerator="x")
        assert StepperConfig(step_rule="fixed", fixed_step=0.01, tau_numerator="u").fixed_step == 0.01
        assert StepperConfig(tau_numerator="x").fixed_step is None

    @pytest.mark.parametrize("values, message", [
        ({"step_rule": "bogus"}, "step_rule must be 'adaptive' or 'fixed'"),
        ({"tau_numerator": "v"}, "tau_numerator must be 'u' or 'x'"),
    ], ids=["step_rule", "tau_numerator"])
    def test_unknown_names_refused(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StepperConfig(**values)

    def test_integral_max_iter_runs_its_steps(self, s4):
        schedule, mode = schedule_from_config({"preset": "cq"}), PRESETS["cq"][1]
        config = StepperConfig(max_iter=3.0, mode=mode)
        assert config.max_iter == 3 and type(config.max_iter) is int
        assert run(s4, schedule, config, np.ones(5)).steps == 3

    def test_stopping_rule_positive(self):
        for values, message in [
            ({"grad_tol": 0.0}, "stopping tolerances must be > 0"),
            ({"grad_tol": math.nan}, "stopping tolerances must be > 0"),
            ({"residual_tol": math.nan}, "stopping tolerances must be > 0"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"max_iter": 0, "mode": "bogus"}, "max_iter must be >= 1"),  # the stop values are checked first
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                StepperConfig(**values)

    def test_schedule_pickles(self):
        schedule = schedule_from_config({"preset": "paper-s4"})
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
