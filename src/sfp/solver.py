"""Hybrid inertial self-adaptive projection iteration for split feasibility
problems coupled with a fixed-point constraint.

One general stepper covers the classic fixed-step CQ update, its self-adaptive
variant, the viscosity blend with a contraction, and the full hybrid scheme
with inertia and an averaged fixed-point map.  The per-step quantities proved
to be monotone in the convergence analysis are runtime monitors, never
enforced: the step does not form them, and :func:`monitors` derives them
from a run's history on request.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (DimensionMismatch, LinearMap, as_integer, as_real, as_vector, block_rows, norm, row_dots,
                     row_norms, within)
from .mappings import Mapping, average, fixed_point_residual, identity_map, zero_map
from .sets import ConvexSet, membership_residual

__all__ = [
    "ScheduleViolation",
    "SfpProblem",
    "Seq",
    "ParameterSchedule",
    "StepperConfig",
    "RunHistory",
    "run",
    "monitors",
    "validate_schedule",
    "ScheduleReport",
]

GRAD_GUARD = 1e-24  # a squared gradient norm at or below this counts as zero
DIVERGENCE_LIMIT = 1e12

MODES = ("proof", "statement", "explore")


class ScheduleViolation(ValueError):
    """A parameter sequence has no value at some index (raised by
    :meth:`Seq.block`).  :func:`run` ends with its message, or with that of a
    broken hard constraint, as reason ``schedule_violation``."""


# --- problem --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SfpProblem:
    """Find x in C with A x in Q, optionally constrained to Fix(S).

    ``g`` is the contraction used by the viscosity blend (defaults to the
    null map).  ``known_solution``, when given, must satisfy the constraints
    to 1e-8 * max(1, ||p||), p the point checked, and enables the per-step
    distance monitors.
    """

    A: LinearMap
    C: ConvexSet
    Q: ConvexSet
    S: Mapping | None = None
    g: Mapping | None = None
    known_solution: np.ndarray | None = None

    def __post_init__(self):
        if self.C.dim != self.A.cols:
            raise DimensionMismatch(f"C has dimension {self.C.dim}, operator expects {self.A.cols}")
        if self.Q.dim != self.A.rows:
            raise DimensionMismatch(f"Q has dimension {self.Q.dim}, operator maps into {self.A.rows}")
        if self.S is not None and self.S.dim != self.A.cols:
            raise DimensionMismatch("fixed-point map S must act on the domain space")
        g = self.g if self.g is not None else zero_map(self.A.cols)
        if g.dim != self.A.cols:
            raise DimensionMismatch("contraction g must act on the domain space")
        if g.class_tag != "contraction":
            raise ValueError("g must be tagged as a contraction")
        object.__setattr__(self, "g", g)
        if self.known_solution is not None:
            xs = as_vector(self.known_solution, self.A.cols)
            ax = self.A.apply(xs)
            if not within(membership_residual(self.C, xs), xs, 1e-8):
                raise ValueError("known_solution is not in C (residual > 1e-8 * max(1, ||x||))")
            if not within(membership_residual(self.Q, ax), ax, 1e-8):
                raise ValueError("A(known_solution) is not in Q (residual > 1e-8 * max(1, ||A x||))")
            if self.S is not None and not within(fixed_point_residual(self.S, xs), xs, 1e-8):
                raise ValueError("known_solution is not a fixed point of S (residual > 1e-8 * max(1, ||x||))")
            object.__setattr__(self, "known_solution", xs)

    @property
    def dim(self) -> int:
        return self.A.cols

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The Q-residual A x - P_Q(A x), for each row of a stack."""
        ax = self.A.apply(x)
        return ax - self.Q.project(ax)

    def f_value(self, x: np.ndarray):
        """Half the squared distance of A x from Q: 0.5 ||Ax - P_Q(Ax)||^2,
        for each row of a stack."""
        r = self.residual(x)
        return 0.5 * row_dots(r, r)

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        """Gradient A^T (Ax - P_Q(Ax)) of :meth:`f_value`."""
        return self.A.apply_adjoint(self.residual(x))

    def averaged_map(self, lam: float) -> Mapping:
        """The relaxation (1 - lam) I + lam S (identity when S is absent)."""
        return average(self.S if self.S is not None else identity_map(self.dim), lam)

    def combined_residual(self, x: np.ndarray, lam: float) -> float:
        """max of the C-, Q- and fixed-point residuals at x."""
        res_fix = fixed_point_residual(self.averaged_map(lam), x) if self.S is not None else 0.0
        return max(membership_residual(self.C, x), norm(self.residual(x)), res_fix)


# --- schedules ------------------------------------------------------------


@dataclass(frozen=True)
class Seq:
    """A scalar sequence indexed from n = 1: a closed-form power law or a list.

    Rules: ``power-law`` (const + coeff / n**power; a :meth:`constant` has power
    0) and ``explicit`` (finite list of values).  ``block(lo, hi)`` gives the
    values at n = lo, ..., hi - 1.  Each number is kept as a float; a bool or
    a value that does not read as a number is refused, and so is a field that
    the rule does not read, set to other than its default.
    """

    rule: str
    const: float = 0.0
    coeff: float = 0.0
    power: float = 1.0
    values: tuple = ()

    def __post_init__(self):
        if self.rule not in ("power-law", "explicit"):
            raise ValueError(f"unknown sequence rule {self.rule!r}")
        for name in ("const", "coeff", "power"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        object.__setattr__(self, "values", tuple(as_real(v, "each value") for v in self.values))
        if self.rule == "explicit" and len(self.values) == 0:
            raise ValueError("explicit sequence needs at least one value")
        for name in ("const", "coeff", "power") if self.rule == "explicit" else ("values",):
            if getattr(self, name) != getattr(Seq, name):  # nan differs too
                raise ValueError(f"{name} is read only by rule {'explicit' if name == 'values' else 'power-law'!r}")

    @classmethod
    def constant(cls, value: float) -> "Seq":
        """``value`` at every n: const + -0.0 is const bit for bit, -0.0 included."""
        return cls(rule="power-law", const=as_real(value, "value"), coeff=-0.0, power=0.0)

    @classmethod
    def explicit(cls, values) -> "Seq":
        return cls(rule="explicit", values=values)

    def block(self, lo: int, hi: int) -> list:
        """The values at n = lo, ..., hi - 1, up to the first n that has none: past
        the end of a list, or where a power law's n**power overflows or vanishes.
        Raises :class:`ScheduleViolation` when that n is ``lo``."""
        if lo < 1:
            raise ValueError("sequences are indexed from n = 1")
        if self.rule == "explicit":
            if lo > len(self.values):
                raise ScheduleViolation(f"explicit sequence exhausted at n = {lo} (length {len(self.values)})")
            return list(self.values[lo - 1:hi - 1])
        const, coeff, power = self.const, self.coeff, self.power
        if power == 0.0:  # n**0.0 is 1.0 at every n, so the loop's value is const + coeff
            return [const + coeff] * (hi - lo)
        values = []
        try:
            for n in range(lo, hi):
                values.append(const + coeff / float(n) ** power)
        except ArithmeticError:
            if not values:
                raise ScheduleViolation(f"power-law sequence has no value at n = {lo} "
                                        f"({lo}**{power!r} overflows or is 0)") from None
        return values


@dataclass(frozen=True)
class ParameterSchedule:
    """The per-iteration weights of the hybrid scheme.

    ``gamma=None`` means the complement 1 - alpha - beta, which satisfies the
    sum-to-one coupling by construction.  ``theta`` is the inertial cap and
    ``lam`` the averaging weight of the fixed-point map.
    """

    alpha: Seq
    beta: Seq
    gamma: Seq | None
    delta: Seq
    rho: Seq
    epsilon: Seq
    theta: float = 0.0
    lam: float = 0.5

    def __post_init__(self):
        # each message starts with its config key, as bench.schedule_from_config reports it
        object.__setattr__(self, "theta", as_real(self.theta, "theta: theta"))
        object.__setattr__(self, "lam", as_real(self.lam, "lambda: lambda"))
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta: must be finite and >= 0, got {self.theta}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda: must lie in (0, 1], got {self.lam}")

    def block(self, lo: int, hi: int) -> list[tuple]:
        """The rows (alpha, beta, gamma, delta, rho, epsilon) at n = lo, ...,
        hi - 1, up to the first n at which a sequence has no value (see
        :meth:`Seq.block`)."""
        alpha, beta = self.alpha.block(lo, hi), self.beta.block(lo, hi)
        gamma = [1.0 - a - b for a, b in zip(alpha, beta)] if self.gamma is None else self.gamma.block(lo, hi)
        return list(zip(alpha, beta, gamma, self.delta.block(lo, hi), self.rho.block(lo, hi),
                        self.epsilon.block(lo, hi)))

    def at(self, n: int) -> tuple:
        return self.block(n, n + 1)[0]


def _violations(rows, lo: int, need_rho: bool):
    """Yield (n, sequence, condition, message) for each hard constraint that the
    schedule rows of n = lo, lo + 1, ... break, in order of n and, at one n, in
    the order below.  Every test fails on nan, and on +-inf where its bound is
    finite."""
    for n, (alpha, beta, gamma, delta, rho, epsilon) in enumerate(rows, lo):
        for name, val in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
            if not 0.0 <= val <= 1.0:
                yield n, name, "(range)", f"{name}({n}) = {val} outside [0, 1]"
        total = alpha + beta + gamma
        if not abs(total - 1.0) <= 1e-12:
            yield n, "sum", "(c5)", f"alpha({n}) + beta({n}) + gamma({n}) = {total!r} != 1"
        if not 0.0 <= epsilon < math.inf:
            yield n, "epsilon", "(range)", f"epsilon({n}) = {epsilon} must be >= 0"
        if need_rho and not 0.0 < rho < 4.0:
            yield n, "rho", "(range)", f"rho({n}) = {rho} outside (0, 4)"


def _admissible(rows: list, lo: int, need_rho: bool) -> tuple[list, str | None]:
    """The leading ``rows`` (n = lo, lo + 1, ...) that keep the hard
    constraints, and the violation message of the row after them (None when
    all do)."""
    for n, _, condition, message in _violations(rows, lo, need_rho):
        return rows[:n - lo], f"{condition} {message}"
    return rows, None


# --- stepper configuration -------------------------------------------------


@dataclass(frozen=True)
class StepperConfig:
    """How a step is composed and when the loop stops.

    ``mode`` selects where the projection and the (1 - delta) factor sit in
    the y-update:

    * ``proof``:     y = P_C((1-d)(u - tau grad) + d T u)
    * ``statement``: y = P_C((1-d) u - tau grad) + d T u
    * ``explore``:   y = P_C((1-d) u + d T u - tau grad)

    ``step_rule`` is ``adaptive`` (tau = rho f / ||grad f||^2, and 0 when
    ||grad f||^2 <= GRAD_GUARD) or ``fixed`` (tau = fixed_step, which must lie
    in (0, 2/||A||^2)).  ``tau_numerator`` evaluates the adaptive numerator at
    the extrapolated point (``u``, the default) or at the current iterate
    (``x``).  ``fixed_step`` goes only with the fixed rule, and ``x`` only
    with the adaptive one.  ``grad_tol``, ``residual_tol`` and ``max_iter``
    are the stop values of ``run``.  These field defaults are also the
    defaults of a config's ``stepper`` section, which is built as this class.
    The tolerances and ``fixed_step`` are kept as floats and ``max_iter`` as
    an int; a bool, a fraction or a value that does not read as one is refused.
    """

    mode: str = "proof"
    step_rule: str = "adaptive"
    fixed_step: float | None = None
    tau_numerator: str = "u"
    grad_tol: float = 1e-12
    residual_tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        # the stop values are checked before fixed_step is read
        for name in ("grad_tol", "residual_tol"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        object.__setattr__(self, "max_iter", as_integer(self.max_iter, "max_iter"))
        if not (self.grad_tol > 0 and self.residual_tol > 0):  # nan fails too
            raise ValueError("stopping tolerances must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.fixed_step is not None:
            object.__setattr__(self, "fixed_step", as_real(self.fixed_step, "fixed_step"))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.step_rule not in ("adaptive", "fixed"):
            raise ValueError("step_rule must be 'adaptive' or 'fixed'")
        if self.step_rule == "fixed" and (self.fixed_step is None or not self.fixed_step > 0):
            raise ValueError("fixed step rule needs fixed_step > 0")
        if self.tau_numerator not in ("u", "x"):
            raise ValueError("tau_numerator must be 'u' or 'x'")
        if self.step_rule == "adaptive" and self.fixed_step is not None:
            raise ValueError("fixed_step is read only by step_rule 'fixed'")
        if self.step_rule == "fixed" and self.tau_numerator != "u":
            raise ValueError("tau_numerator 'x' is read only by step_rule 'adaptive'")


# --- stepping ---------------------------------------------------------------


# the records of a block or a run: what the iteration, the stop rule and the
# CSV read of step n.  f_u and grad_norm_u are taken at the extrapolated point
# u, so the Q-residual there is sqrt(2 f_u); the distance of x_n from C is the
# CSV's res_C column.  The monitors of the analysis are not kept: see monitors.
RECORD_DTYPE = np.dtype([("n", np.int64)] + [(name, np.float64) for name in ("theta", "tau", "f_u", "grad_norm_u")])

# the monitors of a run, one row per step (see monitors)
MONITOR_DTYPE = np.dtype([(name, np.float64) for name in ("fejer_gap_y", "fejer_gap_v", "quasi_ne_slack", "psi")])


@dataclass
class RunHistory:
    """Iterate trajectory plus per-step records.

    ``iterates`` is one ``(steps + 1, dim)`` float64 array whose row 0 is the
    start point.  ``records`` is a ``np.recarray`` of ``RECORD_DTYPE``, one
    column per field (``records.theta`` is a column and ``records[k].theta``
    the scalar of step k + 1), with ``len(records) == steps``.  A step costs
    8 * dim bytes of iterate and 40 bytes of record.  :func:`monitors` derives
    the Fejer gaps, the quasi-nonexpansive slack and ``psi`` of each step
    from these arrays.
    """

    iterates: np.ndarray
    records: np.recarray
    termination_reason: str
    error: str | None = None  # the message of a divergence or schedule violation

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _compose_y(mode: str, project, u, tau_g, delta, t_u):
    """The y-update of ``mode``, where ``tau_g`` is tau * grad f(u): for one
    step with a scalar ``delta``, or for a stack of steps with ``delta`` a
    column of their values."""
    delta_t = delta * t_u
    if mode == "proof":
        return project((1.0 - delta) * (u - tau_g) + delta_t)
    if mode == "statement":
        return project((1.0 - delta) * u - tau_g) + delta_t
    return project((1.0 - delta) * u + delta_t - tau_g)


def _stepper(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig):
    """The update (p, x_n, x_prev) -> (x_next, kept) of one step of
    :func:`run` with schedule row p.  ``kept`` holds the step's record
    fields after ``n``: theta_n, tau, f(u) and ||grad f(u)||.

    What every step would otherwise look up again is bound here once: the
    operator and projection methods, the ``fn`` of the averaged map and of
    ``g`` (the step's vectors are float64 of the right size, so the
    checks of ``Mapping.__call__`` are not needed) and the mode and
    step-rule branches.  Each product is formed once per step.
    """
    apply, apply_adjoint = problem.A.apply, problem.A.apply_adjoint
    project_c, project_q = problem.C.project, problem.Q.project
    t_fn = problem.averaged_map(schedule.lam).fn
    g_fn = problem.g.fn
    theta = schedule.theta
    mode = config.mode
    adaptive = config.step_rule == "adaptive"
    fixed_step = config.fixed_step
    f_value = problem.f_value if config.tau_numerator == "x" else None

    def advance(p: tuple, x_n: np.ndarray, x_prev: np.ndarray) -> tuple[np.ndarray, tuple]:
        alpha, beta, gamma, delta, rho, epsilon = p
        dx = x_n - x_prev
        dx_norm = norm(dx)  # theta_n * ||x_n - x_prev|| never exceeds epsilon
        theta_n = theta if dx_norm == 0.0 else min(theta, epsilon / dx_norm)
        u = x_n + theta_n * dx

        ax = apply(u)
        r = ax - project_q(ax)
        gvec = apply_adjoint(r)
        f_u, gg = 0.5 * float(r.dot(r)), float(gvec.dot(gvec))

        if not adaptive:
            tau = fixed_step
        else:  # rho f / ||grad f||^2, with f at u or at x_n
            tau = 0.0 if gg <= GRAD_GUARD else rho * (f_u if f_value is None else f_value(x_n)) / gg

        y = _compose_y(mode, project_c, u, tau * gvec, delta, t_fn(u))
        x_next = alpha * g_fn(x_n) + beta * u + gamma * y
        return x_next, (theta_n, tau, f_u, math.sqrt(gg))

    return advance


def _records(lo: int, kept: list) -> np.ndarray:
    """The records of steps n = lo, lo + 1, ... from what :func:`_stepper`'s
    update kept of each, as a structured array of ``RECORD_DTYPE`` (empty
    when ``kept`` is)."""
    out = np.empty(len(kept), RECORD_DTYPE)
    out["n"] = np.arange(lo, lo + len(kept))
    out["theta"], out["tau"], out["f_u"], out["grad_norm_u"] = np.array(kept).reshape(-1, 4).T
    return out


def monitors(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig,
             x0, history: RunHistory) -> np.recarray:
    """The per-step inequalities of the convergence analysis for each step of
    ``history``, a run of ``problem`` under ``schedule`` and ``config``, as a
    ``np.recarray`` of ``MONITOR_DTYPE``: row k is that of the step of
    ``records[k]``.  ``x0`` is the iterate before ``iterates[0]``, i.e. the
    ``x0`` that :func:`run` was given.  A block that ``run`` hands to
    ``on_block``, with the iterate before it as ``iterates[0]``, is a history
    too: its records' ``n`` say which schedule rows its steps used.

    ``fejer_gap_y``, ``fejer_gap_v`` and ``quasi_ne_slack`` are ||w - x*|| -
    ||u - x*|| for w = y, for the blend v = (beta u + gamma y) / (1 - alpha)
    and for T u, where x* is the problem's ``known_solution``; they are NaN
    without one, and ``fejer_gap_v`` is NaN where 1 - alpha <= 1e-300.
    ``psi`` is the nonnegative per-step decrease certificate of the
    analysis: the adaptive-gradient gain, the averaged-map drift T u - u +
    tau grad f(u) and the projection residual of the proof-mode blend
    (1 - delta)(u - tau grad f(u)) + delta T u, each weighted by the step's
    schedule values; its divisions are guarded like the step itself.

    The step's vectors are formed again from the iterates and the recorded
    theta_n and tau, one block of ``block_rows(dim)`` steps at a time: u, A u,
    P_Q, A^T r, T u, the blend and y are each one stacked call over the
    block's rows, with the bits of one row at a time, so every value has the
    bits that the step's own vectors give.  T is called as a ``Mapping``, so
    an S whose ``fn`` does not map a stack row by row raises a ``ValueError``
    that says so.
    """
    x, records = history.iterates, history.records
    x0 = as_vector(x0, problem.dim)
    xs = problem.known_solution
    t_map = problem.averaged_map(schedule.lam)
    out = np.empty(len(records), MONITOR_DTYPE)
    size = block_rows(problem.dim)
    for i in range(0, len(records), size):
        block = records[i:i + size]
        k, lo = len(block), int(block["n"][0])
        x_n = x[i:i + k]
        x_prev = x[i - 1:i + k - 1] if i else np.concatenate((x0[None], x[:k - 1]))
        alpha, beta, gamma, delta, rho, _ = np.array(schedule.block(lo, lo + k)).T
        u = x_n + block["theta"][:, None] * (x_n - x_prev)
        gvec = problem.grad_f(u)
        tau_g = block["tau"][:, None] * gvec
        t_u = t_map(u)
        y = _compose_y(config.mode, problem.C.project, u, tau_g, delta[:, None], t_u)
        w_blend = (1.0 - delta[:, None]) * (u - tau_g) + delta[:, None] * t_u
        blend_residual = w_blend - problem.C.project(w_blend)
        drift = t_u - u + tau_g
        row = out[i:i + k]
        if xs is None:
            row["fejer_gap_y"] = row["fejer_gap_v"] = row["quasi_ne_slack"] = math.nan
        else:
            # the blend v = (beta u + gamma y) / (1 - alpha), nan where 1 - alpha <= 1e-300
            keep = 1.0 - alpha[:, None]
            v = (beta[:, None] * u + gamma[:, None] * y) / np.where(keep > 1e-300, keep, math.nan)
            du = row_norms(u - xs)
            for name, w in (("fejer_gap_y", y), ("fejer_gap_v", v), ("quasi_ne_slack", t_u)):
                row[name] = row_norms(w - xs) - du

        # psi in the operation order of the one-step formula, so with its bits;
        # Python floats overflow to inf in silence, numpy warns
        f, g2 = block["f_u"], row_dots(gvec, gvec)
        with np.errstate(all="ignore"):
            coef = np.where(1.0 - alpha > 1e-300, gamma / (1.0 - alpha), 0.0)
            term1 = np.where(g2 > GRAD_GUARD, (1.0 - delta) * coef * rho * (4.0 - rho) * f * f / g2, 0.0)
            row["psi"] = (term1 + delta * (1.0 - delta) * coef * row_dots(drift, drift)
                          + coef * row_dots(blend_residual, blend_residual))
    return out.view(np.recarray)


def _warn_lambda_vs_modulus(problem: SfpProblem, lam: float) -> None:
    s = problem.S
    if (s is not None and s.class_tag == "demicontractive"
            and problem.averaged_map(lam).class_tag != "quasi_nonexpansive"):
        warnings.warn(
            f"averaging weight {lam} is outside (0, {1.0 - s.modulus:.6g}) for the declared "
            f"demicontractive modulus {s.modulus}; quasi-nonexpansiveness of the averaged "
            "map is not guaranteed",
            UserWarning,
            stacklevel=3,
        )


def run(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig,
        x0, x1=None, *, on_block=None) -> RunHistory:
    """Iterate until the gradient and feasibility tolerances are met.

    The loop stops with reason ``residual_met`` when ||grad f(u_n)|| <=
    grad_tol and the combined residual at x_n is <= residual_tol, with
    ``grad_zero`` when only the gradient test fires (the scheme's own stop
    rule), or with ``max_iter``.  The stop test runs before the step, so a
    start at the solution performs zero steps.  An iterate that is not finite
    or exceeds 1e12 in norm ends the run with ``divergence``, and a schedule
    that breaks a hard constraint with ``schedule_violation``; both keep the
    steps taken before and put their message on ``error``.

    ``x1`` defaults to ``x0`` (two seeds are needed by the inertial term).

    ``on_block``, when given, is called once per block of steps, as the block
    ends, with the block's iterates (a ``(k, dim)`` float64 array, k >= 1; the
    start point is in no block) and its k records (``RECORD_DTYPE``), record i
    that of the step that made iterate i.  In order, the blocks make up the
    history that ``run`` returns, and a hook that raises ends the run with its
    exception.
    ``bench.run_experiment`` streams its CSV rows this way.

    The step forms only the update and the record fields; :func:`monitors`
    gives the Fejer gaps, the quasi-nonexpansive slack and ``psi`` of the
    returned history's steps.
    """
    x_prev = as_vector(x0, problem.dim)
    x_cur = as_vector(x1, problem.dim) if x1 is not None else x_prev

    if config.step_rule == "fixed":
        op_norm = problem.A.operator_norm()
        limit = 2.0 / op_norm**2 if op_norm > 0 else math.inf
        if not (0.0 < config.fixed_step < limit):
            raise ValueError(
                f"fixed step {config.fixed_step} outside (0, 2/||A||^2) = (0, {limit:.6g})"
            )
    _warn_lambda_vs_modulus(problem, schedule.lam)
    iterates, records = [x_cur[None]], []
    for block, block_records, reason, error in _blocks(problem, schedule, config, x_prev, x_cur):
        if len(block_records):  # the last block may end before its first step
            if on_block is not None:
                on_block(block, block_records)
            iterates.append(block)
            records.append(block_records)
    iterates = np.concatenate(iterates)  # its blocks go before the records are joined
    records = np.concatenate(records or [block_records])  # no block kept: the run's one block, empty
    return RunHistory(iterates, records.view(np.recarray), reason, error)


def _blocks(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig,
            x_prev: np.ndarray, x_cur: np.ndarray):
    """The step loop of :func:`run` from the seeds (x_prev, x_cur), in blocks of
    up to ``block_rows(dim)`` steps (204 at dim 5, 16 from dim 65 to 8,192).

    Yields (iterates, records, reason, error) per block: the ``(k, dim)``
    float64 array of its k iterates and their record array (see
    :func:`_records`), then, with the last block, the termination reason and
    error message (both None before); only the last block may have k = 0.  A
    block's schedule rows are formed and checked once (a first n without one
    breaks a constraint); the stop tests run on each step before it is kept.
    """
    advance = _stepper(problem, schedule, config)
    need_rho = config.step_rule == "adaptive"
    grad_tol, max_iter = config.grad_tol, config.max_iter
    size = block_rows(problem.dim)
    n, reason, error = 1, None, None
    while reason is None:
        lo = n
        try:
            params, violation = _admissible(schedule.block(n, min(n + size, max_iter + 1)), lo, need_rho)
        except ScheduleViolation as exc:  # the first n has no value
            params, violation = [], str(exc)
        iterates, kept = [], []
        for p in params:
            x_next, step_kept = advance(p, x_cur, x_prev)
            if step_kept[-1] <= grad_tol:
                res = problem.combined_residual(x_cur, schedule.lam)
                reason = "residual_met" if res <= config.residual_tol else "grad_zero"
                break
            if not norm(x_next) <= DIVERGENCE_LIMIT:  # also true for nan and inf entries
                reason, error = "divergence", f"iterates diverged at step {n}"
                break
            iterates.append(x_next)
            kept.append(step_kept)
            x_prev, x_cur = x_cur, x_next
            n += 1
        else:
            if violation is not None:
                reason, error = "schedule_violation", violation
            elif n > max_iter:
                reason = "max_iter"
        yield np.array(iterates).reshape(-1, problem.dim), _records(lo, kept), reason, error


# --- schedule validation -----------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    condition: str
    level: str  # "pass" | "warn" | "fail"
    message: str


@dataclass
class ScheduleReport:
    horizon: int
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.level != "fail" for e in self.entries)

    def text(self) -> str:
        lines = [f"schedule check over n = 1..{self.horizon}"]
        for e in self.entries:
            lines.append(f"  [{e.level:4s}] {e.condition}: {e.message}")
        return "\n".join(lines)


def _leading(seq: Seq) -> tuple[float, float]:
    """The leading term (c, p) of a power-law ``seq``, a constant included: seq(n)
    = c / n**p + o(n**-p) as n -> oo, and (0, 0) where seq is 0 from some n on."""
    const, coeff, power = seq.const, seq.coeff, seq.power
    if power != 0.0 and coeff != 0.0 and (power < 0.0 or const == 0.0):
        return coeff, power
    return (const + coeff if power == 0.0 else const) + 0.0, 0.0  # + 0.0 reads a limit of -0.0 as 0


def _undecided(name: str, seq: Seq) -> str | None:
    """Why the limit of ``seq`` is not read from its fields (None when it is)."""
    if seq.rule == "explicit":
        return f"undecided: {name} is an explicit list, which ends the run where it runs out, so it has no limit"
    finite = all(map(math.isfinite, (seq.const, seq.coeff, seq.power)))
    return None if finite else f"undecided: a parameter of {name} is not finite"


def validate_schedule(schedule: ParameterSchedule, horizon: int) -> ScheduleReport:
    """Check the admissibility conditions of ``schedule``.

    The sum coupling (c5) and the closed ranges are checked at n = 1, ...,
    ``horizon`` and fail; the open ranges warn.  Each violated constraint is
    reported at its first n, in order of that n, so the first fail is the
    message :func:`run` stops with.  A sequence that runs out (an explicit
    list, or a power law whose n**power overflows or is 0) fails with that
    message, and the checks cover the n before it.  (c1) lim beta < 1, (c2)
    epsilon/alpha -> 0, (c3) alpha -> 0 with a divergent sum and (c4) 0 < lim
    delta < 1 are sufficient for convergence, not necessary, and are decided
    exactly from each sequence's leading term c / n**p, whatever the horizon:
    one that fails warns, as one that reads an explicit list (it has no limit)
    or a parameter that is not finite does (undecided).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    params, exhausted = [], None
    try:
        while len(params) < horizon:
            params += schedule.block(len(params) + 1, horizon + 1)
    except ScheduleViolation as exc:  # n = 1 always exists, so params is never empty
        exhausted, horizon = str(exc), len(params)
    # the first violation of each constraint, in order of n and, at one n, in the
    # order of _violations, so that the first entry is the message run stops with;
    # rho's range only warns, as the step rule is not known here
    first: dict[str, str] = {}
    for _, sequence, _, message in _violations(params, 1, need_rho=True):
        first.setdefault(sequence, message)
    entries = [CheckEntry("(c5)" if sequence == "sum" else "range", "warn" if sequence == "rho" else "fail", message)
               for sequence, message in first.items()]
    for name, column in zip(("alpha", "beta", "gamma", "delta"), zip(*params)):
        at = next((n for n, value in enumerate(column, 1) if value in (0.0, 1.0)), None)
        if name not in first and at is not None:
            entries.append(CheckEntry("range", "warn", f"{name} touches the boundary of (0, 1) (first at n = {at})"))
    if "sum" not in first:
        entries.append(CheckEntry("(c5)", "pass", "alpha + beta + gamma = 1 at every evaluated n"))
    if exhausted is not None:
        entries.append(CheckEntry("length", "fail", exhausted))

    # (c1)-(c4) from the leading terms c / n**p, written c/n^p
    (c_a, p_a), (c_e, p_e) = _leading(schedule.alpha), _leading(schedule.epsilon)
    alpha, epsilon = (f"{c:.6g}" + (f"/n^{p:g}" if p else "") for c, p in ((c_a, p_a), (c_e, p_e)))
    lim_beta, lim_delta = (c if p == 0.0 else 0.0 if p > 0.0 else math.copysign(math.inf, c)
                           for c, p in (_leading(schedule.beta), _leading(schedule.delta)))
    c1, c4 = lim_beta < 1.0, 0.0 < lim_delta < 1.0
    c2, c3 = c_a != 0.0 and (c_e == 0.0 or p_e > p_a), c_a > 0.0 and 0.0 < p_a <= 1.0
    alpha_trend = ("does not tend to 0" if p_a <= 0.0 < abs(c_a) else "tends to 0 and its sum "
                   + ("diverges" if c3 else "converges" if c_a == 0.0 or p_a > 1.0 else "tends to -inf"))
    decisions = (
        ("(c1)", ["beta"], c1, f"lim beta = {lim_beta:.6g} {'<' if c1 else 'is not <'} 1"),
        ("(c2)", ["alpha", "epsilon"], c2,
         f"epsilon/alpha {'tends to 0' if c2 else 'is undefined' if c_a == 0.0 else 'does not tend to 0'}: "
         f"epsilon ~ {epsilon}, alpha ~ {alpha}"),
        ("(c3)", ["alpha"], c3, f"alpha ~ {alpha} {alpha_trend}"),
        ("(c4)", ["delta"], c4, f"lim delta = {lim_delta:.6g} {'lies' if c4 else 'does not lie'} in (0, 1)"),
    )
    for condition, names, holds, message in decisions:
        undecided = next(filter(None, (_undecided(name, getattr(schedule, name)) for name in names)), None)
        entries.append(CheckEntry(condition, "pass" if holds and undecided is None else "warn", undecided or message))
    return ScheduleReport(horizon=horizon, entries=entries)
