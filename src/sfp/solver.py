"""Hybrid inertial self-adaptive projection iteration for split feasibility
problems coupled with a fixed-point constraint.

One general stepper covers the classic fixed-step CQ update, its self-adaptive
variant, the viscosity blend with a contraction, and the full hybrid scheme
with inertia and an averaged fixed-point map.  The per-step quantities proved
to be monotone in the convergence analysis are recorded as runtime monitors,
never enforced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatch, LinearMap, as_vector, norm
from .mappings import AveragedMapping, Mapping, average, fixed_point_residual, identity_map, zero_map
from .sets import ConvexSet, membership_residual

__all__ = [
    "ScheduleViolation",
    "DivergenceError",
    "SfpProblem",
    "Seq",
    "ParameterSchedule",
    "StepParams",
    "StoppingRule",
    "StepperConfig",
    "StepRecord",
    "RunHistory",
    "inertial_theta",
    "adaptive_tau",
    "step",
    "run",
    "psi_diagnostic",
    "validate_schedule",
    "ScheduleReport",
]

GRAD_GUARD = 1e-24  # a squared gradient norm at or below this counts as zero
DIVERGENCE_LIMIT = 1e12

MODES = ("proof", "statement", "explore")


class ScheduleViolation(ValueError):
    """A parameter sequence breaks a hard constraint at some index.  Raised
    by :func:`run`, it keeps the steps taken before it on ``history``."""

    history: "RunHistory | None" = None


class DivergenceError(RuntimeError):
    """Iterates blew up; the partial history is kept on ``history``."""

    def __init__(self, message: str, history: "RunHistory"):
        super().__init__(message)
        self.history = history


# --- problem --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SfpProblem:
    """Find x in C with A x in Q, optionally constrained to Fix(S).

    ``g`` is the contraction used by the viscosity blend (defaults to the
    null map).  ``known_solution``, when given, must satisfy the constraints
    to 1e-8 and enables the per-step distance monitors.
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
            if membership_residual(self.C, xs) > 1e-8:
                raise ValueError("known_solution is not in C (residual > 1e-8)")
            if membership_residual(self.Q, self.A.apply(xs)) > 1e-8:
                raise ValueError("A(known_solution) is not in Q (residual > 1e-8)")
            if self.S is not None and fixed_point_residual(self.S, xs) > 1e-8:
                raise ValueError("known_solution is not a fixed point of S (residual > 1e-8)")
            object.__setattr__(self, "known_solution", xs)

    @property
    def dim(self) -> int:
        return self.A.cols

    def residual(self, x: np.ndarray) -> np.ndarray:
        """The Q-residual A x - P_Q(A x)."""
        ax = self.A.apply(np.asarray(x, dtype=float))
        return ax - self.Q.project(ax)

    def f_value(self, x: np.ndarray) -> float:
        """Half the squared distance of A x from Q: 0.5 ||Ax - P_Q(Ax)||^2."""
        r = self.residual(x)
        return 0.5 * float(np.dot(r, r))

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        """Gradient A^T (Ax - P_Q(Ax)) of :meth:`f_value`."""
        return self.A.apply_adjoint(self.residual(x))

    def averaged_map(self, lam: float) -> AveragedMapping:
        """The relaxation (1 - lam) I + lam S (identity when S is absent)."""
        return average(self.S if self.S is not None else identity_map(self.dim), lam)

    def combined_residual(self, x: np.ndarray, lam: float) -> float:
        """max of the C-, Q- and fixed-point residuals at x."""
        x = np.asarray(x, dtype=float)
        res_fix = fixed_point_residual(self.averaged_map(lam), x) if self.S is not None else 0.0
        return max(membership_residual(self.C, x), norm(self.residual(x)), res_fix)


# --- schedules ------------------------------------------------------------


# the keys a sequence's config mapping takes besides ``rule``: those of
# ``power-law`` default to its field defaults, the others are required
_RULE_KEYS = {"constant": ("value",), "power-law": ("const", "coeff", "power"), "explicit": ("values",)}


@dataclass(frozen=True)
class Seq:
    """A scalar sequence indexed from n = 1: a named closed-form rule or a list.

    Rules: ``constant`` (value), ``power-law`` (const + coeff / n**power) and
    ``explicit`` (finite list of values).  ``at(n)`` gives the value at
    n >= 1; the rule is resolved once, when the sequence is made.
    """

    rule: str
    value: float = 0.0
    const: float = 0.0
    coeff: float = 0.0
    power: float = 1.0
    values: tuple = ()

    def __post_init__(self):
        if self.rule not in _RULE_KEYS:
            raise ValueError(f"unknown sequence rule {self.rule!r}")
        if self.rule == "explicit" and len(self.values) == 0:
            raise ValueError("explicit sequence needs at least one value")
        object.__setattr__(self, "at", _value_at(self))

    def __reduce__(self):
        # rebuilt from its fields, as the resolved ``at`` cannot be pickled
        return type(self), (self.rule, self.value, self.const, self.coeff, self.power, self.values)

    @classmethod
    def constant(cls, value: float) -> "Seq":
        return cls(rule="constant", value=float(value))

    @classmethod
    def power_law(cls, const: float, coeff: float, power: float = 1.0) -> "Seq":
        return cls(rule="power-law", const=float(const), coeff=float(coeff), power=float(power))

    @classmethod
    def explicit(cls, values) -> "Seq":
        return cls(rule="explicit", values=tuple(float(v) for v in values))

    @classmethod
    def from_config(cls, obj) -> "Seq":
        """A number is a constant, a list is explicit, and a mapping names its
        ``rule`` and takes only that rule's keys."""
        if isinstance(obj, (int, float)):
            return cls.constant(float(obj))
        if isinstance(obj, (list, tuple)):
            return cls.explicit(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"cannot build a sequence from {obj!r}")
        rule = obj.get("rule")
        if rule not in _RULE_KEYS:
            raise ValueError(f"unknown sequence rule {rule!r}")
        unknown = set(obj) - {"rule", *_RULE_KEYS[rule]}
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} for rule {rule!r}")
        if rule == "power-law":
            return cls.power_law(obj.get("const", 0.0), obj.get("coeff", 0.0), obj.get("power", 1.0))
        (key,) = _RULE_KEYS[rule]
        if key not in obj:
            raise ValueError(f"rule {rule!r} needs {key!r}")
        return cls.constant(obj[key]) if rule == "constant" else cls.explicit(obj[key])


def _value_at(seq: Seq):
    """The function n -> value of ``seq`` at n >= 1, with its rule resolved."""
    if seq.rule == "constant":
        value = seq.value

        def at(n: int) -> float:
            if n < 1:
                raise ValueError("sequences are indexed from n = 1")
            return value
    elif seq.rule == "power-law":
        const, coeff, power = seq.const, seq.coeff, seq.power

        def at(n: int) -> float:
            if n < 1:
                raise ValueError("sequences are indexed from n = 1")
            return const + coeff / float(n) ** power
    else:
        values = seq.values

        def at(n: int) -> float:
            if n < 1:
                raise ValueError("sequences are indexed from n = 1")
            if n > len(values):
                raise ScheduleViolation(f"explicit sequence exhausted at n = {n} (length {len(values)})")
            return values[n - 1]
    return at


class StepParams(NamedTuple):
    alpha: float
    beta: float
    gamma: float
    delta: float
    rho: float
    epsilon: float


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
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta: must be finite and >= 0, got {self.theta}")
        if not (0.0 < self.lam <= 1.0):
            raise ValueError(f"lambda: must lie in (0, 1], got {self.lam}")

    def at(self, n: int) -> StepParams:
        a = self.alpha.at(n)
        b = self.beta.at(n)
        g = 1.0 - a - b if self.gamma is None else self.gamma.at(n)
        return StepParams(a, b, g, self.delta.at(n), self.rho.at(n), self.epsilon.at(n))


def _violations(p: StepParams, n: int, need_rho: bool):
    """Yield (sequence, condition, message) for each hard constraint that the
    step-n values break, in the order ``step`` checks them.  Every test fails
    on nan, and on +-inf where its bound is finite."""
    for name, val in zip(("alpha", "beta", "gamma", "delta"), p):
        if not 0.0 <= val <= 1.0:
            yield name, "(range)", f"{name}({n}) = {val} outside [0, 1]"
    total = p.alpha + p.beta + p.gamma
    if not abs(total - 1.0) <= 1e-12:
        yield "sum", "(c5)", f"alpha({n}) + beta({n}) + gamma({n}) = {total!r} != 1"
    if not 0.0 <= p.epsilon < math.inf:
        yield "epsilon", "(range)", f"epsilon({n}) = {p.epsilon} must be >= 0"
    if need_rho and not 0.0 < p.rho < 4.0:
        yield "rho", "(range)", f"rho({n}) = {p.rho} outside (0, 4)"


# --- stepper configuration -------------------------------------------------


@dataclass(frozen=True)
class StoppingRule:
    grad_tol: float = 1e-12
    residual_tol: float = 1e-9
    max_iter: int = 100_000

    def __post_init__(self):
        if self.grad_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("stopping tolerances must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    (``x``).  These field defaults are also the defaults of a config's
    ``stepper`` section.
    """

    mode: str = "proof"
    step_rule: str = "adaptive"
    fixed_step: float | None = None
    tau_numerator: str = "u"
    stopping: StoppingRule = StoppingRule()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.step_rule not in ("adaptive", "fixed"):
            raise ValueError("step_rule must be 'adaptive' or 'fixed'")
        if self.step_rule == "fixed" and (self.fixed_step is None or self.fixed_step <= 0):
            raise ValueError("fixed step rule needs fixed_step > 0")
        if self.tau_numerator not in ("u", "x"):
            raise ValueError("tau_numerator must be 'u' or 'x'")


# --- elementary ops ---------------------------------------------------------


def inertial_theta(theta: float, epsilon_n: float, x_n: np.ndarray, x_prev: np.ndarray) -> float:
    """Per-step inertial weight min(theta, epsilon_n / ||x_n - x_prev||).

    Returns theta itself when the two iterates coincide; either way the
    product theta_n * ||x_n - x_prev|| never exceeds epsilon_n.
    """
    if not 0.0 <= theta < math.inf:
        raise ValueError("theta must be finite and >= 0")
    if not epsilon_n >= 0.0:
        raise ValueError("epsilon_n must be >= 0")
    return _capped_theta(theta, epsilon_n, norm(np.asarray(x_n, float) - np.asarray(x_prev, float)))


def _capped_theta(theta: float, epsilon_n: float, dx: float) -> float:
    """min(theta, epsilon_n / dx), or theta when dx = ||x_n - x_prev|| is 0."""
    return theta if dx == 0.0 else min(theta, epsilon_n / dx)


def _objective(problem: SfpProblem, u: np.ndarray) -> tuple[float, np.ndarray, float]:
    """f(u), grad f(u) and ||grad f(u)||^2 from one Q-residual."""
    r = problem.residual(u)
    gvec = problem.A.apply_adjoint(r)
    return 0.5 * float(np.dot(r, r)), gvec, float(np.dot(gvec, gvec))


def _guarded_tau(rho: float, gg: float, numerator) -> float:
    """rho f / ||grad f||^2, or 0 when ||grad f||^2 <= GRAD_GUARD; the
    zero-argument callable ``numerator`` gives f and runs only past the guard."""
    return 0.0 if gg <= GRAD_GUARD else rho * numerator() / gg


def adaptive_tau(problem: SfpProblem, u: np.ndarray, rho: float) -> float:
    """Self-adaptive step size rho f(u) / ||grad f(u)||^2, 0 on a vanishing gradient."""
    if not (0.0 < rho < 4.0):
        raise ValueError("rho must lie in (0, 4)")
    f_u, _, gg = _objective(problem, u)
    return _guarded_tau(rho, gg, lambda: f_u)


# --- stepping ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StepRecord:
    """Scalar diagnostics of step n (NaN where a quantity is undefined).

    ``f_u`` and ``grad_norm_u`` are taken at the extrapolated point u, so the
    Q-residual there is sqrt(2 f_u); the distance of x_n from C is the CSV's
    ``res_C`` column.  The Fejer gaps and the quasi-nonexpansive slack need
    the problem's ``known_solution``.
    """

    n: int
    theta: float
    tau: float
    f_u: float
    grad_norm_u: float
    fejer_gap_y: float
    fejer_gap_v: float
    quasi_ne_slack: float
    psi: float


@dataclass
class RunHistory:
    """Iterate trajectory plus per-step records; row 0 is the start point."""

    iterates: list
    records: list
    termination_reason: str

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _compose_y(mode: str, project, u, tau_g, delta, t_u):
    """Return (y, w - P_C(w)), where w is the proof-mode blend and ``tau_g``
    is tau * grad f(u)."""
    delta_t = delta * t_u
    w_blend = (1.0 - delta) * (u - tau_g) + delta_t
    if mode == "proof":
        y = project(w_blend)
        return y, w_blend - y
    if mode == "statement":
        y = project((1.0 - delta) * u - tau_g) + delta_t
    else:
        y = project((1.0 - delta) * u + delta_t - tau_g)
    return y, w_blend - project(w_blend)


def _stepper(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig):
    """The update (n, x_n, x_prev) -> (x_next, record) that :func:`step` and
    :func:`run` share.

    What every step would otherwise look up again is bound here once: the
    operator and projection methods, the plain functions of the averaged map
    and of ``g`` (the step's vectors are float64 of the right size, so the
    checks of ``Mapping.__call__`` are not needed), the declared solution and
    the mode and step-rule branches.  Each product is formed once per step.
    """
    schedule_at = schedule.at
    apply, apply_adjoint = problem.A.apply, problem.A.apply_adjoint
    project_c, project_q = problem.C.project, problem.Q.project
    t_fn = problem.averaged_map(schedule.lam).plain()
    g_fn = problem.g.fn
    theta = schedule.theta
    xs = problem.known_solution
    mode = config.mode
    adaptive = config.step_rule == "adaptive"
    fixed_step = config.fixed_step
    f_value = problem.f_value if config.tau_numerator == "x" else None

    def advance(n: int, x_n: np.ndarray, x_prev: np.ndarray) -> tuple[np.ndarray, StepRecord]:
        p = schedule_at(n)
        for _, condition, message in _violations(p, n, adaptive):
            raise ScheduleViolation(f"{condition} {message}")
        alpha, beta, gamma, delta, rho, epsilon = p

        dx = x_n - x_prev
        theta_n = _capped_theta(theta, epsilon, norm(dx))
        u = x_n + theta_n * dx

        ax = apply(u)
        r = ax - project_q(ax)
        gvec = apply_adjoint(r)
        f_u, gg = 0.5 * float(np.dot(r, r)), float(np.dot(gvec, gvec))

        if not adaptive:
            tau = fixed_step
        elif f_value is not None:
            tau = _guarded_tau(rho, gg, lambda: f_value(x_n))
        else:
            tau = _guarded_tau(rho, gg, lambda: f_u)

        t_u = t_fn(u)
        tau_g = tau * gvec
        y, blend_residual = _compose_y(mode, project_c, u, tau_g, delta, t_u)
        beta_u, gamma_y = beta * u, gamma * y
        x_next = alpha * g_fn(x_n) + beta_u + gamma_y

        # distance monitors against the declared solution
        gap_y = gap_v = qne_slack = float("nan")
        if xs is not None:
            du = norm(u - xs)
            gap_y = norm(y - xs) - du
            if 1.0 - alpha > 1e-300:
                gap_v = norm((beta_u + gamma_y) / (1.0 - alpha) - xs) - du
            qne_slack = norm(t_u - xs) - du

        psi = _psi_scalar(p, f_u, gg, t_u, u, tau_g, blend_residual)
        return x_next, StepRecord(n, theta_n, tau, f_u, math.sqrt(gg), gap_y, gap_v, qne_slack, psi)

    return advance


def _psi_scalar(p: StepParams, f_u: float, gg: float, t_u: np.ndarray, u: np.ndarray,
                tau_g: np.ndarray, blend_residual: np.ndarray) -> float:
    coef = p.gamma / (1.0 - p.alpha) if 1.0 - p.alpha > 1e-300 else 0.0
    term1 = 0.0
    if gg > GRAD_GUARD:
        term1 = (1.0 - p.delta) * coef * p.rho * (4.0 - p.rho) * f_u * f_u / gg
    drift = t_u - u + tau_g
    term2 = p.delta * (1.0 - p.delta) * coef * float(np.dot(drift, drift))
    term3 = coef * float(np.dot(blend_residual, blend_residual))
    return term1 + term2 + term3


def psi_diagnostic(problem: SfpProblem, schedule: ParameterSchedule, n: int,
                   u: np.ndarray, tau: float) -> float:
    """The nonnegative per-step decrease certificate of the analysis.

    Three terms: the adaptive-gradient gain, the averaged-map drift and the
    projection residual of the blended point, each weighted by the current
    schedule values.  All divisions are guarded like the step itself.
    """
    p = schedule.at(n)
    u = as_vector(u, problem.dim)
    f_u, gvec, gg = _objective(problem, u)
    t_u = problem.averaged_map(schedule.lam)(u)
    tau_g = tau * gvec
    _, blend_residual = _compose_y("proof", problem.C.project, u, tau_g, p.delta, t_u)
    return _psi_scalar(p, f_u, gg, t_u, u, tau_g, blend_residual)


def step(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig,
         n: int, x_n: np.ndarray, x_prev: np.ndarray):
    """One update x_n -> x_{n+1}; returns (x_next, record).

    Raises :class:`ScheduleViolation` when the schedule breaks a hard
    constraint at index n.
    """
    x_n = as_vector(x_n, problem.dim)
    x_prev = as_vector(x_prev, problem.dim)
    return _stepper(problem, schedule, config)(n, x_n, x_prev)


def _warn_lambda_vs_modulus(problem: SfpProblem, t_lam: AveragedMapping) -> None:
    s = problem.S
    if s is not None and s.class_tag == "demicontractive" and t_lam.class_tag != "quasi_nonexpansive":
        warnings.warn(
            f"averaging weight {t_lam.lam} is outside (0, {1.0 - s.modulus:.6g}) for the declared "
            f"demicontractive modulus {s.modulus}; quasi-nonexpansiveness of the averaged "
            "map is not guaranteed",
            UserWarning,
            stacklevel=3,
        )


def run(problem: SfpProblem, schedule: ParameterSchedule, config: StepperConfig,
        x0, x1=None) -> RunHistory:
    """Iterate until the gradient and feasibility tolerances are met.

    The loop stops with reason ``residual_met`` when ||grad f(u_n)|| <=
    grad_tol and the combined residual at x_n is <= residual_tol, with
    ``grad_zero`` when only the gradient test fires (the scheme's own stop
    rule), or with ``max_iter``.  The stop test runs before the step, so a
    start at the solution performs zero steps.  Iterates that are not finite
    or exceed 1e12 in norm raise :class:`DivergenceError` and a schedule that
    breaks a hard constraint raises :class:`ScheduleViolation`, each carrying
    the partial history.

    ``x1`` defaults to ``x0`` (two seeds are needed by the inertial term).
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
    _warn_lambda_vs_modulus(problem, problem.averaged_map(schedule.lam))
    advance = _stepper(problem, schedule, config)

    stopping = config.stopping
    grad_tol = stopping.grad_tol
    iterates = [np.array(x_cur)]
    records: list[StepRecord] = []
    reason = "max_iter"
    for n in range(1, stopping.max_iter + 1):
        try:
            x_next, record = advance(n, x_cur, x_prev)
        except ScheduleViolation as exc:
            exc.history = RunHistory(iterates=iterates, records=records, termination_reason="schedule_violation")
            raise
        if record.grad_norm_u <= grad_tol:
            res = problem.combined_residual(x_cur, schedule.lam)
            reason = "residual_met" if res <= stopping.residual_tol else "grad_zero"
            break
        if not norm(x_next) <= DIVERGENCE_LIMIT:  # also true for nan and inf entries
            history = RunHistory(iterates=iterates, records=records, termination_reason="divergence")
            raise DivergenceError(f"iterates diverged at step {n}", history)
        records.append(record)
        iterates.append(x_next)
        x_prev, x_cur = x_cur, x_next
    return RunHistory(iterates=iterates, records=records, termination_reason=reason)


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

    @property
    def warnings(self) -> list:
        return [e for e in self.entries if e.level == "warn"]

    def text(self) -> str:
        lines = [f"schedule check over n = 1..{self.horizon}"]
        for e in self.entries:
            lines.append(f"  [{e.level:4s}] {e.condition}: {e.message}")
        return "\n".join(lines)


def validate_schedule(schedule: ParameterSchedule, horizon: int) -> ScheduleReport:
    """Finite-horizon check of the admissibility conditions.

    The sum coupling (c5) and closed-range violations are hard failures; the
    asymptotic conditions (c1)-(c4) and the open-interval ranges are checked
    by finite proxies that can only warn, never prove.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    entries: list[CheckEntry] = []
    params = [schedule.at(n) for n in range(1, horizon + 1)]
    alpha, beta, gamma, delta, _, eps = np.array(params).T
    first: dict[str, str] = {}  # the message of each constraint's first violation
    for n, p in enumerate(params, start=1):
        for sequence, _, message in _violations(p, n, need_rho=True):
            first.setdefault(sequence, message)

    # hard ranges + (c5); rho's range only warns, as the step rule is not known here
    for name, arr in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if name in first:
            entries.append(CheckEntry("range", "fail", first[name]))
        else:
            at_boundary = np.flatnonzero((arr == 0.0) | (arr == 1.0))
            if at_boundary.size:
                entries.append(CheckEntry("range", "warn",
                                          f"{name} touches the boundary of (0, 1) (first at n = {at_boundary[0] + 1})"))
    if "epsilon" in first:
        entries.append(CheckEntry("range", "fail", first["epsilon"]))
    if "rho" in first:
        entries.append(CheckEntry("range", "warn", first["rho"]))
    if "sum" in first:
        entries.append(CheckEntry("(c5)", "fail", first["sum"]))
    else:
        entries.append(CheckEntry("(c5)", "pass", "alpha + beta + gamma = 1 at every evaluated n"))

    tail = slice(max(0, horizon // 2 - 1), horizon)

    # (c1) limsup beta < 1
    beta_tail_max = float(beta[tail].max())
    if beta_tail_max < 1.0 - 1e-6:
        entries.append(CheckEntry("(c1)", "pass", f"tail max of beta = {beta_tail_max:.6g} < 1"))
    else:
        entries.append(CheckEntry("(c1)", "warn", f"tail max of beta = {beta_tail_max:.6g} is not bounded away from 1"))

    # (c2) epsilon/alpha -> 0
    if (alpha[tail] <= 0.0).any():
        entries.append(CheckEntry("(c2)", "warn", "alpha vanishes on the tail; epsilon/alpha is undefined"))
    else:
        ratio = eps[tail] / alpha[tail]
        if ratio[-1] <= ratio[0] + 1e-15 and ratio[-1] < 1e-2:
            entries.append(CheckEntry("(c2)", "pass", f"epsilon/alpha falls to {ratio[-1]:.3g} over the tail"))
        else:
            entries.append(CheckEntry("(c2)", "warn",
                                      f"epsilon/alpha = {ratio[-1]:.3g} at the horizon (started the tail at {ratio[0]:.3g})"))

    # (c3) alpha -> 0 with divergent sum
    a_end = float(alpha[-1])
    a_mid = float(alpha[max(0, horizon // 10 - 1)])
    decays = a_end < 1e-12 or a_end <= 0.9 * a_mid
    diverges = horizon * a_end >= 1e-2
    if decays and diverges:
        entries.append(CheckEntry("(c3)", "pass",
                                  f"alpha({horizon}) = {a_end:.3g} decays while n * alpha(n) = {horizon * a_end:.3g} stays away from 0"))
    else:
        entries.append(CheckEntry("(c3)", "warn",
                                  f"alpha({horizon}) = {a_end:.3g}, n * alpha(n) = {horizon * a_end:.3g}: "
                                  "decay toward 0 with a divergent sum is not evident"))

    # (c4) 0 < liminf delta <= limsup delta < 1
    d_lo, d_hi = float(delta[tail].min()), float(delta[tail].max())
    if d_lo > 1e-6 and d_hi < 1.0 - 1e-6:
        entries.append(CheckEntry("(c4)", "pass", f"tail of delta stays within [{d_lo:.6g}, {d_hi:.6g}]"))
    else:
        entries.append(CheckEntry("(c4)", "warn", f"tail of delta [{d_lo:.6g}, {d_hi:.6g}] is not interior to (0, 1)"))

    return ScheduleReport(horizon=horizon, entries=entries)
