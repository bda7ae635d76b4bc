"""Problem registry, schedule presets, config parsing, CSV emission and the
reference-table comparison for the 5-variable linear-system experiment.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .linalg import LinearMap, as_integer, as_vector, block_rows, norm, row_dots, row_norms
from .mappings import Mapping, fixed_point_residual, linear_mapping, mapping_from_name
from .sets import (
    AffineNullspace,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    Singleton,
    WholeSpace,
    membership_residual,
)
from .solver import (
    RECORD_DTYPE,
    ParameterSchedule,
    RunHistory,
    Seq,
    SfpProblem,
    StepperConfig,
    run,
)

__all__ = [
    "ConfigError",
    "TABLE1_ROWS",
    "TABLE1_TOLERANCE",
    "build_example_s4",
    "generate_random_sfp",
    "PRESETS",
    "schedule_from_config",
    "parse_config",
    "normalize_config",
    "build_from_config",
    "run_experiment",
    "ExperimentResult",
    "emit_csv",
    "read_csv_iterates",
    "compare_to_table1",
    "Table1Report",
    "run_property_suites",
]


class ConfigError(ValueError):
    """A config document is malformed; the message carries the field path."""


# --- the 5-variable linear-system experiment --------------------------------

# Reference iterates as printed (6 decimals), keyed by iteration index.
TABLE1_ROWS: dict[int, tuple[str, ...]] = {
    0: ("1", "1", "1", "1", "1"),
    1: ("0.766667", "0.766667", "0.766667", "0.766667", "1"),
    2: ("0.587778", "0.587778", "0.587778", "0.642222", "1"),
    3: ("0.450630", "0.450630", "0.463333", "0.575852", "1"),
    4: ("0.345483", "0.348447", "0.381477", "0.540454", "1"),
    5: ("0.265562", "0.274850", "0.329560", "0.521576", "1"),
    6: ("0.205764", "0.223484", "0.297466", "0.511507", "1"),
    7: ("0.161887", "0.188600", "0.278000", "0.506137", "1"),
    8: ("0.130347", "0.165454", "0.266366", "0.503273", "1"),
    9: ("0.108124", "0.150394", "0.259492", "0.501746", "1"),
    10: ("0.092758", "0.140758", "0.255470", "0.500931", "1"),
    11: ("0.082315", "0.134681", "0.253134", "0.500497", "1"),
    12: ("0.075327", "0.130894", "0.251788", "0.500265", "1"),
    13: ("0.070716", "0.128561", "0.251015", "0.500141", "1"),
    14: ("0.067713", "0.127136", "0.250574", "0.500075", "1"),
    15: ("0.065779", "0.126273", "0.250324", "0.500040", "1"),
    20: ("0.062790", "0.125089", "0.250018", "0.500002", "1"),
    32: ("0.062501", "0.125000", "0.250000", "0.500000", "1"),
    33: ("0.062500", "0.125000", "0.250000", "0.500000", "1"),
}
# half a unit in the last printed decimal place
TABLE1_TOLERANCE = 5e-7

_S_MATRIX = [
    [1 / 3, 1 / 3, 0, 0, 0],
    [0, 1 / 3, 1 / 3, 0, 0],
    [0, 0, 1 / 3, 1 / 3, 0],
    [0, 0, 0, 1 / 3, 1 / 3],
    [0, 0, 0, 0, 1.0],
]
# The reference linear system.  As printed, row 3 of the coefficient matrix is
# (1, 1, 0, 4, 1), which is inconsistent with the stated right-hand side and
# exact solution (it would give 51/16, not 19/16, and make the problem
# infeasible).  The sign of the last entry is corrected so that A x* = b holds
# exactly; see the README's notes on the reference experiment.
_A_MATRIX = [
    [1, 1, 2, 2, 1],
    [0, 2, 1, 5, -1],
    [1, 1, 0, 4, -1],
    [2, 0, 3, 1, 5],
    [2, 2, 3, 6, 1],
]
_B_VECTOR = [43 / 16, 2.0, 19 / 16, 51 / 8, 41 / 8]
_X_STAR = [1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]


def build_example_s4() -> SfpProblem:
    """The 5-variable experiment: C = Fix(S) as a null space, Q = {b}.

    The matrix S is not quasi-nonexpansive (its spectral norm exceeds 1) and
    the demicontractivity gain is unbounded on Fix(S)'s complement, so it
    keeps the default tag ``generic``; the averaged map is still well defined.
    """
    s_mat = np.array(_S_MATRIX)
    a_map = LinearMap(np.array(_A_MATRIX, dtype=float))
    xs = np.array(_X_STAR)
    s_mapping = linear_mapping(s_mat, known_fixed_points=(xs,))
    c_set = AffineNullspace(LinearMap(np.eye(5) - s_mat))
    q_set = Singleton(np.array(_B_VECTOR))
    return SfpProblem(A=a_map, C=c_set, Q=q_set, S=s_mapping, known_solution=xs)


def generate_random_sfp(dim1: int, dim2: int, family: str, seed: int,
                        include_fixed_point_map: bool = False) -> SfpProblem:
    """Random consistent instance with a planted feasible point.

    The planted point is stored as ``known_solution``; it is feasible by
    construction but not necessarily the iteration's limit.  With
    ``include_fixed_point_map`` a contraction toward the planted point is
    attached as S, so the point also lies in Fix(S).
    """
    dim1, dim2, seed = as_integer(dim1, "dim1"), as_integer(dim2, "dim2"), as_integer(seed, "seed")
    if not isinstance(include_fixed_point_map, bool):
        raise ValueError(f"include_fixed_point_map must be true or false, got {include_fixed_point_map!r}")
    if dim1 < 1 or dim2 < 1:
        raise ValueError("dimensions must be >= 1")
    if family not in ("box", "ball", "halfspace"):
        raise ValueError(f"unknown set family {family!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim2, dim1))
    x_hat = rng.standard_normal(dim1)
    y_hat = a @ x_hat

    def make_set(center: np.ndarray) -> ConvexSet:
        d = center.size
        if family == "box":
            lo = center - (np.abs(rng.standard_normal(d)) + 0.1)
            hi = center + (np.abs(rng.standard_normal(d)) + 0.1)
            return Box(lo, hi)
        if family == "ball":
            radius = float(np.abs(rng.standard_normal())) + 0.5
            offset = rng.standard_normal(d)
            offset *= 0.3 * radius / max(norm(offset), 1e-12)
            return Ball(center + offset, radius)
        normal = rng.standard_normal(d)
        gap = float(np.abs(rng.standard_normal())) + 0.1
        return Halfspace(normal, float(normal @ center) + gap)

    s_map = None
    if include_fixed_point_map:
        xh = x_hat.copy()
        s_map = Mapping(
            fn=lambda x: xh + 0.5 * (x - xh),
            dim=dim1,
            class_tag="contraction",
            modulus=0.5,
            known_fixed_points=(xh,),
        )
    return SfpProblem(
        A=LinearMap(a),
        C=make_set(x_hat),
        Q=make_set(y_hat),
        S=s_map,
        known_solution=x_hat,
    )


# --- schedule presets --------------------------------------------------------


def _power_law(const: float, coeff: float, power: float) -> dict:
    return {"rule": "power-law", "const": const, "coeff": coeff, "power": power}


# Each preset is a schedule section in the config format plus the composition
# mode it runs in; keys it leaves out take the values of _SCHEDULE_DEFAULTS.
PRESETS = {
    "paper-s4": ({"alpha": _power_law(0.0, 0.1, 1.0), "beta": _power_law(0.5, -0.05, 1.0),
                  "gamma": "complement", "delta": 0.5, "epsilon": _power_law(0.0, 0.1, 2.0),
                  "theta": 0.5}, "proof"),
    "table-1": ({"alpha": _power_law(0.0, 0.1, 1.0), "beta": 0.0, "gamma": "complement",
                 "delta": 1.0}, "proof"),
    "cq": ({"alpha": 0.0, "beta": 0.0, "gamma": "complement", "delta": 0.0}, "proof"),
    # cubically decaying viscosity weight: the damping toward g's fixed point
    # fades fast enough for linear convergence while keeping every term of the
    # hybrid scheme (inertia, averaged map, adaptive gradient) active.
    "fast": ({"alpha": _power_law(0.0, 0.1, 3.0), "beta": _power_law(0.5, -0.05, 3.0),
              "gamma": "complement", "delta": 0.5, "epsilon": _power_law(0.0, 0.1, 4.0),
              "theta": 0.5}, "proof"),
    "viscosity": ({"alpha": _power_law(0.0, 0.1, 1.0), "beta": _power_law(0.5, -0.05, 1.0),
                   "gamma": "complement", "delta": 0.5, "lambda": 1.0}, "statement"),
}
_SCHEDULE_DEFAULTS = {"rho": 2.0, "epsilon": 0.0, "theta": 0.0, "lambda": 0.5}
_SEQUENCE_KEYS = ("alpha", "beta", "gamma", "delta", "rho", "epsilon")


def _preset(name: str) -> tuple[dict, str]:
    try:
        return PRESETS[name]
    except (KeyError, TypeError):
        raise ConfigError(f"schedule.preset: unknown preset {name!r} (have {sorted(PRESETS)})") from None


def _sequence(obj) -> Seq:
    """A number is a constant, a list is explicit and ``{rule: power-law,
    const, coeff, power}`` is a power law whose keys other than ``rule``
    default to :class:`Seq`'s.  ``obj`` is a value of a normalized section, in
    which :func:`normalize_config` has written a number that YAML leaves a
    string (``1e-1``) as that number."""
    if isinstance(obj, (int, float)):
        return Seq.constant(obj)
    if isinstance(obj, (list, tuple)):
        return Seq.explicit(obj)
    if not isinstance(obj, dict) or obj.get("rule") != "power-law":
        raise ValueError(f"expected a number, a list or {{rule: power-law, const, coeff, power}}, got {obj!r}")
    unknown = set(obj) - {"rule", "const", "coeff", "power"}
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} for rule 'power-law'")
    return Seq(**obj)


def schedule_from_config(section: dict) -> ParameterSchedule:
    """Build a schedule from its config section: defaults < preset < explicit keys.

    ``section`` is a normalized section (``normalize_config(raw)["schedule"]``)
    or a preset's, so a number that YAML leaves a string is already a number.
    ``gamma: complement`` stands for gamma = 1 - alpha - beta.
    """
    merged = dict(_SCHEDULE_DEFAULTS)
    if "preset" in section:
        merged.update(_preset(section["preset"])[0])
    merged.update(section)
    _reject_unknown_keys("schedule", merged, {*_SEQUENCE_KEYS, "theta", "lambda", "preset"})
    values = {}
    for key in _SEQUENCE_KEYS:
        if key not in merged:
            raise ConfigError(f"schedule.{key}: sequence is required")
        value = merged[key]
        values[key] = None if key == "gamma" and value == "complement" else _read(f"schedule.{key}", _sequence, value)
    try:
        return ParameterSchedule(**values, theta=merged["theta"], lam=merged["lambda"])
    except ValueError as exc:  # its message starts with the offending key
        raise ConfigError(f"schedule.{exc}") from exc


def _reject_unknown_keys(path: str, section: dict, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


# --- config parsing ----------------------------------------------------------


def _read(path: str, read, *args, errors=(ValueError, TypeError), **kwargs):
    """``read(*args, **kwargs)``, with an exception of ``errors`` from it
    reported as a ``ConfigError`` at the field ``path``; a ``ConfigError``
    passes as it is."""
    try:
        return read(*args, **kwargs)
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_number(value, read=float):
    """``read(value)`` (``float`` or ``int``) for a string that it reads as a
    number (YAML leaves ``1e-1`` a string), else ``value`` as it is."""
    if isinstance(value, str):
        try:
            return read(value)
        except ValueError:
            pass
    return value


def _read_numbers(schedule: dict, stepper: dict) -> None:
    """Write, in place, each schedule and stepper value that ``as_real`` or
    ``as_integer`` reads from a string as that number, so that ``1e-1``
    and ``0.1`` give one fingerprint; other strings stay for the checks."""
    for key, value in schedule.items():
        if key not in (*_SEQUENCE_KEYS, "theta", "lambda"):
            continue
        if isinstance(value, list):
            value = [_read_number(v) for v in value]
        elif isinstance(value, dict) and value.get("rule") == "power-law":
            value = {k: v if k == "rule" else _read_number(v) for k, v in value.items()}
        schedule[key] = _read_number(value)
    for key in ("grad_tol", "residual_tol", "fixed_step", "max_iter"):
        stepper[key] = _read_number(stepper[key], int if key == "max_iter" else float)


# each set kind's constructor and parameters, read in this order: its stanza
# takes these and ``kind``, nothing else.  A vector parameter is read by
# ``as_vector`` where it is reached, so a bad one is reported before a missing
# parameter after it; the set checks its numbers itself.
_SETS = {"box": (Box, ("lower", "upper")), "ball": (Ball, ("center", "radius")),
         "halfspace": (Halfspace, ("normal", "offset")), "hyperplane": (Hyperplane, ("normal", "offset")),
         "singleton": (Singleton, ("point",)),
         "affine_nullspace": (lambda matrix: AffineNullspace(LinearMap(matrix)), ("matrix",)),
         "whole_space": (WholeSpace, ("dim",))}
_VECTORS = ("lower", "upper", "center", "normal", "point")


def set_from_config(obj, path: str) -> ConvexSet:
    """Build a convex set from its config stanza ({kind: ..., params...})."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _SETS:
        raise ConfigError(f"{path}.kind: unknown set kind {kind!r} (have {tuple(_SETS)})")
    make, names = _SETS[kind]
    _reject_unknown_keys(path, obj, ("kind", *names))
    params = []
    for name in names:
        if name not in obj:
            raise ConfigError(f"{path}: missing parameter {name!r} for kind {kind!r}")
        params.append(_read(path, as_vector, obj[name], name=name) if name in _VECTORS else obj[name])
    return _read(path, make, *params)


def _mapping_from_config(obj, dim: int, path: str) -> Mapping:
    """A mapping from its registry name, as :func:`mapping_from_name` reads it."""
    if not isinstance(obj, str):
        raise ConfigError(f"{path}: expected a mapping name (identity, zero, example-2.2, "
                          f"contraction-scale:<c> or linear:<json matrix>), got {obj!r}")
    return _read(path, mapping_from_name, obj, dim)


# PyYAML's libyaml-backed safe loader: the same constructor and resolver as
# ``yaml.safe_load`` (so the same values), with the scanner and parser in C.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> dict:
    """Parse a YAML config document into a plain dict, with the values
    ``yaml.safe_load`` gives."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    return raw


_DEFAULT_STEPPER = {f.name: f.default for f in fields(StepperConfig)}


def _section(raw: dict, name: str, default: dict | None = None) -> dict:
    """A copy of an optional top-level section; missing, null or ``{}`` gives ``default``."""
    section = raw.get(name)
    if not isinstance(section, (dict, type(None))):
        raise ConfigError(f"{name}: must be a mapping")
    return dict(section or default or {})


def _plain(obj):
    """``obj`` with ``str`` keys, lists for tuples and Python numbers for numpy scalars."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def normalize_config(raw: dict) -> dict:
    """Fill defaults and canonicalize a parsed config (used for fingerprints).

    The result contains only plain scalars/lists/dicts, so its sorted JSON
    dump is a stable canonical form; every check sees its ``str`` keys.
    """
    raw = _plain(raw)
    known = {"problem", "schedule", "stepper", "start", "output"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level section(s): {sorted(unknown)}")
    problem = raw.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("problem: section is required")
    schedule = _section(raw, "schedule", {"preset": "paper-s4"})
    # presets resolve here so the canonical form is self-contained: defaults
    # < preset stepper hints < the user's explicit stepper section
    stepper = dict(_DEFAULT_STEPPER)
    if "preset" in schedule:
        stepper["mode"] = _preset(schedule["preset"])[1]
    stepper.update(_section(raw, "stepper"))
    start = _section(raw, "start")
    output = _section(raw, "output")
    _reject_unknown_keys("stepper", stepper, _DEFAULT_STEPPER)
    _reject_unknown_keys("start", start, ("x0", "x1"))
    _reject_unknown_keys("output", output, ("csv",))
    _read_numbers(schedule, stepper)
    return {
        "problem": problem,
        "schedule": schedule,
        "stepper": stepper,
        "start": start,
        "output": output,
    }


def _fingerprint(normalized: dict) -> str:
    """SHA-256 prefix of the normalized config as sorted-key, compact JSON."""
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class BuiltConfig:
    problem: SfpProblem
    schedule: ParameterSchedule
    stepper: StepperConfig
    x0: np.ndarray
    x1: np.ndarray
    csv_name: str
    fingerprint: str


def _example_problem(pr: dict) -> tuple[SfpProblem, np.ndarray]:
    if pr["example"] != "s4":
        raise ConfigError(f"problem.example: unknown example {pr['example']!r}")
    return build_example_s4(), np.ones(5)


def _random_problem(pr: dict) -> tuple[SfpProblem, np.ndarray]:
    spec = pr["random"]
    if not isinstance(spec, dict):
        raise ConfigError("problem.random: must be a mapping")
    _reject_unknown_keys("problem.random", spec, ("dim1", "dim2", "family", "seed", "include_fixed_point_map"))
    for name in ("dim1", "dim2"):
        if name not in spec:
            raise ConfigError(f"problem.random: missing parameter {name!r}")
    problem = _read("problem.random", generate_random_sfp, spec["dim1"], spec["dim2"], spec.get("family", "box"),
                    spec.get("seed", 0), include_fixed_point_map=spec.get("include_fixed_point_map", False))
    return problem, np.zeros(problem.dim)


def _explicit_problem(pr: dict) -> tuple[SfpProblem, np.ndarray]:
    if "A" not in pr:
        raise ConfigError("problem.A: matrix is required for an explicit problem")
    a_map = _read("problem.A", LinearMap, pr["A"])
    c_set = set_from_config(pr.get("C"), "problem.C")
    q_set = set_from_config(pr.get("Q"), "problem.Q")
    s_map = _mapping_from_config(pr["S"], a_map.cols, "problem.S") if pr.get("S") is not None else None
    g_map = _mapping_from_config(pr.get("g", "zero"), a_map.cols, "problem.g")
    known = pr.get("known_solution")
    if known is not None:
        known = _read("problem.known_solution", as_vector, known, a_map.cols)
    problem = _read("problem", SfpProblem, a_map, c_set, q_set, s_map, g_map, known, errors=(ValueError,))
    return problem, np.zeros(problem.dim)


# The three forms of the problem section, each with the keys it takes and its
# builder, which returns the problem and the default start vector.  A section
# with an ``example`` or a ``random`` key has that form; any other is explicit.
_PROBLEM_FORMS = {
    "example": (("example",), _example_problem),
    "random": (("random",), _random_problem),
    "explicit": (("A", "C", "Q", "S", "g", "known_solution"), _explicit_problem),
}


def build_from_config(raw: dict) -> BuiltConfig:
    """Turn a config dict into runnable objects, reporting errors by field path."""
    cfg = normalize_config(raw)
    pr = cfg["problem"]
    form = next((name for name in ("example", "random") if name in pr), "explicit")
    keys, build = _PROBLEM_FORMS[form]
    _reject_unknown_keys("problem", pr, keys)
    problem, default_start = build(pr)

    schedule = schedule_from_config(cfg["schedule"])

    stepper = _read("stepper", StepperConfig, **cfg["stepper"])

    start = cfg["start"]
    x1 = _read("start.x1", as_vector, start.get("x1", default_start), problem.dim)
    x0 = _read("start.x0", as_vector, start["x0"], problem.dim) if "x0" in start else x1

    fingerprint = _fingerprint(cfg)
    csv_name = cfg["output"].get("csv") or f"run_{fingerprint}.csv"
    if not isinstance(csv_name, str) or csv_name in (".", "..") or Path(csv_name).name != csv_name:
        raise ConfigError(f"output.csv: must be a file name, got {csv_name!r}")
    return BuiltConfig(
        problem=problem, schedule=schedule, stepper=stepper,
        x0=x0, x1=x1, csv_name=csv_name, fingerprint=fingerprint,
    )


# --- experiments and CSV ------------------------------------------------------


@dataclass
class ExperimentResult:
    history: RunHistory
    wall_time: float
    fingerprint: str
    csv_path: Path | None
    final_error: float  # max-norm error of the last iterate (NaN without a known solution)


def _max_error(x: np.ndarray, xs: np.ndarray | None) -> float:
    return float(np.max(np.abs(x - xs))) if xs is not None else float("nan")


def _history_rows(problem: SfpProblem, schedule: ParameterSchedule, start: np.ndarray, blocks):
    """Yield the CSV header, then one row per iterate: row 0 is ``start``, and
    ``blocks`` gives the rest as ``run`` hands them to ``on_block``, each an
    (iterates, records) pair of k iterates and the records of the k steps
    that made them.

    Row k reads step k + 1's record, so a block's k records complete the rows
    of the iterate carried over from the block before and of every iterate of
    the block but its last, which is carried over in turn; the last row comes
    when ``blocks`` ends.  Each row is a list of floats (``n`` integral).
    Each derived column of a block's rows is one stacked call of the same
    operation (the projections, ``A``, ``A^T``, the averaged map and the norms
    act on each row of a stack with the bits of one point), so the rows are
    those of an evaluation at one iterate at a time, however the blocks fall.

    A step that ran with theta_n = 0 extrapolated to u = x_n, so its record
    already holds f and ||grad f|| at the row's iterate.  The Q-residual norm
    is sqrt(2 f) exactly only while halving its square was exact, i.e. for
    f above the smallest normal float; below that it is evaluated again.
    """
    header = (["n"] + [f"x{i + 1}" for i in range(problem.dim)]
              + ["f", "grad_norm", "theta_n", "tau_n", "res_C", "res_Q", "res_fix", "err_to_solution"])
    yield header
    t_map = problem.averaged_map(schedule.lam)
    xs = problem.known_solution

    def rows(lo, x, theta_n, tau_n, f, grad_n, reused):
        # row lo + i is x[i] with the theta_n and tau_n of the step that made it
        # and, when the step after it ran with theta = 0 (reused[i]), f[i] and
        # grad_n[i] from that step; f and grad_n are filled in place otherwise
        res_q = np.sqrt(2.0 * f)
        fresh = np.flatnonzero(~(reused & (f > sys.float_info.min)))  # rows whose residual is evaluated
        if fresh.size:
            d = problem.residual(x[fresh])
            dd = row_dots(d, d)
            res_q[fresh] = np.sqrt(dd)
            own = ~reused[fresh]  # of those, the rows that take f and ||grad f|| from it too
            f[fresh[own]] = 0.5 * dd[own]
            grad_n[fresh[own]] = row_norms(problem.A.apply_adjoint(d[own]))
        res_c = membership_residual(problem.C, x)
        res_fix = fixed_point_residual(t_map, x) if problem.S is not None else np.zeros(len(x))
        err = np.max(np.abs(x - xs), axis=1) if xs is not None else np.full(len(x), np.nan)
        yield from np.column_stack((np.arange(lo, lo + len(x)), x, f, grad_n, theta_n, tau_n,
                                    res_c, res_q, res_fix, err)).tolist()

    # the carried row: its number, its iterate and the step that made it
    lo, x, theta_n, tau_n = 0, np.asarray(start), 0.0, 0.0
    for iterates, records in blocks:
        if not len(records):  # a run that ended before its last block's first step
            continue
        theta, tau = records["theta"], records["tau"]
        # copies: rows() fills them in place, and a block's records are the
        # run's own history or read-only bytes from the writer's pipe
        yield from rows(lo, np.concatenate((x[None], iterates[:-1])), np.append(theta_n, theta[:-1]),
                        np.append(tau_n, tau[:-1]), records["f_u"].copy(), records["grad_norm_u"].copy(),
                        theta == 0.0)
        lo, x, theta_n, tau_n = lo + len(records), iterates[-1], theta[-1], tau[-1]
    yield from rows(lo, x[None], [theta_n], [tau_n], np.zeros(1), np.zeros(1), np.zeros(1, bool))


def emit_csv(rows, path) -> None:
    """Write the header (the first item of ``rows``) and then each row as
    ``rows`` yields it: ``n`` as an integer, every other value with 17
    significant digits."""
    rows = iter(rows)
    header = next(rows)
    row_format = ",".join(["%d"] + ["%.17g"] * (len(header) - 1)) + "\n"
    with open(path, "w", newline="\n") as out:
        out.write(",".join(header) + "\n")
        out.writelines(row_format % tuple(row) for row in rows)


def _replace_csv(rows, path: Path) -> None:
    """:func:`emit_csv` to a part file beside ``path``, renamed over it once
    complete with the permission bits of the CSV it replaces (as a file written
    in place keeps them); a failure removes the part and leaves ``path`` as it was."""
    part = path.with_name(_PART.format(os.getpid()))
    try:
        emit_csv(rows, part)
        with contextlib.suppress(FileNotFoundError):  # a new CSV: the mode that the umask gives
            os.chmod(part, os.stat(path).st_mode & 0o777)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _csv_rows(path):
    """Yield the header and then each row of an emitted CSV, split into strings."""
    with open(path) as lines:
        for line in lines:
            yield line.rstrip("\n").split(",")


def emit_convergence_svg(csv_path, path) -> None:
    """Minimal vector-graphic convergence curve: log10 of the objective per iterate.

    Plot data is exactly the f column of the CSV at ``csv_path`` (its 17
    significant digits give back each float); anything fancier belongs in
    an external plotting tool.
    """
    rows = _csv_rows(csv_path)
    f_col = next(rows).index("f")
    logs = [np.log10(max(float(row[f_col]), 1e-300)) for row in rows]
    width, height, margin = 640, 360, 40
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    n_max = max(len(logs) - 1, 1)
    points = " ".join(
        f"{margin + (width - 2 * margin) * k / n_max:.2f},"
        f"{height - margin - (height - 2 * margin) * (v - lo) / span:.2f}"
        for k, v in enumerate(logs)
    )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        f'  <text x="{width // 2}" y="{height - 8}" text-anchor="middle" font-size="12">iteration n</text>\n'
        f'  <text x="12" y="{height // 2}" font-size="12" transform="rotate(-90 12 {height // 2})">log10 f</text>\n'
        "</svg>\n"
    )
    Path(path).write_text(svg, newline="\n")


def read_csv_iterates(path) -> list[np.ndarray]:
    """Read back the iterate columns of an emitted CSV, ordered by n."""
    rows = _csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise ValueError(f"empty CSV file {str(path)!r}: no header row")
    x_cols = [i for i, name in enumerate(header) if name.startswith("x") and name[1:].isdigit()]
    return [np.array([float(row[i]) for i in x_cols]) for row in rows]


# A run whose CSV has reached this many values while it still steps is written
# by a forked process, which builds and formats the rows beside the solve.
# Forking at a run's first block paid off from about 10k values on for
# paper-s4 (2-vCPU host, BLAS on one thread, the run and its CSV without the
# build: 1.1-1.2x slower at 4.2k values, 0.85-0.9x at 14k, 0.8x at 28k, 0.75x
# at 70k), so a run that forks here has at least six times that.  box-2000
# rows, whose first block is 16 steps, paid off from about 40k (1.3x at 10k,
# 1.15-1.2x at 34k, where the run is one block, 0.9-1.0x at 42k and 64k,
# 0.8-0.9x at 129k); there a run forks here after 32 steps, as it did with
# blocks of one step.
_FORK_VALUES = 2**16
_END = (-1).to_bytes(8, "little", signed=True)  # the block header that ends a run
_PIPE_BYTES = 1 << 20  # Linux's default pipe-max-size, the most an unprivileged process may ask
_PART = ".sfp-{}.part"  # _replace_csv's part file, by pid; its length does not depend on the CSV name's


def _may_fork() -> bool:
    """Whether a writer process can run beside the solve: this process runs
    one OS thread, so that a child, which has only the forking thread, finds
    no lock that another thread (a BLAS pool, say) held; and a second CPU is
    free for it.  A solve whose BLAS runs threads already keeps the other
    CPUs busy, and on one CPU the writer only takes turns with the solve:
    forked all the same, box-2000 with OpenBLAS on two threads took 1.1 to
    1.4 times as long, and runs held to one CPU 1.03 to 1.05 times."""
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # no /proc or no affinity: unknown
        return False
    return hasattr(os, "fork") and threads == 1 and cpus > 1


class _CsvWriter:
    """The ``on_block`` hook of :func:`run_experiment`, and the writer of its CSV.

    It keeps the run's blocks until they hold ``_FORK_VALUES`` CSV values.
    Then, where :func:`_may_fork`, it forks a writer process that inherits
    the problem and the blocks so far, reads each later block from a pipe as
    raw bytes and writes every row through ``_history_rows`` and
    ``_replace_csv`` while the parent steps on.  The pipe holds up to 1 MiB
    where the kernel allows it, so that the solve does not wait while the
    writer catches up on the rows made before the fork.  A shorter run, and a
    run in a process with more threads or one CPU, is written in process from
    its history by :meth:`finish` through ``_replace_csv`` too; a CSV path that
    is a link or a special file is written through, in process.  The blocks
    are let go (``blocks`` is None) once the writer is ruled out.  Either way
    ``_history_rows`` builds the rows of ``run``'s blocks of
    ``block_rows(dim)`` steps, one block at a time, and the bytes are the same.
    The writer reports only whether it put the CSV in place, by its exit
    status; where it did not, :meth:`finish` writes the CSV in process, so a
    write error is raised in the parent as its own exception.
    """

    def __init__(self, problem: SfpProblem, schedule: ParameterSchedule, start: np.ndarray, path: Path):
        self.problem, self.schedule, self.start, self.path = problem, schedule, start, path
        self.blocks = []
        self.width = problem.dim + 9  # values per CSV row
        self.values = self.width  # the start point's row
        self.pid = self.data = None  # the writer's pid and the parent's end of its pipe
        self.replaceable = not path.is_symlink() and (path.is_file() or not path.exists())

    def __call__(self, iterates: np.ndarray, records: np.ndarray) -> None:
        if self.pid is not None:
            self._send(len(records).to_bytes(8, "little", signed=True) + iterates.tobytes() + records.tobytes())
            return
        if self.blocks is None:  # the writer was ruled out
            return
        self.blocks.append((iterates, records))
        self.values += len(records) * self.width
        if self.values >= _FORK_VALUES:
            if _may_fork() and self.replaceable:
                self._fork()
            self.blocks = None

    def _fork(self) -> None:
        import fcntl  # POSIX only, as is fork

        data_r, data_w = os.pipe()
        try:
            # room for the blocks that the solve sends while the writer builds
            # the rows kept before the fork: up to about 250 KB of 80-byte
            # steps on 20,000 paper-s4 steps (2-vCPU host), where the default
            # 64 KiB made the solve wait
            fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (OSError, AttributeError):  # refused, or not Linux: the default size
            pass
        try:
            pid = os.fork()
        except OSError:  # no process to spare: finish writes the CSV in process
            os.close(data_r)
            os.close(data_w)
            return
        if pid == 0:
            os.close(data_w)
            self._write(data_r)  # never returns
        os.close(data_r)
        self.pid, self.data = pid, data_w

    def _send(self, data: bytes) -> None:
        if self.data is None:  # the writer has ended; finish writes the CSV in process
            return
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(self.data, view):]
        except BrokenPipeError:
            os.close(self.data)
            self.data = None

    def _received(self, fd: int):
        """The writer's blocks: those made before the fork, then those read from ``fd``."""
        yield from self.blocks
        with open(fd, "rb") as pipe:
            def read(count: int) -> bytes:
                data = pipe.read(count)
                if len(data) < count:
                    raise EOFError("the run ended without the end marker")
                return data

            while (k := int.from_bytes(read(8), "little", signed=True)) >= 0:
                iterates = np.frombuffer(read(k * self.problem.dim * 8), np.float64).reshape(k, self.problem.dim)
                yield iterates, np.frombuffer(read(k * RECORD_DTYPE.itemsize), RECORD_DTYPE)

    def _write(self, data: int) -> None:
        """The writer process: write the CSV with :func:`_replace_csv` once the
        run has returned, and exit 0 once it is in place, 1 on any other outcome
        (no end marker, an error, Ctrl-C), which leaves the CSV's path as it was."""
        code = 1
        try:
            _replace_csv(_history_rows(self.problem, self.schedule, self.start, self._received(data)), self.path)
            code = 0
        finally:
            os._exit(code)  # an error is not reported: finish writes again and raises it

    def finish(self, history: RunHistory) -> None:
        """Complete the CSV of a run that returned: send a writer the end marker
        and reap it; where none ran or it did not put the CSV in place (it failed
        or was killed), remove its part file and write the CSV here from
        ``history``, cut again into ``run``'s blocks, raising any error as its own."""
        if (pid := self.pid) is not None:
            self._send(_END)
            if self.stop() == 0:
                return
            self.path.with_name(_PART.format(pid)).unlink(missing_ok=True)  # a killed writer leaves it
        x, records, n = history.iterates[1:], history.records, block_rows(self.problem.dim)
        blocks = ((x[i:i + n], records[i:i + n]) for i in range(0, len(records), n))
        rows = _history_rows(self.problem, self.schedule, self.start, blocks)
        (_replace_csv if self.replaceable else emit_csv)(rows, self.path)

    def stop(self) -> int | None:
        """Close the writer's stream, reap it and return its wait status (None
        without a writer).  Without the end marker that :meth:`finish` sends,
        the writer takes the run as failed.  ``pid`` is kept until the writer
        is reaped, so that a stop that Ctrl-C cut short waits again."""
        if self.pid is None:
            return None
        if self.data is not None:
            data, self.data = self.data, None
            os.close(data)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status


def run_experiment(raw_config: dict, out_dir=None) -> ExperimentResult:
    """Build, run, time and persist one experiment.

    A run that ends in divergence or a schedule violation is written up to
    its last iterate, like any other.  The CSV is complete when this
    returns; a long run's rows may be built and written by a forked process
    while it steps (see :class:`_CsvWriter`), and no such process outlives
    the call.  Where that process does not put the CSV in place, the CSV is
    written again in process, and an error of that write is raised here.
    """
    built = build_from_config(raw_config)
    csv_path = None if out_dir is None else Path(out_dir) / built.csv_name
    writer = None if csv_path is None else _CsvWriter(built.problem, built.schedule, built.x1, csv_path)
    try:
        t0 = time.perf_counter()
        history = run(built.problem, built.schedule, built.stepper, built.x0, built.x1, on_block=writer)
        wall = time.perf_counter() - t0
        if writer is not None:
            writer.finish(history)
    finally:
        if writer is not None:
            writer.stop()
    final_error = _max_error(history.final, built.problem.known_solution)
    return ExperimentResult(history, wall, built.fingerprint, csv_path, final_error)


# --- reference-table comparison -------------------------------------------------


@dataclass
class Table1Report:
    """Per-row deviation of a trajectory from the embedded reference table."""

    deviations: dict
    matched: dict
    rows_available: int

    @property
    def all_matched(self) -> bool:
        return all(self.matched.values())

    def text(self) -> str:
        lines = ["   n  max|dev|      within half-ULP"]
        for n in sorted(self.deviations):
            lines.append(f"{n:4d}  {self.deviations[n]:.6e}  {'yes' if self.matched[n] else 'no'}")
        missing = [n for n in TABLE1_ROWS if n >= self.rows_available]
        if missing:
            lines.append(f"(rows not reached: {missing})")
        return "\n".join(lines)


def compare_to_table1(iterates) -> Table1Report:
    """Max componentwise deviation per reference row; flags half-ULP agreement.

    The trajectory must start at (1, 1, 1, 1, 1) in dimension 5; anything
    else is rejected.
    """
    iterates = [np.asarray(x, dtype=float) for x in iterates]
    if not iterates:
        raise ValueError("empty trajectory")
    if iterates[0].size != 5:
        raise ValueError("the reference table is for a 5-dimensional problem")
    if not np.array_equal(iterates[0], np.ones(5)):
        raise ValueError("the reference table starts at (1, 1, 1, 1, 1)")
    deviations, matched = {}, {}
    for n, row in TABLE1_ROWS.items():
        if n >= len(iterates):
            continue
        ref = np.array([float(s) for s in row])
        dev = float(np.max(np.abs(iterates[n] - ref)))
        deviations[n] = dev
        matched[n] = dev <= TABLE1_TOLERANCE
    return Table1Report(deviations=deviations, matched=matched, rows_available=len(iterates))


# --- property suites (shared by the CLI and the acceptance tests) ---------------


def representative_sets(dim: int = 4) -> list[ConvexSet]:
    """One instance of every projection kind, plus the experiment's null space."""
    rng = np.random.default_rng(20240517)
    s_mat = np.array(_S_MATRIX)
    return [
        Box(-rng.random(dim) - 0.5, rng.random(dim) + 0.5),
        Ball(rng.standard_normal(dim), 1.5),
        Halfspace(rng.standard_normal(dim), 0.7),
        Hyperplane(rng.standard_normal(dim), -0.3),
        Singleton(rng.standard_normal(dim)),
        AffineNullspace(LinearMap(np.eye(5) - s_mat)),
        WholeSpace(dim),
    ]


@dataclass
class SuiteResult:
    name: str
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def projection_property_suite(samples: int = 1000, seed: int = 0) -> list[SuiteResult]:
    """Idempotence, (firm) nonexpansiveness and the nearest-point inequality."""
    from .sets import check_projection_characterization

    results = []
    for cset in representative_sets():
        pairs = 3.0 * np.random.default_rng(seed).standard_normal((samples, 2, cset.dim))
        x, y = pairs[:, 0], pairs[:, 1]
        px, py = cset.project(x), cset.project(y)
        dproj = row_norms(px - py)
        nearest = check_projection_characterization(
            cset, 3.0 * np.random.default_rng(seed + 1).standard_normal(cset.dim),
            samples=samples, seed=seed + 2,
        )
        results.extend([
            SuiteResult(f"{cset.kind}: idempotence", float(np.max(row_norms(cset.project(px) - px))), 1e-10),
            SuiteResult(f"{cset.kind}: nonexpansive", float(np.max(dproj - row_norms(x - y))), 1e-10),
            SuiteResult(f"{cset.kind}: firmly nonexpansive",
                        float(np.max(dproj**2 - row_dots(x - y, px - py))), 1e-10),
            SuiteResult(f"{cset.kind}: nearest-point characterization", nearest, 1e-10),
        ])
    return results


def gradient_property_suite(points: int = 100, instances: int = 5, seed: int = 0) -> list[SuiteResult]:
    """Central finite differences vs the closed-form gradient, plus its
    Lipschitz bound by the squared operator norm."""
    results = []
    families = ["box", "ball", "halfspace"]
    for i in range(instances):
        problem = generate_random_sfp(4 + i % 3, 3 + i % 4, families[i % 3], seed=seed + 100 + i)
        rng = np.random.default_rng(seed + i)
        dim = problem.dim
        x = 2.0 * rng.standard_normal((points, dim))
        g = problem.grad_f(x)
        h = 1e-6 * (1.0 + row_norms(x))
        # row j of point i's block is x_i +- h_i e_j
        around = np.repeat(x, dim, axis=0)
        shifts = (h[:, None, None] * np.eye(dim)).reshape(-1, dim)
        diff = problem.f_value(around + shifts) - problem.f_value(around - shifts)
        fd = diff.reshape(points, dim) / (2.0 * h[:, None])
        worst_rel = float(np.max(row_norms(fd - g) / (1.0 + row_norms(g))))
        results.append(SuiteResult(f"instance {i}: finite-difference gradient (relative)", worst_rel, 1e-6))

        lip = problem.A.operator_norm() ** 2 + 1e-8
        pairs = 2.0 * rng.standard_normal((200, 2, dim))
        x, y = pairs[:, 0], pairs[:, 1]
        worst_gap = np.max(row_norms(problem.grad_f(x) - problem.grad_f(y)) - lip * row_norms(x - y))
        results.append(SuiteResult(f"instance {i}: gradient Lipschitz monitor", float(worst_gap), 0.0))
    return results


def mapping_property_suite() -> list[SuiteResult]:
    """The separating-example certificates on the unit-interval grid."""
    from .mappings import (
        average,
        estimate_demicontractive_modulus,
        unit_interval_jump_map,
        verify_quasi_nonexpansive,
    )

    jump = unit_interval_jump_map()
    fixed = np.array([0.875])
    grid = np.linspace(0.0, 1.0, 10001)[:, None]
    k_hat = estimate_demicontractive_modulus(jump, fixed, grid)
    base_slack = verify_quasi_nonexpansive(jump, fixed, grid)
    avg_slack = verify_quasi_nonexpansive(average(jump, 0.25), fixed, grid)
    return [
        SuiteResult("jump map: demicontractive modulus |k - 2/3|", abs(k_hat - 2.0 / 3.0), 1e-3),
        SuiteResult("jump map: NOT quasi-nonexpansive (slack 1/2 expected)",
                    abs(base_slack - 0.5), 1e-12),
        SuiteResult("averaged jump map (weight 0.25): quasi-nonexpansive", avg_slack, 1e-10),
    ]


def run_property_suites(samples: int = 1000, seed: int = 0) -> tuple[bool, str]:
    """Run all suites; returns (all_passed, printable report)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    lines = []
    ok = True
    for title, results in (
        ("projections", projection_property_suite(samples=samples, seed=seed)),
        ("gradient", gradient_property_suite(points=min(samples, 100), seed=seed)),
        ("mappings", mapping_property_suite()),
    ):
        lines.append(f"[{title}]")
        for r in results:
            ok = ok and r.passed
            lines.append(f"  {'PASS' if r.passed else 'FAIL'}  {r.name}: "
                         f"max violation {r.max_violation:.3e} (tol {r.tolerance:g})")
    return ok, "\n".join(lines)
