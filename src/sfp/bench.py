"""Problem registry, schedule presets, config parsing, CSV emission and the
reference-table comparison for the 5-variable linear-system experiment.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .linalg import LinearMap, norm
from .mappings import Mapping, linear_mapping, mapping_from_name, zero_map
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
    DivergenceError,
    MODES,
    ParameterSchedule,
    RunHistory,
    ScheduleViolation,
    Seq,
    SfpProblem,
    StepperConfig,
    StoppingRule,
    run,
)

__all__ = [
    "ConfigError",
    "TABLE1_ROWS",
    "TABLE1_TOLERANCE",
    "build_example_s4",
    "generate_random_sfp",
    "PRESETS",
    "preset_schedule",
    "schedule_from_config",
    "parse_config",
    "normalize_config",
    "canonical_text",
    "config_fingerprint",
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
    the demicontractivity gain is unbounded on Fix(S)'s complement, so it is
    tagged ``generic``; the averaged map is still well defined.
    """
    s_mat = np.array(_S_MATRIX)
    a_map = LinearMap(np.array(_A_MATRIX, dtype=float))
    xs = np.array(_X_STAR)
    s_mapping = linear_mapping(
        s_mat, class_tag="generic", known_fixed_points=(xs,), name="s4-averaging-matrix"
    )
    c_set = AffineNullspace(LinearMap(np.eye(5) - s_mat))
    q_set = Singleton(np.array(_B_VECTOR))
    return SfpProblem(A=a_map, C=c_set, Q=q_set, S=s_mapping, g=zero_map(5), known_solution=xs)


def generate_random_sfp(dim1: int, dim2: int, family: str, seed: int,
                        include_fixed_point_map: bool = False) -> SfpProblem:
    """Random consistent instance with a planted feasible point.

    The planted point is stored as ``known_solution``; it is feasible by
    construction but not necessarily the iteration's limit.  With
    ``include_fixed_point_map`` a contraction toward the planted point is
    attached as S, so the point also lies in Fix(S).
    """
    if dim1 < 1 or dim2 < 1:
        raise ValueError("dimensions must be >= 1")
    if family not in ("box", "ball", "halfspace"):
        raise ValueError(f"unknown set family {family!r}")
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
            name="pull-to-planted-point",
        )
    return SfpProblem(
        A=LinearMap(a),
        C=make_set(x_hat),
        Q=make_set(y_hat),
        S=s_map,
        g=zero_map(dim1),
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


def schedule_from_config(section: dict) -> ParameterSchedule:
    """Build a schedule from its config section: defaults < preset < explicit keys.

    ``gamma: complement`` stands for gamma = 1 - alpha - beta.
    """
    merged = dict(_SCHEDULE_DEFAULTS)
    if "preset" in section:
        merged.update(_preset(section["preset"])[0])
    merged.update(section)
    _reject_unknown_keys("schedule", merged, {*_SEQUENCE_KEYS, "theta", "lambda", "preset"})
    values = {}
    for key in (*_SEQUENCE_KEYS, "theta", "lambda"):
        if key not in merged:
            raise ConfigError(f"schedule.{key}: sequence is required")
        value = merged[key]
        try:
            if key in ("theta", "lambda"):
                values[key] = float(value)
            else:
                values[key] = None if key == "gamma" and value == "complement" else Seq.from_config(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"schedule.{key}: {exc}") from exc
    lam = values.pop("lambda")
    try:
        return ParameterSchedule(**values, lam=lam)
    except ValueError as exc:  # its message starts with the offending key
        raise ConfigError(f"schedule.{exc}") from exc


def _reject_unknown_keys(path: str, section: dict, known) -> None:
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def preset_schedule(name: str):
    """Return (ParameterSchedule, stepper keyword defaults) for a named preset."""
    return schedule_from_config({"preset": name}), {"mode": _preset(name)[1], "step_rule": "adaptive"}


# --- config parsing ----------------------------------------------------------

_SET_KINDS = ("box", "ball", "halfspace", "hyperplane", "singleton", "affine_nullspace", "whole_space")


def set_from_config(obj, path: str) -> ConvexSet:
    """Build a convex set from its config stanza ({kind: ..., params...})."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = obj["kind"]
    try:
        if kind == "box":
            return Box(np.array(obj["lower"], float), np.array(obj["upper"], float))
        if kind == "ball":
            return Ball(np.array(obj["center"], float), float(obj["radius"]))
        if kind == "halfspace":
            return Halfspace(np.array(obj["normal"], float), float(obj["offset"]))
        if kind == "hyperplane":
            return Hyperplane(np.array(obj["normal"], float), float(obj["offset"]))
        if kind == "singleton":
            return Singleton(np.array(obj["point"], float))
        if kind == "affine_nullspace":
            return AffineNullspace(LinearMap(np.array(obj["matrix"], float)))
        if kind == "whole_space":
            return WholeSpace(int(obj["dim"]))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing parameter {exc.args[0]!r} for kind {kind!r}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown set kind {kind!r} (have {_SET_KINDS})")


def _mapping_from_config(obj, dim: int, path: str) -> Mapping:
    try:
        if isinstance(obj, str):
            return mapping_from_name(obj, dim)
        if isinstance(obj, dict) and "name" in obj:
            return mapping_from_name(obj["name"], dim)
        if isinstance(obj, dict) and "matrix" in obj:
            return linear_mapping(np.array(obj["matrix"], float))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}: expected a mapping name or {{matrix: ...}}")


def parse_config(text: str) -> dict:
    """Parse a YAML config document into a plain dict."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    return raw


# The stepper section is flat: StepperConfig's fields with StoppingRule's in
# place of ``stopping``.  Its defaults are the two dataclasses' own.
_STEPPER_FIELDS = [f.name for f in fields(StepperConfig) if f.name != "stopping"]
_DEFAULT_STEPPER = {f.name: f.default for cls in (StepperConfig, StoppingRule)
                    for f in fields(cls) if f.name != "stopping"}


def _section(raw: dict, name: str, default: dict | None = None) -> dict:
    """A copy of an optional top-level section; empty or missing gives ``default``."""
    section = raw.get(name) or default or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return dict(section)


def normalize_config(raw: dict) -> dict:
    """Fill defaults and canonicalize a parsed config (used for fingerprints).

    The result contains only plain scalars/lists/dicts, so its sorted JSON
    dump is a stable canonical form.
    """
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

    def plain(obj):
        if isinstance(obj, dict):
            return {str(k): plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return obj

    return plain({
        "problem": problem,
        "schedule": schedule,
        "stepper": stepper,
        "start": start,
        "output": output,
    })


def _canonical_json(normalized: dict) -> str:
    return json.dumps(normalized, sort_keys=True, separators=(",", ":"))


def canonical_text(config: dict) -> str:
    """Canonical serialization (sorted-key JSON of the normalized config)."""
    return _canonical_json(normalize_config(config))


def _fingerprint(normalized: dict) -> str:
    return hashlib.sha256(_canonical_json(normalized).encode()).hexdigest()[:16]


def config_fingerprint(config: dict) -> str:
    return _fingerprint(normalize_config(config))


@dataclass
class BuiltConfig:
    problem: SfpProblem
    schedule: ParameterSchedule
    stepper: StepperConfig
    x0: np.ndarray
    x1: np.ndarray
    csv_name: str
    fingerprint: str


def _start_vector(start: dict, key: str, default) -> np.ndarray:
    try:
        return np.array(start.get(key, default), dtype=float)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"start.{key}: {exc}") from exc


def build_from_config(raw: dict) -> BuiltConfig:
    """Turn a config dict into runnable objects, reporting errors by field path."""
    cfg = normalize_config(raw)
    pr = cfg["problem"]

    if "example" in pr:
        if pr["example"] != "s4":
            raise ConfigError(f"problem.example: unknown example {pr['example']!r}")
        problem = build_example_s4()
        default_start = list(np.ones(5))
    elif "random" in pr:
        spec = pr["random"]
        _reject_unknown_keys("problem.random", spec, ("dim1", "dim2", "family", "seed", "include_fixed_point_map"))
        try:
            problem = generate_random_sfp(
                int(spec["dim1"]), int(spec["dim2"]), spec.get("family", "box"),
                int(spec.get("seed", 0)),
                include_fixed_point_map=bool(spec.get("include_fixed_point_map", False)),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"problem.random: {exc}") from exc
        default_start = [0.0] * problem.dim
    else:
        if "A" not in pr:
            raise ConfigError("problem.A: matrix is required for an explicit problem")
        try:
            a_map = LinearMap(np.array(pr["A"], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"problem.A: {exc}") from exc
        c_set = set_from_config(pr.get("C"), "problem.C")
        q_set = set_from_config(pr.get("Q"), "problem.Q")
        s_map = _mapping_from_config(pr["S"], a_map.cols, "problem.S") if pr.get("S") else None
        g_map = _mapping_from_config(pr.get("g", "zero"), a_map.cols, "problem.g")
        known = np.array(pr["known_solution"], float) if pr.get("known_solution") else None
        try:
            problem = SfpProblem(A=a_map, C=c_set, Q=q_set, S=s_map, g=g_map, known_solution=known)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from exc
        default_start = [0.0] * problem.dim

    schedule = schedule_from_config(cfg["schedule"])

    st = cfg["stepper"]
    try:
        # each stopping value takes its default's type (YAML reads 1e-12 as a string)
        stopping = StoppingRule(**{f.name: type(f.default)(st[f.name]) for f in fields(StoppingRule)})
        values = {name: st[name] for name in _STEPPER_FIELDS}
        if values["fixed_step"] is not None:
            values["fixed_step"] = float(values["fixed_step"])
        stepper = StepperConfig(**values, stopping=stopping)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"stepper: {exc}") from exc

    x1 = _start_vector(cfg["start"], "x1", default_start)
    x0 = _start_vector(cfg["start"], "x0", x1)
    if x1.size != problem.dim or x0.size != problem.dim:
        raise ConfigError(f"start: vectors must have dimension {problem.dim}")

    fingerprint = _fingerprint(cfg)
    csv_name = cfg["output"].get("csv") or f"run_{fingerprint}.csv"
    return BuiltConfig(
        problem=problem, schedule=schedule, stepper=stepper,
        x0=x0, x1=x1, csv_name=str(csv_name), fingerprint=fingerprint,
    )


# --- experiments and CSV ------------------------------------------------------


@dataclass
class ExperimentResult:
    history: RunHistory
    rows: list
    header: list
    wall_time: float
    fingerprint: str
    csv_path: Path | None
    error: str | None = None  # why a divergence or schedule violation cut the run short

    @property
    def termination_reason(self) -> str:
        return self.history.termination_reason

    @property
    def final_error(self) -> float:
        """Max-norm error of the last iterate (NaN without a known solution)."""
        return self.rows[-1][self.header.index("err_to_solution")]


def _history_rows(problem: SfpProblem, schedule: ParameterSchedule, history: RunHistory):
    """One row per iterate (row 0 is the start point).

    A step that ran with theta_n = 0 extrapolated to u = x_n, so its record
    already holds f and ||grad f|| at the row's iterate.  The Q-residual norm
    is sqrt(2 f) exactly only while halving its square was exact, i.e. for
    f above the smallest normal float; below that it is evaluated again.
    """
    dim = problem.dim
    header = (["n"] + [f"x{i + 1}" for i in range(dim)]
              + ["f", "grad_norm", "theta_n", "tau_n", "res_C", "res_Q", "res_fix", "err_to_solution"])
    t_fn = problem.averaged_map(schedule.lam).plain()
    xs = problem.known_solution
    records = history.records
    rows = []
    for k, x in enumerate(history.iterates):
        if k < len(records) and records[k].theta == 0.0:
            f_x, grad_n = records[k].f_u, records[k].grad_norm_u
            res_q = math.sqrt(2.0 * f_x) if f_x > sys.float_info.min else norm(problem.residual(x))
        else:
            d = problem.residual(x)
            f_x = 0.5 * float(np.dot(d, d))
            grad_n = norm(problem.A.apply_adjoint(d))
            res_q = norm(d)
        res_c = membership_residual(problem.C, x)
        res_fix = norm(t_fn(x) - x) if problem.S is not None else 0.0
        err = float(np.max(np.abs(x - xs))) if xs is not None else float("nan")
        theta_n = records[k - 1].theta if k >= 1 else 0.0
        tau_n = records[k - 1].tau if k >= 1 else 0.0
        rows.append([k, *x.tolist(), f_x, grad_n, theta_n, tau_n, res_c, res_q, res_fix, err])
    return header, rows


def emit_csv(result: ExperimentResult, path) -> None:
    """Write the per-iterate rows: ``n`` as an integer, every other value
    with 17 significant digits."""
    row_format = ",".join(["%d"] + ["%.17g"] * (len(result.header) - 1)) + "\n"
    with open(path, "w", newline="\n") as out:
        out.write(",".join(result.header) + "\n")
        out.writelines(row_format % tuple(row) for row in result.rows)


def emit_convergence_svg(result: ExperimentResult, path) -> None:
    """Minimal vector-graphic convergence curve: log10 of the objective per iterate.

    Plot data is exactly the CSV's f column; anything fancier belongs in an
    external plotting tool.
    """
    f_col = result.header.index("f")
    values = [max(float(row[f_col]), 1e-300) for row in result.rows]
    logs = [np.log10(v) for v in values]
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
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    x_cols = [i for i, name in enumerate(header) if name.startswith("x") and name[1:].isdigit()]
    iterates = []
    for line in lines[1:]:
        parts = line.split(",")
        iterates.append(np.array([float(parts[i]) for i in x_cols]))
    return iterates


def run_experiment(raw_config: dict, out_dir=None) -> ExperimentResult:
    """Build, run, time and persist one experiment.

    On divergence or a schedule violation the partial trajectory is still
    written, the result's ``termination_reason`` is ``divergence`` or
    ``schedule_violation`` and its ``error`` holds the exception's message.
    """
    built = build_from_config(raw_config)
    t0 = time.perf_counter()
    error = None
    try:
        history = run(built.problem, built.schedule, built.stepper, built.x0, built.x1)
    except (DivergenceError, ScheduleViolation) as exc:
        history, error = exc.history, str(exc)
    wall = time.perf_counter() - t0
    header, rows = _history_rows(built.problem, built.schedule, history)
    csv_path = Path(out_dir) / built.csv_name if out_dir is not None else None
    result = ExperimentResult(history, rows, header, wall, built.fingerprint, csv_path, error)
    if csv_path is not None:
        emit_csv(result, csv_path)
    return result


# --- reference-table comparison -------------------------------------------------


@dataclass
class Table1Report:
    """Per-row deviation of a trajectory from the embedded reference table."""

    deviations: dict
    matched: dict
    rows_available: int

    @property
    def row0_exact(self) -> bool:
        return self.deviations.get(0) == 0.0

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


def table1_mode_reports(max_rows: int = 34) -> dict[str, Table1Report]:
    """Run the table-1 preset in every composition mode and compare each."""
    reports = {}
    for mode in MODES:
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": "table-1"},
            "stepper": {"mode": mode, "max_iter": max_rows - 1,
                        "grad_tol": 1e-300, "residual_tol": 1e-300},
        }
        result = run_experiment(cfg)
        reports[mode] = compare_to_table1(result.history.iterates)
    return reports


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
        rng = np.random.default_rng(seed)
        idem = nonexp = firm = -np.inf
        for _ in range(samples):
            x = 3.0 * rng.standard_normal(cset.dim)
            y = 3.0 * rng.standard_normal(cset.dim)
            px, py = cset.project(x), cset.project(y)
            idem = max(idem, norm(cset.project(px) - px))
            dproj = norm(px - py)
            nonexp = max(nonexp, dproj - norm(x - y))
            firm = max(firm, dproj**2 - float(np.dot(x - y, px - py)))
        char = check_projection_characterization(
            cset, 3.0 * np.random.default_rng(seed + 1).standard_normal(cset.dim),
            samples=samples, seed=seed + 2,
        )
        results.extend([
            SuiteResult(f"{cset.kind}: idempotence", idem, 1e-10),
            SuiteResult(f"{cset.kind}: nonexpansive", nonexp, 1e-10),
            SuiteResult(f"{cset.kind}: firmly nonexpansive", firm, 1e-10),
            SuiteResult(f"{cset.kind}: nearest-point characterization", char.max_violation, 1e-10),
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
        worst_rel = -np.inf
        for _ in range(points):
            x = 2.0 * rng.standard_normal(problem.dim)
            g = problem.grad_f(x)
            h = 1e-6 * (1.0 + norm(x))
            fd = np.empty_like(x)
            for j in range(x.size):
                e = np.zeros_like(x)
                e[j] = h
                fd[j] = (problem.f_value(x + e) - problem.f_value(x - e)) / (2.0 * h)
            worst_rel = max(worst_rel, norm(fd - g) / (1.0 + norm(g)))
        results.append(SuiteResult(f"instance {i}: finite-difference gradient (relative)", worst_rel, 1e-6))

        lip = problem.A.operator_norm(tol=1e-14, max_iter=100_000) ** 2 + 1e-8
        worst_gap = -np.inf
        for _ in range(200):
            x = 2.0 * rng.standard_normal(problem.dim)
            y = 2.0 * rng.standard_normal(problem.dim)
            worst_gap = max(worst_gap, norm(problem.grad_f(x) - problem.grad_f(y)) - lip * norm(x - y))
        results.append(SuiteResult(f"instance {i}: gradient Lipschitz monitor", worst_gap, 0.0))
    return results


def mapping_property_suite() -> list[SuiteResult]:
    """The separating-example certificates on the unit-interval grid."""
    from .mappings import (
        average,
        estimate_demicontractive_modulus,
        grid_sampler_1d,
        unit_interval_jump_map,
        verify_quasi_nonexpansive,
    )

    jump = unit_interval_jump_map()
    fixed = np.array([0.875])
    grid = grid_sampler_1d(0.0, 1.0, 1e-4)
    k_hat = estimate_demicontractive_modulus(jump, fixed, grid, samples=10001, seed=0)
    base_report = verify_quasi_nonexpansive(jump, fixed, grid, samples=10001, seed=0)
    averaged = average(jump, 0.25)
    avg_report = verify_quasi_nonexpansive(averaged, fixed, grid, samples=10001, seed=0)
    return [
        SuiteResult("jump map: demicontractive modulus |k - 2/3|", abs(k_hat - 2.0 / 3.0), 1e-3),
        SuiteResult("jump map: NOT quasi-nonexpansive (slack 1/2 expected)",
                    abs(base_report.max_slack - 0.5), 1e-12),
        SuiteResult("averaged jump map (weight 0.25): quasi-nonexpansive", avg_report.max_slack, 1e-10),
    ]


def run_property_suites(samples: int = 1000, seed: int = 0) -> tuple[bool, str]:
    """Run all suites; returns (all_passed, printable report)."""
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
