"""Benchmark inputs: the experiment configs of each workload, made from a seed.

A workload is a list of jobs; a job is one YAML config document that the
package runs through ``sfp run``.  The same seed always gives the same
documents, and every job is chosen so that it completes without an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The 5-variable reference problem under ``paper-s4`` needs 624,418 steps to
# reach 1e-6; a fixed budget keeps the per-step cost measurable in seconds.
S4_STEPS = 20_000

# The ``cq`` preset on a 2000x1500 box instance meets residual_tol = 1e-9
# after 415-473 steps (seeds 0, 11, 12), but the absolute gradient test
# (grad_tol = 1e-12) fires anywhere between 896 and 1353 steps (seeds 0-12).
# A budget past the first and below the second gives every seed the same
# amount of work; the final row is still checked against residual_tol.
BOX_STEPS = 600
BOX_DIMS = (2000, 1500)  # (variables, equations): A is 1500 x 2000, 24 MB

# Spectrum of the explicit fixed-step problems in ``sweep-mixed``.
SINGULAR_VALUES = (2.0, 1.5, 1.2, 1.0, 0.8, 0.6)


@dataclass(frozen=True)
class Job:
    name: str
    config: dict

    @property
    def csv_name(self) -> str:
        return self.config["output"]["csv"]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    setup_reps: int  # setup samples taken per measurement cycle
    # Power of the probe's speed factor applied to this workload's samples
    # (probe.py), chosen so its reference-second medians do not follow the
    # probe speed on the reference machine.
    speed_exponent: float
    final_residual_tol: float | None = None  # bound on the last CSV row's res_C and res_Q


def _floats(values) -> list:
    return [float(v) for v in values]


def s4_long(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    cfg = {
        "problem": {"example": "s4"},
        "schedule": {"preset": "paper-s4"},
        "stepper": {"mode": "proof", "max_iter": S4_STEPS},
        "start": {"x1": _floats(rng.uniform(0.0, 2.0, 5))},
        "output": {"csv": "s4-long.csv"},
    }
    return Workload("s4-long", (Job("s4-long", cfg),), setup_reps=40, speed_exponent=1.0)


def box_2000(seed: int) -> Workload:
    dim1, dim2 = BOX_DIMS
    cfg = {
        "problem": {"random": {"dim1": dim1, "dim2": dim2, "family": "box", "seed": seed}},
        "schedule": {"preset": "cq"},
        "stepper": {"max_iter": BOX_STEPS},
        "output": {"csv": "box-2000.csv"},
    }
    return Workload("box-2000", (Job("box-2000", cfg),), setup_reps=3, speed_exponent=0.6,
                    final_residual_tol=1e-9)


def _explicit_fixed_step(rng: np.random.Generator, rows: int, cols: int) -> dict:
    """A consistent explicit problem run for 50 steps with a fixed step of 1/||A||^2.

    ``A`` has fixed singular values between random orthogonal factors, so the
    power iteration behind ``LinearMap.operator_norm`` does about the same
    work for every seed.  The step lies inside (0, 2/||A||^2) for the exact
    spectral norm, so the package's own estimate (never larger) accepts it.
    """
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    k = min(rows, cols)
    a = u[:, :k] @ np.diag(SINGULAR_VALUES[:k]) @ v[:, :k].T
    x_hat = rng.standard_normal(cols)
    lower = x_hat - (np.abs(rng.standard_normal(cols)) + 0.1)
    upper = x_hat + (np.abs(rng.standard_normal(cols)) + 0.1)
    return {
        "problem": {
            "A": [_floats(row) for row in a],
            "C": {"kind": "box", "lower": _floats(lower), "upper": _floats(upper)},
            "Q": {"kind": "ball", "center": _floats(a @ x_hat), "radius": 0.5},
            "known_solution": _floats(x_hat),
        },
        "schedule": {"preset": "cq"},
        "stepper": {"step_rule": "fixed", "fixed_step": 1.0 / SINGULAR_VALUES[0] ** 2, "max_iter": 50},
    }


def sweep_mixed(seed: int) -> Workload:
    """Many short experiments, so per-run fixed costs outweigh the step loop."""
    rng = np.random.default_rng([seed, 3])
    cfgs = []
    x1 = _floats(rng.uniform(0.5, 1.5, 5))
    cfgs.append({"problem": {"example": "s4"}, "schedule": {"preset": "cq"}, "start": {"x1": x1}})
    for mode in ("proof", "statement", "explore"):
        cfgs.append({"problem": {"example": "s4"}, "schedule": {"preset": "table-1"},
                     "stepper": {"mode": mode, "max_iter": 60}})
    # The box instance needs 43-96 steps to converge, by seed; a budget of 40
    # keeps the mix's step count, and so its solve time, the same for every seed.
    randoms = [  # (family, dim1, dim2, include_fixed_point_map, preset, max_iter)
        ("box", 20, 15, False, "cq", 40),
        ("ball", 40, 30, False, "cq", 3000),
        ("ball", 30, 20, False, "cq", 3000),
        ("halfspace", 40, 30, False, "cq", 3000),
        ("halfspace", 20, 10, False, "cq", 3000),
        ("box", 30, 20, True, "fast", 3000),
        ("ball", 30, 20, True, "fast", 3000),
    ]
    for family, dim1, dim2, with_map, preset, max_iter in randoms:
        spec = {"dim1": dim1, "dim2": dim2, "family": family,
                "seed": int(rng.integers(0, 2**31)), "include_fixed_point_map": with_map}
        cfgs.append({"problem": {"random": spec}, "schedule": {"preset": preset},
                     "stepper": {"max_iter": max_iter}})
    cfgs.append(_explicit_fixed_step(rng, 8, 6))
    cfgs.append(_explicit_fixed_step(rng, 6, 8))
    jobs = []
    for k, cfg in enumerate(cfgs):
        name = f"sweep-{k:02d}"
        jobs.append(Job(name, {**cfg, "output": {"csv": f"{name}.csv"}}))
    return Workload("sweep-mixed", tuple(jobs), setup_reps=5, speed_exponent=1.0)


WORKLOADS = {"s4-long": s4_long, "box-2000": box_2000, "sweep-mixed": sweep_mixed}
