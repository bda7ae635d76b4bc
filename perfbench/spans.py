"""Run-time span recording around the sfp package's public functions.

``Tracer.install`` replaces the package's public functions and methods with
timing wrappers, from outside the package, and ``Tracer.uninstall`` puts the
originals back.  Functions that other modules import by name (``norm``,
``membership_residual``, ``run``, ...) are replaced under every name that
binds them, so calls through any module are seen.

Spans are not kept one by one: each is folded, when it ends, into an
aggregate keyed by (name, parent name, phase, tag).  The phase is the
nearest enclosing span among ``PHASES``, so a ``norm`` call is attributed to
the solve, to the post-run row rebuild, and so on.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter_ns

PHASES = {
    "cli.main": "cli",
    "bench.parse_config": "parse",
    "bench.build_from_config": "setup",
    "solver.run": "solve",
    "bench.run_experiment": "output",  # its direct work is the post-run row rebuild
    "bench.emit_csv": "csv",
}


TIME_UNITS = ("s", "us", "GB/s", "ratio")  # measured values; every other unit is an exact count


class _Frame:
    __slots__ = ("name", "phase", "child_ns")

    def __init__(self, name, phase):
        self.name = name
        self.phase = phase
        self.child_ns = 0


class Tracer:
    """Per-(name, parent, phase, tag) span aggregates plus run-level tallies."""

    def __init__(self):
        self.stack = [_Frame("harness", "harness")]
        # key -> [calls, total_ns, self_ns, bytes]
        self.agg = defaultdict(lambda: [0, 0, 0, 0])
        # id(set) -> (set, "C" | "Q"), filled as problems are built; holding the
        # set keeps its id from being reused by another object during the cycle
        self.roles = {}
        self.steps = 0  # solver steps taken inside spans
        self.rows = 0  # CSV rows rebuilt by run_experiment
        self._patches = []

    # --- recording -----------------------------------------------------

    def _wrap(self, name, fn, tag_of=None, after=None):
        stack = self.stack
        agg = self.agg
        phase_own = PHASES.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(name, phase_own or parent.phase)
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                parent.child_ns += dur
                tag = tag_of(args) if tag_of is not None else ""
                entry = agg[(name, parent.name, frame.phase, tag)]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame.child_ns
            if after is not None:
                entry[3] += after(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Replace ``original`` under every sfp module name bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sfp" or mod_name.startswith("sfp.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # --- hooks -----------------------------------------------------------

    @staticmethod
    def _matvec_bytes(args, result, parent):
        op, vec = args[0], args[1]
        return op.matrix.nbytes + vec.nbytes + result.nbytes

    def _set_tag(self, args):
        cset = args[0]
        role = self.roles.get(id(cset), (None, "other"))[1]
        return f"{role}:{cset.kind}"

    def _after_build(self, args, built, parent):
        self.roles[id(built.problem.C)] = (built.problem.C, "C")
        self.roles[id(built.problem.Q)] = (built.problem.Q, "Q")
        return 0

    def _after_run(self, args, history, parent):
        self.steps += history.steps
        if parent.name == "bench.run_experiment":
            self.rows += len(history.iterates)
        return 0

    @staticmethod
    def _after_csv(args, result, parent):
        return os.path.getsize(args[1])

    # --- installing ------------------------------------------------------

    def install(self, sfp_modules) -> None:
        linalg, sets, mappings, solver, bench, cli = sfp_modules
        method_targets = [
            (linalg.LinearMap, "apply", "linalg.apply", None, self._matvec_bytes),
            (linalg.LinearMap, "apply_adjoint", "linalg.apply_adjoint", None, self._matvec_bytes),
            (linalg.LinearMap, "operator_norm", "linalg.operator_norm", None, None),
            (mappings.Mapping, "__call__", "mappings.call", None, None),
            (solver.ParameterSchedule, "at", "solver.schedule_at", None, None),
        ]
        for cls in _subclasses(sets.ConvexSet):
            if "project" in cls.__dict__:
                method_targets.append((cls, "project", "sets.project", self._set_tag, None))
        for owner, attr, name, tag_of, after in method_targets:
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], tag_of, after))

        function_targets = [
            (linalg.norm, "linalg.norm", None),
            (sets.membership_residual, "sets.membership_residual", None),
            (solver.run, "solver.run", self._after_run),
            (bench.parse_config, "bench.parse_config", None),
            (bench.normalize_config, "bench.normalize_config", None),
            (bench.build_from_config, "bench.build_from_config", self._after_build),
            (bench.run_experiment, "bench.run_experiment", None),
            (bench.emit_csv, "bench.emit_csv", self._after_csv),
            (cli.main, "cli.main", None),
        ]
        for fn, name, after in function_targets:
            self._patch_everywhere(fn, self._wrap(name, fn, None, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.roles.clear()

    # --- reading ---------------------------------------------------------

    def select(self, name, phase=None, tag_prefix="", tag_suffix=""):
        """Sum [calls, total_ns, self_ns, bytes] over matching aggregates.

        Tags of ``sets.project`` read ``<role>:<kind>``, e.g. ``C:box``.
        """
        out = [0, 0, 0, 0]
        for (n, _parent, ph, tg), entry in self.agg.items():
            if n != name or (phase is not None and ph != phase):
                continue
            if not (tg.startswith(tag_prefix) and tg.endswith(tag_suffix)):
                continue
            for i in range(4):
                out[i] += entry[i]
        return out

    def dump(self) -> list:
        return [
            {"name": n, "parent": p, "phase": ph, "tag": tg,
             "calls": e[0], "total_ns": e[1], "self_ns": e[2], "bytes": e[3]}
            for (n, p, ph, tg), e in sorted(self.agg.items())
        ]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(tr: Tracer, experiment_traced_s: float, experiment_plain_s: float) -> dict:
    """The per-layer metrics of one traced cycle (setup, solve, experiment)."""
    steps = tr.steps
    rows = tr.rows

    def calls(name, **kw):
        return tr.select(name, **kw)[0]

    def self_s(name, **kw):
        return tr.select(name, **kw)[2] / 1e9

    def per(count, base):
        return count / base if base else 0.0

    apply_, adjoint = tr.select("linalg.apply"), tr.select("linalg.apply_adjoint")
    matvec_self_s = (apply_[2] + adjoint[2]) / 1e9
    matvec_bytes = apply_[3] + adjoint[3]
    builds = calls("bench.build_from_config")
    csv = tr.select("bench.emit_csv")
    m = {
        "solver.steps": (steps, "count"),
        "solver.self_us_per_step": (per(self_s("solver.run") * 1e6, steps), "us"),
        "solver.schedule_at.calls_per_step": (per(calls("solver.schedule_at", phase="solve"), steps), "calls/step"),
        "linalg.norm.calls_per_step.solve": (per(calls("linalg.norm", phase="solve"), steps), "calls/step"),
        "linalg.norm.calls_per_row.output": (per(calls("linalg.norm", phase="output"), rows), "calls/row"),
        "linalg.norm.self_s": (self_s("linalg.norm"), "s"),
        "linalg.apply.calls_per_step.solve": (per(calls("linalg.apply", phase="solve"), steps), "calls/step"),
        "linalg.apply_adjoint.calls_per_step.solve":
            (per(calls("linalg.apply_adjoint", phase="solve"), steps), "calls/step"),
        "linalg.apply.calls_per_row.output": (per(calls("linalg.apply", phase="output"), rows), "calls/row"),
        "linalg.apply_adjoint.calls_per_row.output":
            (per(calls("linalg.apply_adjoint", phase="output"), rows), "calls/row"),
        "linalg.matvec.self_s": (matvec_self_s, "s"),
        "linalg.matvec.bytes.computed": (matvec_bytes, "B"),
        "linalg.matvec.gbps.computed": (per(matvec_bytes / 1e9, matvec_self_s), "GB/s"),
        "linalg.operator_norm.calls": (calls("linalg.operator_norm"), "count"),
        "linalg.operator_norm.self_s": (self_s("linalg.operator_norm"), "s"),
        "sets.project.calls_per_step.C": (per(calls("sets.project", phase="solve", tag_prefix="C:"), steps),
                                          "calls/step"),
        "sets.project.calls_per_step.Q": (per(calls("sets.project", phase="solve", tag_prefix="Q:"), steps),
                                          "calls/step"),
        "mappings.call.calls_per_step": (per(calls("mappings.call", phase="solve"), steps), "calls/step"),
        "mappings.call.self_s": (self_s("mappings.call"), "s"),
        "bench.setup.self_s": (self_s("bench.build_from_config"), "s"),
        "bench.normalize_config.calls_per_build": (per(calls("bench.normalize_config"), builds), "calls/build"),
        "bench.parse_config.self_s": (self_s("bench.parse_config"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "bench.rows.self_s": (self_s("bench.run_experiment"), "s"),
        "bench.csv.self_s": (csv[2] / 1e9, "s"),
        "bench.csv.bytes": (csv[3], "B"),
        "bench.csv.files": (csv[0], "count"),
        "trace.overhead_ratio": (per(experiment_traced_s, experiment_plain_s), "ratio"),
    }
    for kind in ("affine_nullspace", "box", "ball", "halfspace", "singleton"):
        m[f"sets.project.self_s.{kind}"] = (self_s("sets.project", tag_suffix=f":{kind}"), "s")
    return m
