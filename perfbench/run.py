#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sfp package.

    python3 perfbench/run.py --workload {s4-long,box-2000,sweep-mixed} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each measurement cycle times the workload's setup (``bench.build_from_config``),
a library solve (``solver.run``) and the same experiments run from YAML to
CSV through ``cli.main(["run", ...])``.  Cycles repeat until ``--seconds``
have passed.  Every timed operation is checked against the values recorded
in ``expected.json`` for the seed, or, for a seed without a record, against
the library solve and its own first repeat; an operation that fails its
check is counted in ``failed`` and never enters a timing.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of traced cycles (see
``spans.py``).  The line before it holds percentiles, sample counts, the
failure ratio and the environment.
"""

import os

# One BLAS thread for the whole process.  The summation order of a matvec, and
# so every iterate and CSV byte, depends on the thread count; one thread also
# keeps the figures clear of other load on a shared two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TRACED_CYCLES = 3
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name; answered from cpuid


def load_sfp():
    """Import the package from this checkout's ``src``; exit if it is absent."""
    init = ROOT / "src" / "sfp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no sfp sources at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import sfp
    from sfp import bench, cli, linalg, mappings, sets, solver

    if Path(sfp.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported sfp from {sfp.__file__}, not from {init.parent}")
    return linalg, sets, mappings, solver, bench, cli


LINALG, SETS, MAPPINGS, SOLVER, BENCH, CLI = load_sfp()


# --- observing and checking one job --------------------------------------------


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve_facts(history) -> dict:
    return {
        "steps": history.steps,
        "reason": history.termination_reason,
        "final_sha256": sha256_bytes(np.ascontiguousarray(history.final, dtype=float).tobytes()),
    }


def csv_facts(data: bytes) -> dict:
    """Hash, row count and the named values of the last row of an emitted CSV."""
    header, _, _ = data.partition(b"\n")
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    names = header.decode().split(",")
    values = dict(zip(names, last.decode().split(",")))
    return {
        "csv_sha256": sha256_bytes(data),
        "csv_rows": data.count(b"\n") - 1,
        "last": values,
    }


class Checker:
    """Counts checked operations and compares observations with references.

    ``refs`` maps a job name to its recorded facts.  A job without a record
    takes its first observation in this run as the reference, so repeats must
    reproduce it byte for byte.
    """

    def __init__(self, refs: dict | None):
        self.recorded = refs is not None
        self.refs = {name: dict(facts) for name, facts in (refs or {}).items()}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, job_name: str, facts: dict) -> list:
        ref = self.refs.setdefault(job_name, {})
        bad = []
        for key, value in facts.items():
            if key not in ref:
                ref[key] = value
            elif ref[key] != value:
                bad.append(f"{job_name}: {key} = {value!r}, expected {ref[key]!r}")
        return bad

    def count(self, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems)
        return not problems


def check_solve(checker: Checker, job, history) -> list:
    facts = solve_facts(history)
    bad = checker.expect(job.name, facts)
    max_iter = job.config.get("stepper", {}).get("max_iter")
    if facts["reason"] == "max_iter" and facts["steps"] != max_iter:
        bad.append(f"{job.name}: max_iter stop after {facts['steps']} steps, budget {max_iter}")
    return bad


def check_experiment(checker: Checker, job, exit_code: int, cli_line: str, csv_path: Path,
                     final_residual_tol) -> list:
    """Compare one ``sfp run`` against the record and the library solve."""
    if not csv_path.is_file():
        return [f"{job.name}: no CSV written (exit code {exit_code})"]
    data = csv_path.read_bytes()
    facts = csv_facts(data)
    fields = dict(part.split("=", 1) for part in cli_line.split() if "=" in part)
    bad = checker.expect(job.name, {"exit_code": exit_code, "csv_sha256": facts["csv_sha256"]})
    ref = checker.refs[job.name]
    reason = fields.get("reason")
    steps = int(fields["steps"]) if fields.get("steps", "").isdigit() else -1
    if reason != ref.get("reason") or steps != ref.get("steps"):
        bad.append(f"{job.name}: CLI reports reason={reason} steps={steps}, "
                   f"solve gave {ref.get('reason')} after {ref.get('steps')}")
    if exit_code != CLI.EXIT_BY_REASON.get(reason):
        bad.append(f"{job.name}: exit code {exit_code} for reason {reason}")
    if facts["csv_rows"] != steps + 1:
        bad.append(f"{job.name}: {facts['csv_rows']} CSV rows for {steps} steps")
    last = facts["last"]
    x_last = [float(v) for k, v in last.items() if k[:1] == "x" and k[1:].isdigit()]
    if "final" in ref and x_last != ref["final"]:
        bad.append(f"{job.name}: last CSV row differs from the library solve's final iterate")
    if final_residual_tol is not None:
        for col in ("res_C", "res_Q"):
            if not float(last[col]) <= final_residual_tol:
                bad.append(f"{job.name}: final {col} = {last[col]} above {final_residual_tol}")
    return bad


# --- one measurement cycle ------------------------------------------------------


class Harness:
    def __init__(self, workload, checker: Checker, out_dir: Path, probe: SpeedProbe | None = None):
        self.wl = workload
        self.checker = checker
        self.probe = probe
        self.out_dir = out_dir
        self.raws = []
        self.yaml_paths = []
        for job in workload.jobs:
            path = out_dir / f"{job.name}.yaml"
            text = yaml.safe_dump(job.config, sort_keys=True)
            path.write_text(text)
            self.yaml_paths.append(path)
            self.raws.append(BENCH.parse_config(text))
        self.built = None

    def warm_up(self) -> None:
        """First calls pay imports and lazy set-up; users pay them once per process."""
        for job in self.wl.jobs:
            cfg = {**job.config, "stepper": {**job.config.get("stepper", {}), "max_iter": 2},
                   "output": {"csv": f"warmup-{job.csv_name}"}}
            path = self.out_dir / f"warmup-{job.name}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            with contextlib.redirect_stdout(io.StringIO()):
                CLI.main(["run", str(path), "--out", str(self.out_dir)])
            (self.out_dir / f"warmup-{job.csv_name}").unlink(missing_ok=True)

    # Each timed operation returns its (start, end) on the perf_counter clock,
    # or None when its output failed a check.

    def _checked(self, span: tuple, bad: list) -> tuple | None:
        if self.probe is not None:
            bad += self.probe.concurrency()
        return span if self.checker.count(bad) else None

    def setup(self) -> tuple | None:
        self.built = None
        t0 = perf_counter()
        built = [BENCH.build_from_config(raw) for raw in self.raws]
        t1 = perf_counter()
        bad = []
        for job, b in zip(self.wl.jobs, built):
            bad += self.checker.expect(job.name, {"fingerprint": b.fingerprint})
        self.built = built
        return self._checked((t0, t1), bad)

    def solve(self) -> tuple | None:
        t0 = perf_counter()
        histories = [SOLVER.run(b.problem, b.schedule, b.stepper, b.x0, b.x1) for b in self.built]
        t1 = perf_counter()
        bad = []
        for job, h in zip(self.wl.jobs, histories):
            bad += check_solve(self.checker, job, h)
            self.checker.refs[job.name]["final"] = [float(v) for v in h.final]
        self.built = None  # the experiment builds its own problem, as a CLI user does
        return self._checked((t0, t1), bad)

    def experiment(self) -> tuple | None:
        codes = []
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            for path in self.yaml_paths:
                codes.append(CLI.main(["run", str(path), "--out", str(self.out_dir)]))
        t1 = perf_counter()
        lines = buf.getvalue().splitlines()
        bad = []
        if len(lines) != len(codes):
            bad.append(f"CLI printed {len(lines)} result lines for {len(codes)} runs")
            lines = [""] * len(codes)
        for job, code, line in zip(self.wl.jobs, codes, lines):
            csv_path = self.out_dir / job.csv_name
            bad += check_experiment(self.checker, job, code, line, csv_path, self.wl.final_residual_tol)
            csv_path.unlink(missing_ok=True)
        return self._checked((t0, t1), bad)

    def working_set(self) -> dict:
        sizes = [b.problem.A.matrix.nbytes for b in self.built]
        return {"A_bytes_max": max(sizes), "A_bytes_total": sum(sizes)}


# --- statistics and environment ------------------------------------------------


def summarize(samples: list, unit: str) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and the count."""
    out = {"median": statistics.median(samples) if samples else None, "unit": unit, "samples": len(samples)}
    for p in PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[int(round(p * 10)) - 1]
            break
    else:
        out["percentile"] = "none has 10 samples beyond it"
    return out


def blas_info() -> dict:
    """BLAS library, the core OpenBLAS picked for this CPU, and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]), "threads": "unknown"}
    # numpy wheels bundle OpenBLAS with a symbol prefix; ask the loaded copy itself
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*")):
        lib = ctypes.CDLL(lib_path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            info["threads"] = lib.scipy_openblas_get_num_threads64_()
            info["config"] = lib.scipy_openblas_get_config64_().decode()
    return info


def environment(harness: Harness) -> dict:
    try:
        l3 = os.sysconf(SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        l3 = None
    ws = harness.working_set()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "working_set": {**ws, "A_fits_l3": bool(l3) and ws["A_bytes_max"] < l3},
        "processes": 1,
    }


def load_refs(workload: str, seed: int) -> tuple[dict | None, dict | None]:
    """The recorded facts for this workload and seed, and the BLAS they were recorded with."""
    recorded = json.loads(EXPECTED.read_text())
    return recorded["workloads"][workload].get(str(seed)), recorded["blas"]


# --- main ------------------------------------------------------------------------


def measure(harness: Harness, seconds: float) -> dict:
    """Timed cycles until ``seconds`` have passed: each metric's checked (start, end) spans."""
    timed = {"setup_s": [], "solve_s": [], "experiment_s": []}
    start = perf_counter()
    while True:
        ops = [("setup_s", harness.setup)] * harness.wl.setup_reps
        ops += [("solve_s", harness.solve), ("experiment_s", harness.experiment)]
        for name, op in ops:
            span = op()
            if span is not None:
                timed[name].append(span)
        if perf_counter() - start >= seconds:
            return timed


def measure_traced(harness: Harness, probe: SpeedProbe, seconds: float) -> tuple[list, list]:
    """Alternate traced cycles with plain experiments; the plain ones give the overhead.

    At least ``MIN_TRACED_CYCLES`` run, so that counts can be compared across cycles.
    """
    per_cycle, dumps = [], []
    start = perf_counter()
    for cycle in itertools.count(1):
        tracer = spans.Tracer()
        try:
            tracer.install((LINALG, SETS, MAPPINGS, SOLVER, BENCH, CLI))
            harness.setup()
            harness.solve()
            traced = harness.experiment()
        finally:
            tracer.uninstall()
        plain = harness.experiment()
        if plain is not None and traced is not None:
            beta = harness.wl.speed_exponent
            per_cycle.append(spans.layer_metrics(tracer, probe.scaled(*traced, beta), probe.scaled(*plain, beta)))
            dumps.append(tracer.dump())
        if cycle >= MIN_TRACED_CYCLES and perf_counter() - start >= seconds:
            return per_cycle, dumps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    refs, recorded_blas = load_refs(args.workload, args.seed)
    checker = Checker(refs)
    WORK.mkdir(exist_ok=True)
    out_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    try:
        harness = Harness(workload, checker, out_dir)
        harness.warm_up()
        harness.setup()
        env = environment(harness)
        checker.attempted = checker.failed = 0
        checker.messages.clear()
        # The peak memory comes from one checked solve and CLI pass before the
        # speed probe starts: the probe's allocations interleave with the
        # workload's and move the peak by up to 7% from run to run.
        harness.solve()
        harness.experiment()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with SpeedProbe() as probe:
            harness.probe = probe
            if args.trace:
                per_cycle, dumps = measure_traced(harness, probe, args.seconds)
            else:
                timed = measure(harness, args.seconds)
                beta = workload.speed_exponent
                scaled = {name: [probe.scaled(*span, beta) for span in v] for name, v in timed.items()}
                wall = {name: [t1 - t0 for t0, t1 in v] for name, v in timed.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reference": "recorded" if checker.recorded else "first repeat and library solve",
        "environment": env,
    }
    if checker.recorded and recorded_blas.get("config") != env["blas"].get("config"):
        # the iterates depend on the BLAS kernels, so hashes may differ on another core
        detail["recorded_blas"] = recorded_blas
    metrics = {}
    if args.trace:
        detail["cycles"] = len(per_cycle)
        bad = []
        for name in (per_cycle[0] if per_cycle else {}):
            values = [cycle[name][0] for cycle in per_cycle]
            unit = per_cycle[0][name][1]
            if unit not in spans.TIME_UNITS and len(set(values)) > 1:
                bad.append(f"count {name} differs between traced cycles: {values}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        if bad:
            checker.count(bad)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "cycles": dumps}, indent=1))
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        complete = len(per_cycle) >= MIN_TRACED_CYCLES
    else:
        detail["timings"] = {name: summarize(values, "s") for name, values in scaled.items()}
        detail["wall_timings"] = {name: summarize(values, "s") for name, values in wall.items()}
        detail["probe"] = {"median_s": statistics.median(probe.durations), "count": len(probe.durations),
                           "reference_s": REFERENCE_S}
        for name, values in scaled.items():
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kib * 1024 / 1e6, "unit": "MB"}
        complete = len(metrics) == 4
    detail["failed_runs"] = {"value": checker.failed / max(checker.attempted, 1), "unit": "ratio",
                             "failed": checker.failed, "attempted": checker.attempted}
    detail["failures"] = checker.messages
    correct = complete and checker.failed == 0 and checker.attempted > 0
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": max(checker.attempted, 1),
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
