"""Command-line interface.

Exit codes for experiment commands: 0 converged (feasibility residual or the
gradient stop rule), 1 iteration budget exhausted, 2 config error or schedule
violation, 3 divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench
from .bench import ConfigError
from .solver import MODES, validate_schedule

EXIT_BY_REASON = {"residual_met": 0, "grad_zero": 0, "max_iter": 1, "schedule_violation": 2, "divergence": 3}
OUTPUT_ENV = "SFP_OUTPUT_DIR"


def _out_dir(arg) -> Path:
    path = Path(arg) if arg else Path(os.environ.get(OUTPUT_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_and_report(label: str, raw: dict, out_dir: Path, svg: bool = False) -> bench.ExperimentResult:
    """Run one experiment into ``out_dir``, print its summary line and,
    if asked, write the convergence SVG next to its CSV."""
    result = bench.run_experiment(raw, out_dir=out_dir)
    print(f"{label}: reason={result.termination_reason} steps={result.history.steps} "
          f"final_error={result.final_error:.3e} wall={result.wall_time:.3f}s "
          f"fingerprint={result.fingerprint} csv={result.csv_path}")
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
    if svg:
        svg_path = result.csv_path.with_suffix(".svg")
        bench.emit_convergence_svg(result, svg_path)
        print(f"convergence curve: {svg_path}")
    return result


def _cmd_run(args) -> int:
    raw = bench.parse_config(Path(args.config).read_text())
    result = _run_and_report(Path(args.config).name, raw, _out_dir(args.out), args.svg)
    return EXIT_BY_REASON[result.termination_reason]


def _cmd_validate_schedule(args) -> int:
    raw = bench.parse_config(Path(args.config).read_text())
    built = bench.build_from_config(raw)
    report = validate_schedule(built.schedule, args.horizon)
    print(report.text())
    return 0 if report.ok else 1


def _cmd_example_s4(args) -> int:
    modes = MODES if args.mode == "all" else [args.mode]
    code = 0
    for mode in modes:
        cfg = {
            "problem": {"example": "s4"},
            "schedule": {"preset": args.preset},
            "stepper": {"mode": mode, "max_iter": args.max_iter},
            "output": {"csv": f"example_s4_{args.preset}_{mode}.csv"},
        }
        result = _run_and_report(f"example-s4 preset={args.preset} mode={mode}", cfg,
                                 _out_dir(args.out), args.svg)
        if args.preset == "table-1":
            report = bench.compare_to_table1(result.history.iterates)
            print(report.text())
            print(f"all reference rows matched: {report.all_matched}")
        code = max(code, EXIT_BY_REASON[result.termination_reason])
    return code


def _cmd_compare_table1(args) -> int:
    iterates = bench.read_csv_iterates(args.csv)
    report = bench.compare_to_table1(iterates)
    print(report.text())
    return 0 if report.row0_exact else 1


def _cmd_props(args) -> int:
    ok, text = bench.run_property_suites(samples=args.samples, seed=args.seed)
    print(text)
    print("all property suites passed" if ok else "property suite FAILURES above")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    config_dir = Path(args.config_dir)
    paths = sorted(list(config_dir.glob("*.yaml")) + list(config_dir.glob("*.yml")))
    if not paths:
        raise ConfigError(f"no .yaml/.yml configs found in {config_dir}")
    out = _out_dir(args.out)
    worst = 0
    for path in paths:
        result = _run_and_report(path.name, bench.parse_config(path.read_text()), out)
        worst = max(worst, EXIT_BY_REASON[result.termination_reason])
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfp",
        description="Split feasibility / fixed-point solvers with a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a YAML config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUTPUT_ENV} or cwd)")
    p.add_argument("--svg", action="store_true", help="also write a convergence-curve SVG")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("validate-schedule", help="check the admissibility conditions over a horizon")
    p.add_argument("config")
    p.add_argument("--horizon", type=int, default=10_000)
    p.set_defaults(fn=_cmd_validate_schedule)

    p = sub.add_parser("example-s4", help="run the built-in 5-variable linear-system experiment")
    p.add_argument("--preset", default="paper-s4", choices=sorted(bench.PRESETS))
    p.add_argument("--mode", default="proof", choices=[*MODES, "all"])
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", action="store_true", help="also write a convergence-curve SVG")
    p.set_defaults(fn=_cmd_example_s4)

    p = sub.add_parser("compare-table1", help="compare an emitted CSV against the reference iterate table")
    p.add_argument("csv")
    p.set_defaults(fn=_cmd_compare_table1)

    p = sub.add_parser("props", help="run the projection/gradient/mapping property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("sweep", help="run every config in a directory")
    p.add_argument("config_dir")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
