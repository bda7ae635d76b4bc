#!/usr/bin/env python3
"""Run the built-in 5-variable linear-system experiment and print its trajectory.

Examples:
    python scripts/run_example_s4.py --preset cq
    python scripts/run_example_s4.py --preset fast --max-iter 500 --out results/
"""

import argparse
from pathlib import Path

import numpy as np

from sfp import bench
from sfp.solver import MODES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="cq", choices=sorted(bench.PRESETS))
    parser.add_argument("--mode", default="proof", choices=MODES)
    parser.add_argument("--max-iter", type=int, default=1000)
    parser.add_argument("--out", default="results")
    parser.add_argument("--print-rows", type=int, default=12, help="trajectory rows to print")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = {
        "problem": {"example": "s4"},
        "schedule": {"preset": args.preset},
        "stepper": {"mode": args.mode, "max_iter": args.max_iter},
        "output": {"csv": f"example_s4_{args.preset}_{args.mode}.csv"},
    }
    result = bench.run_experiment(cfg, out_dir=out)
    bench.emit_convergence_svg(result, result.csv_path.with_suffix(".svg"))

    print(f"preset={args.preset} mode={args.mode} reason={result.termination_reason} "
          f"steps={result.history.steps} final_error={result.final_error:.3e} "
          f"wall={result.wall_time:.3f}s")
    print(f"csv: {result.csv_path}")
    print(f"svg: {result.csv_path.with_suffix('.svg')}")

    print("\n   n  " + "  ".join(f"{'x' + str(i + 1):>9s}" for i in range(5)) + "        err")
    err_col = result.header.index("err_to_solution")
    for row in result.rows[: args.print_rows]:
        xs = "  ".join(f"{v:9.6f}" for v in row[1:6])
        print(f"{row[0]:4d}  {xs}  {row[err_col]:.3e}")
    if len(result.rows) > args.print_rows:
        last = result.rows[-1]
        xs = "  ".join(f"{v:9.6f}" for v in last[1:6])
        print(" ...")
        print(f"{last[0]:4d}  {xs}  {last[err_col]:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
