#!/usr/bin/env python3
"""Show how a workload's timings follow the speed probe, before and after scaling.

    python3 perfbench/fit.py --workload {s4-long,box-2000,sweep-mixed} --seed N --seconds S

Runs the same measurement cycles as ``run.py --trace 0``, then sorts each
metric's samples into thirds by the mean probe time during the sample (slow
probe = slow core).  For each third it prints the probe time, the raw median
(wall time minus the probes in it) and the median in reference seconds with
the workload's ``speed_exponent``.  It also prints the exponent that a
least-squares fit of log(raw) on log(probe time) gives.  With a good exponent
the reference-second medians of the three thirds agree while the raw ones do
not; ``slow/fast`` is the last third's median over the first's.
"""

import argparse
import shutil
import statistics
import sys

import run  # pins the BLAS thread count, so it must load before numpy

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    beta = workload.speed_exponent
    out_dir = run.WORK / f"fit-{args.workload}-{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        with SpeedProbe() as probe:
            harness = run.Harness(workload, run.Checker(None), out_dir, probe)
            harness.warm_up()
            timed = run.measure(harness, args.seconds)
            samples = {name: [probe.net_and_speed(*span) for span in spans] for name, spans in timed.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if harness.checker.failed:
        raise SystemExit(f"failed checks: {harness.checker.messages}")

    print(f"{args.workload} seed {args.seed}, speed_exponent {beta}, reference probe {REFERENCE_S * 1e6:.0f} us")
    print("| metric | n | fitted exponent | third | probe us | raw median s | reference median s |")
    print("|---|---|---|---|---|---|---|")
    for name, pairs in samples.items():
        pairs.sort(key=lambda pair: pair[1])
        net = np.array([p[0] for p in pairs])
        speed = np.array([p[1] for p in pairs])
        fitted = np.polyfit(np.log(speed), np.log(net), 1)[0]
        thirds = np.array_split(np.arange(len(pairs)), 3)
        medians = []
        for k, idx in enumerate(thirds):
            raw = statistics.median(net[idx])
            ref = statistics.median(net[idx] * (REFERENCE_S / speed[idx]) ** beta)
            medians.append((raw, ref))
            head = f"| {name} | {len(pairs)} | {fitted:.2f}" if k == 0 else "| | |"
            print(f"{head} | {k + 1} | {statistics.fmean(speed[idx]) * 1e6:.0f} | {raw:.4g} | {ref:.4g} |")
        print(f"| | | | slow/fast | | {medians[2][0] / medians[0][0]:.3f} | {medians[2][1] / medians[0][1]:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
