#!/usr/bin/env python3
"""Design and simulate the bundled benchmark at three convergence speeds.

For each pole set the script synthesizes gains, simulates the nonlinear
closed loop, and writes a trajectory CSV plus a gnuplot script with the
error/input panels.  A fourth run with the chain input forced to zero records
the raw linearization effort for comparison.

Usage:
    python scripts/run_benchmark.py [--outdir out]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from nosreg import (PoleSet, SimConfig, benchmark_plant, simulate_nonlinear,
                    synthesize, write_csv)
from nosreg.acceptance import (POLES_FAST, POLES_MEDIUM, POLES_SLOW,
                               reference_exosystem)
from nosreg.cli import gnuplot_script
from nosreg.plants import REFERENCE_X0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", help="output directory")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    plant = benchmark_plant()
    exo = reference_exosystem()
    xi0 = plant.normal_map(REFERENCE_X0)
    cfg = SimConfig(step=1e-3, horizon=40.0, record_stride=10)

    runs = [("slow", PoleSet(POLES_SLOW)),
            ("medium", PoleSet(POLES_MEDIUM)),
            ("fast", PoleSet(POLES_FAST))]

    print(f"{'design':<8} {'p-value':>9} {'max|u|':>10} {'|e| @ t=2':>10} "
          f"{'|e| @ end':>10} {'overshoot':>10}")
    for name, poles in runs:
        gains = synthesize(plant.degrees, exo, xi0, [poles])
        t0 = time.perf_counter()
        traj, report = simulate_nonlinear(plant, exo, gains, REFERENCE_X0, cfg)
        elapsed = time.perf_counter() - t0

        csv_path = outdir / f"benchmark_{name}.csv"
        plot_path = outdir / f"benchmark_{name}.gp"
        columns = write_csv(traj, csv_path)
        plot_path.write_text(gnuplot_script(csv_path, plot_path, columns))

        at2 = int(np.argmin(np.abs(traj.times - 2.0)))
        print(f"{name:<8} {gains.subsystems[0].cert.p_value:>9.4f} "
              f"{np.max(np.abs(traj.u)):>10.1f} {abs(traj.e[at2, 0]):>10.2e} "
              f"{abs(traj.e[-1, 0]):>10.2e} {str(report.any_overshoot):>10} "
              f"  ({elapsed:.2f} s)")

    # open loop: v = 0 exposes the pure cancellation input
    traj0, _ = simulate_nonlinear(plant, exo, None, REFERENCE_X0,
                                  SimConfig(step=1e-3, horizon=5.0))
    csv_path = outdir / "benchmark_openloop.csv"
    columns = write_csv(traj0, csv_path)
    (outdir / "benchmark_openloop.gp").write_text(
        gnuplot_script(csv_path, outdir / "benchmark_openloop.gp", columns))
    print(f"open-loop linearization effort over [0, 5]: max|u| = "
          f"{np.max(np.abs(traj0.u)):.1f}")
    print(f"outputs in {outdir}/ (render plots with: gnuplot {outdir}/*.gp)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
