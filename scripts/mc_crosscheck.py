#!/usr/bin/env python3
"""Three-way check: simulated sup-probability vs quadrature vs closed form.

For each level this prints

  p_hat        discrete-max exceedance frequency (coarse and refined grid)
  mean_ec      quadrature mean Euler characteristic total
  closed_form  leading asymptotic constant

p_hat / mean_ec converges to 1 quickly (the mean EC is an excellent proxy
for the excursion probability once u is moderately large), while both
approach the closed form from above much more slowly.  Useful when judging
whether a disagreement is grid bias, MC noise, or genuine asymptotic error.

The simulated columns come from ``mc_estimates``, as in the ``mc``
command: all levels share one coarse replicate sweep, only the replicates
its curvature bound leaves undecided are evaluated on the refined grid, and
one mean-EC quadrature pass per face serves every level; ``--levels`` is
parsed as the CLI parses it.

Usage:
    python3 scripts/mc_crosscheck.py --reps 20000 --grid 64 --levels 3:6:1
"""

import argparse
import math
import sys

from excursion_kit.cli import parse_levels
from excursion_kit.field import CosineField
from excursion_kit.gauss import gauss_tail
from excursion_kit.geometry import RectDomain
from excursion_kit.mc import mc_estimates
from excursion_kit.mec import mean_euler_characteristic
from excursion_kit.quad import QuadSpec

PI = math.pi


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=20000)
    ap.add_argument("--grid", type=int, default=64)
    ap.add_argument("--levels", default="3:6:1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args(argv)

    levels = parse_levels(args.levels)

    model = CosineField()
    dom = RectDomain([0.0, 0.0], [PI, PI])
    spec = QuadSpec()
    closed = lambda u: (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(u / math.sqrt(5))

    print(
        f"cosine field on [0,pi]^2, grid {args.grid}^2 (refined {2*args.grid-1}^2), "
        f"{args.reps} replicates, seed {args.seed}"
    )
    print(
        "   u     p_hat      p_fine     +/-        mean_ec    mc_chi     "
        "p/mec    p/closed"
    )
    _, _, rows = mc_estimates(
        model, dom, levels, args.grid, args.reps, args.seed, threads=args.threads
    )
    mecs = mean_euler_characteristic(model, dom, levels, spec)
    for u, (p_hat, _, mean_chi, _, p, se), mec in zip(levels, rows, mecs):
        print(
            f"  {u:4.2f}  {p_hat:.6f}  {p:.6f}  {se:.6f}"
            f"  {mec.total:.6f}  {mean_chi:8.5f}  {p / mec.total:7.4f}"
            f"  {p / closed(u):7.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
