#!/usr/bin/env python3
"""Ratio of quadrature totals to the leading closed-form constants.

For each benchmark rectangle this prints total(u) / closed_form(u) over a
range of levels.  The ratios drift toward 1 as u grows; the script is the
quickest way to eyeball the convergence rate and the residual bias at
moderate levels (u ~ 4..8), which is much larger than people expect.

mu converges more slowly than mean EC.  It adds the vertex tails and face
integrals of every face with no outward-cone weight, so a face whose peak
conditional variance sigma'^2 lies just below sigma_T^2 adds a surplus over
the constant that shrinks only like exp(-u^2 (1/(2 sigma'^2) - 1/(2 sigma_T^2))).
On [0,3pi/2]^2 the two upper edges (sigma'^2 = 4, sigma_T^2 = 5) give
exp(-u^2/40): the mu ratio there is 1.32 at u=8 and 1.014 at u=16.  Mean EC
weights those edges by the cone probability, and its vertex orthant masses
are taken as upper-tail differences, so they keep their relative accuracy
far below 1e-16: mean EC still tracks the constant at u=16 (1.0000013 on
[0,pi/2]^2).  The default levels reach u=16,
so the table covers every level that
tests/test_acceptance.py::test_03_quadrature_totals_track_reference_constants
checks (5, 8, 12, 16).

Each (method, rectangle) row is one level-vector call, and ``--levels`` is
parsed as the CLI parses it.

Usage:
    python3 scripts/closed_form_convergence.py [--levels 4:16:1] [--method both]
"""

import argparse
import math
import sys

from excursion_kit.cli import parse_levels
from excursion_kit.field import CosineField
from excursion_kit.gauss import gauss_tail
from excursion_kit.geometry import RectDomain
from excursion_kit.mec import excursion_prob_mu, mean_euler_characteristic
from excursion_kit.quad import QuadSpec

PI = math.pi
S5 = math.sqrt(5.0)

BENCHMARKS = [
    # label, domain, reference constant c(u) so that total ~ c(u) as u -> inf
    ("[0,pi/2]^2      ", RectDomain([0, 0], [PI / 2, PI / 2]),
     lambda u: gauss_tail(u / math.sqrt(3))),
    ("[0,3pi/2]x[0,pi/2]", RectDomain([0, 0], [1.5 * PI, PI / 2]),
     lambda u: math.sqrt(2) * gauss_tail(u / 2)),
    ("[0,3pi/2]^2     ", RectDomain([0, 0], [1.5 * PI, 1.5 * PI]),
     lambda u: 2 * gauss_tail(u / S5)),
    ("[0,pi]^2        ", RectDomain([0, 0], [PI, PI]),
     lambda u: (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(u / S5)),
    ("[0,3pi/2]x[0,pi]", RectDomain([0, 0], [1.5 * PI, PI]),
     lambda u: (2 + math.sqrt(2)) / 2 * gauss_tail(u / S5)),
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", default="4:16:1")
    ap.add_argument("--method", default="both", choices=["mu", "mean_ec", "both"])
    args = ap.parse_args(argv)
    levels = parse_levels(args.levels)
    spec = QuadSpec()
    model = CosineField()

    methods = []
    if args.method in ("mu", "both"):
        methods.append(("mu", excursion_prob_mu))
    if args.method in ("mean_ec", "both"):
        methods.append(("mean_ec", mean_euler_characteristic))

    for mname, fn in methods:
        print(f"\n== {mname}: total(u) / closed_form(u) ==")
        print("domain               " + "".join(f"  u={u:<6.3g}" for u in levels))
        for label, dom, ref in BENCHMARKS:
            ratios = [res.total / ref(res.u) for res in fn(model, dom, levels, spec)]
            print(label + " " + "".join(f"  {r:8.5f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
