"""Compute the stored references of the benchmark's output rows.

Analytic rows are computed once at a tighter quadrature spec than the
workload uses (``ref_flags`` in workloads.py); Monte Carlo rows are stored
exactly for ``REF_SEED``.  Each command goes through ``excursion_kit.cli``,
the same entry point the benchmark times.

Run from the repository root:

    python3 perfbench/make_refs.py [--workload NAME ...]

It rewrites perfbench/refs.json, keeping entries of workloads not named.
Expect several minutes: mean_ec at N=3 with the default spec is the slowest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

from workloads import REF_SEED, REFS_PATH, SRC, WORKLOADS, command_argv, parse_csv, pin_threads

pin_threads()
sys.path.insert(0, SRC)


def reference_rows(workload: str) -> dict:
    from excursion_kit import cli

    spec = WORKLOADS[workload]
    commands = []
    for index in range(len(spec["commands"])):
        argv = command_argv(workload, index, REF_SEED, spec["ref_flags"])
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"{workload}: {' '.join(argv)} exited {rc}")
        header, rows = parse_csv(buf.getvalue())
        print(f"{workload}[{index}] {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        commands.append({"header": header, "rows": rows})
    return {"seed": REF_SEED, "ref_flags": spec["ref_flags"], "commands": commands}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    refs = {}
    if os.path.exists(REFS_PATH):
        with open(REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in args.workload or sorted(WORKLOADS):
        refs[name] = reference_rows(name)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
