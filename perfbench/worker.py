"""Run one workload's CLI commands in this fresh process and report as JSON.

Started by run.py, one process per measurement, so peak RSS belongs to one
workload.  Each repetition runs every command of the workload through
``excursion_kit.cli.main`` in-process, capturing its CSV output, its exit
code and the QuadratureWarnings it raised.  Repetitions continue while one
more brings the measured time nearer to ``--seconds``; at least one runs.

With ``--trace 1`` the package is wrapped by tracer.Tracer (exactly one
repetition) and the per-span summary is added; the spans themselves are
written to ``--spans``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
import warnings

from workloads import SRC, WORKLOADS, command_argv, pin_threads

pin_threads()
sys.path.insert(0, SRC)


def library_versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": openblas}


def run_command(cli, argv, quad_warning) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught library error fails the rows, not the run
            traceback.print_exc()
            rc = -1
    seconds = time.perf_counter() - t0
    n_warn = sum(1 for w in caught if issubclass(w.category, quad_warning))
    return {"rc": rc, "csv": buf.getvalue(), "seconds": seconds, "quad_warnings": n_warn}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="gzipped CSV path for the spans of a traced run")
    args = parser.parse_args()

    from excursion_kit import cli
    from excursion_kit.errors import QuadratureWarning

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"excursion_kit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    n_commands = len(WORKLOADS[args.workload]["commands"])
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        commands = []
        for index in range(n_commands):
            if tracer is not None:
                tracer.request = index
            argv = command_argv(args.workload, index, args.seed)
            commands.append(run_command(cli, argv, QuadratureWarning))
        wall = time.perf_counter() - t0
        reps.append({"wall_s": wall, "commands": commands})
        # stop nearest to --seconds rather than within it, so one slow
        # repetition does not cut a run to a single sample
        elapsed = time.perf_counter() - start
        if tracer is not None or elapsed + wall / 2 >= args.seconds:
            break

    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": library_versions(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
