"""excursion-kit benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workloads are defined in workloads.py and their reasons are given there and
in NOTES.md.  Every output row is checked against refs.json.

--trace 0 prints the end-to-end metrics: ``wall_s`` (median time of one
repetition of the workload's CLI commands, in a fresh worker process),
``setup_s`` (median over fresh interpreters, half started before the
worker and half after it, of the time to import ``excursion_kit.cli``)
and ``peak_rss_mb`` (the worker's peak resident set).

--trace 1 runs one untraced and two traced repetitions, each in a fresh
worker, and prints the per-layer metrics of the first traced one, the
tracing overhead and the number of counts that differ between the two
traced repetitions.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
with the machine description, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

from workloads import (
    HERE,
    OUT_DIR,
    REF_SEED,
    REFS_PATH,
    ROOT,
    SRC,
    THREAD_VARS,
    WORKLOADS,
    parse_csv,
    pin_threads,
)

pin_threads()

# every run must end within this many seconds
DEADLINE_S = 170.0
# import samples per run, half before the worker and half after it, so the
# median spans the whole run rather than one spell of the host
SETUP_SAMPLES = 12
# analytic rows: relative distance to the tighter-spec reference
REL_TOL = 1e-6
# Monte Carlo rows at a seed other than REF_SEED: standard errors of the
# difference from the stored estimate
MC_SIGMAS = 5.0

# (span name, [kind, ...]); kind "s" is inclusive seconds
SPAN_METRICS = [
    ("cli.main", ["calls", "self_s"]),
    ("cli.compute", ["s"]),
    ("cli.mc", ["s"]),
    ("mec.excursion_prob_mu", ["calls", "self_s"]),
    ("mec.mean_euler_characteristic", ["calls", "self_s"]),
    ("mec.laplace_mec_result", ["calls", "self_s"]),
    ("mec.prepare_laplace_inputs", ["calls", "self_s"]),
    ("mec.face_integrand", ["calls", "self_s", "nodes"]),
    ("mec.cone_integrand", ["calls", "self_s", "nodes"]),
    ("quad.integrate_face", ["calls", "self_s"]),
    ("quad.integrate_cone", ["calls", "self_s"]),
    ("gauss.hermite", ["calls", "self_s"]),
    ("gauss.mvn_prob", ["calls", "self_s"]),
    ("gauss.gauss_tail", ["calls", "self_s"]),
    ("field.variance", ["calls", "self_s", "nodes"]),
    ("field.grad_variance", ["calls", "self_s", "nodes"]),
    ("field.lambda_at", ["calls", "self_s", "nodes"]),
    ("mc.empirical_sup_prob", ["calls", "self_s"]),
    ("mc.mc_mean_ec", ["calls", "self_s"]),
]
MC_HEADER = [
    "level", "p_hat", "stderr", "mean_chi", "chi_stderr", "grid", "reps",
    "p_fine", "stderr_fine", "grid_fine", "bias_flag",
]
MC_ESTIMATES = ["p_hat", "p_fine", "mean_chi"]
MC_ERRORS = ["stderr", "stderr_fine", "chi_stderr"]
KIND_UNITS = {"calls": "count", "self_s": "s", "s": "s", "nodes": "count"}
COUNT_METRICS = [
    ("quad.boxes", "count"),
    ("mc.grid_evals", "count"),
    ("mc.gemm_flops", "flop"),
    ("mc.bytes_written", "B"),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        left = self.end - time.perf_counter()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Measurements in fresh processes
# ---------------------------------------------------------------------------

_PROBE = "import excursion_kit.cli; print('ready', flush=True)"


def setup_sample(env: dict, deadline: Deadline) -> float:
    """Seconds from starting an interpreter until excursion_kit.cli is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _PROBE],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
        line = proc.stdout.readline() if ready else b""
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"import probe failed: {err.decode(errors='replace').strip()}")
    return t1 - t0


def run_worker(args, seconds: float, trace: int, env: dict, deadline: Deadline, spans=None) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=deadline.left()
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker did not finish before the run deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _floats(cells) -> list[float] | None:
    try:
        vals = [float(c) for c in cells]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def check_analytic(row, ref_row) -> tuple[bool, float | None]:
    """Total within REL_TOL of the reference, every face within REL_TOL of
    the reference total.  Returns (passed, |total - ref| / err_est)."""
    vals, ref = _floats(row[2:]), _floats(ref_row[2:])
    if vals is None or ref is None or len(vals) != len(ref) or row[1] != ref_row[1]:
        return False, None
    total, ref_total, err_est = vals[0], ref[0], vals[-1]
    scale = REL_TOL * abs(ref_total)
    ok = all(abs(v - r) <= scale for v, r in zip(vals[:-1], ref[:-1]))
    coverage = abs(total - ref_total) / err_est if err_est > 0 else None
    return ok, coverage


def check_mc(row, ref_row, seed: int) -> bool:
    """Exact at REF_SEED; elsewhere nested-grid order and MC_SIGMAS agreement."""
    if seed == REF_SEED:
        return row == ref_row
    if len(row) != len(MC_HEADER):
        return False
    head = dict(zip(MC_HEADER, row))
    ref = dict(zip(MC_HEADER, ref_row))
    if any(head.get(k) != ref[k] for k in ("level", "grid", "reps", "grid_fine")):
        return False
    num = _floats([head[k] for k in MC_ESTIMATES + MC_ERRORS])
    ref_num = _floats([ref[k] for k in MC_ESTIMATES + MC_ERRORS])
    if num is None or ref_num is None:
        return False
    k = len(MC_ESTIMATES)
    est, se, ref_est, ref_se = num[:k], num[k:], ref_num[:k], ref_num[k:]
    p_coarse, p_fine = est[0], est[1]
    if p_coarse > p_fine:
        return False
    return all(
        abs(v - r) <= MC_SIGMAS * math.hypot(s, rs) for v, s, r, rs in zip(est, se, ref_est, ref_se)
    )


def check_rep(rep: dict, refs: dict, seed: int, tally: dict) -> None:
    """Check every row of one repetition and add to the tally."""
    for index, (cmd, ref) in enumerate(zip(rep["commands"], refs["commands"])):
        ref_rows = ref["rows"]
        tally["attempted"] += len(ref_rows)
        tally["quad_warnings"] += cmd["quad_warnings"]
        if cmd["rc"] != 0:
            tally["failed"] += len(ref_rows)
            tally["problems"].append(f"command {index} exited {cmd['rc']}")
            continue
        header, rows = parse_csv(cmd["csv"])
        by_level = {row[0]: row for row in rows} if header == ref["header"] else {}
        for ref_row in ref_rows:
            row = by_level.get(ref_row[0])
            if row is None:
                ok = False
            elif header[0:2] == ["level", "method"]:
                ok, coverage = check_analytic(row, ref_row)
                if coverage is not None:
                    tally["coverage"].append(coverage)
            else:
                ok = check_mc(row, ref_row, seed)
            if not ok:
                tally["failed"] += 1
                tally["problems"].append(f"command {index} level {ref_row[0]}: {str(row)[:200]}")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpuinfo() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                info.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return info


def environment(worker_env: dict) -> dict:
    cpu = _cpuinfo()
    llc = 0
    if hasattr(os, "sysconf") and "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu.get("model name", platform.processor() or "unknown"),
        "llc": f"{llc // 1024} KiB" if llc > 0 else cpu.get("cache size", "unknown"),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    env.update(worker_env)
    env["threads"] = {name: os.environ.get(name) for name in THREAD_VARS}
    return env


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def layer_metrics(traced: dict, tally: dict, overhead_s: float, mismatches: int) -> dict:
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]
    metrics = {}
    for name, kinds in SPAN_METRICS:
        row = spans.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "nodes": 0})
        for kind in kinds:
            value = row["incl_s"] if kind == "s" else row[kind]
            metrics[f"{name}.{kind}"] = {"value": value, "unit": KIND_UNITS[kind]}
    for name, unit in COUNT_METRICS:
        metrics[name] = {"value": counts.get(name, 0), "unit": unit}
    warned = sum(cmd["quad_warnings"] for cmd in traced["reps"][0]["commands"])
    metrics["quad.warnings"] = {"value": warned, "unit": "count"}
    metrics["mec.err_est_coverage"] = {"value": max(tally["coverage"], default=0.0), "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["trace.count_mismatches"] = {"value": mismatches, "unit": "count"}
    return metrics


def count_signature(trace: dict) -> dict:
    """Everything in a trace that must repeat exactly between runs."""
    sig = {f"{name}.{k}": row[k] for name, row in trace["spans"].items() for k in ("calls", "nodes")}
    sig.update(trace["counts"])
    return sig


def measure(args, refs: dict) -> dict:
    deadline = Deadline(DEADLINE_S)
    env = child_env()
    tally = {"attempted": 0, "failed": 0, "quad_warnings": 0, "coverage": [], "problems": []}
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace == 0:
        setup = [setup_sample(env, deadline) for _ in range(SETUP_SAMPLES // 2)]
        res = run_worker(args, args.seconds, 0, env, deadline)
        setup += [setup_sample(env, deadline) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        for rep in res["reps"]:
            check_rep(rep, refs, args.seed, tally)
        walls = [rep["wall_s"] for rep in res["reps"]]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        info.update(wall_samples=walls, setup_samples=setup, worker=res["env"])
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        plain = run_worker(args, 0.0, 0, env, deadline)
        traced = [run_worker(args, 0.0, 1, env, deadline, spans=spans_path if i == 0 else None) for i in range(2)]
        for res in [plain] + traced:
            for rep in res["reps"]:
                check_rep(rep, refs, args.seed, tally)
        first, second = (count_signature(t["trace"]) for t in traced)
        mismatches = sum(1 for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        overhead = traced[0]["reps"][0]["wall_s"] - plain["reps"][0]["wall_s"]
        metrics = layer_metrics(traced[0], tally, overhead, mismatches)
        info.update(
            untraced_wall_s=plain["reps"][0]["wall_s"],
            traced_wall_s=[t["reps"][0]["wall_s"] for t in traced],
            spans_file=os.path.relpath(spans_path, ROOT),
            worker=plain["env"],
        )
    info.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        fail_frac=tally["failed"] / max(tally["attempted"], 1),
        err_est_coverage=max(tally["coverage"], default=None),
        quad_warnings=tally["quad_warnings"],
        problems=tally["problems"][:20],
        metrics=metrics,
    )
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description="excursion-kit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "excursion_kit", "cli.py")):
        print(f"error: no excursion_kit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(REFS_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)[args.workload]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no references for {args.workload}: {exc}", file=sys.stderr)
        return 2

    try:
        info = measure(args, refs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    info["env"] = environment(info.pop("worker"))

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
        fh.write("\n")

    env = info["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} llc={env['llc']} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} openblas={env['openblas']}"
    )
    for name, m in info["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {info['fail_frac']:.6g} ({info['failed']}/{info['attempted']} rows failed)")
    print(f"quad_warnings = {info['quad_warnings']} (all repetitions)")
    print(f"err_est_coverage = {info['err_est_coverage']} (max |total - ref| / err_est)")
    for problem in info["problems"]:
        print(f"  failed: {problem}")
    print(f"results: {os.path.relpath(out_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": info["failed"] == 0,
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": info["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
