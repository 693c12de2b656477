"""Command-line front end.

Subcommands:

* ``faces``    — list the faces of the configured rectangle (one per line).
* ``compute``  — analytic excursion quantities over a level grid, CSV out.
* ``mc``       — Monte Carlo sup-probabilities and mean Euler counts, CSV out.
* ``validate`` — check the configured field and domain, pass/fail per suite:
  derivative_consistency, h2_scan and condition_check.

Configuration lives in a JSON file (see ``load_config``); command-line flags
override file values.  Exit codes: 0 success, 2 configuration error,
3 capability error, 4 numeric error, 5 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    ExcursionError,
    NumericError,
    config_number,
    finite_levels,
)
from .field import FieldModel, check_h2, derivative_consistency, field_from_dict
from .geometry import DomainError, Face, RectDomain, enumerate_faces, face_label, outward_cone
from .mec import (
    condition_check,
    excursion_prob_mu,
    laplace_mec_result,
    mean_euler_characteristic,
)
from .quad import QuadSpec
from . import mc as mc_mod

__all__ = ["RunConfig", "load_config", "main", "parse_levels"]

METHODS = ("mu_approx", "mean_ec", "laplace")

_CONFIG_KEYS = {
    "field",
    "domain",
    "levels",
    "method",
    "quad",
    "mc",
    "seed",
    "threads",
    "out",
    "report",
}
_QUAD_KEYS = {"order_per_axis": int, "rel_tol": float}
_MC_KEYS = {"grid", "reps"}
# a level grid longer than this is a mistyped step, not a run
MAX_LEVELS = 10_000


@dataclass(frozen=True)
class RunConfig:
    model: FieldModel
    domain: RectDomain
    levels: tuple[float, ...]
    method: str | None
    quad: QuadSpec
    mc_grid: Any
    mc_reps: int
    seed: int
    threads: int
    out: str | None
    report: str | None


def _levels_from_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError("level range must be finite")
    if step <= 0:
        raise ConfigError("level step must be positive")
    if stop < start:
        raise ConfigError("level range must be increasing")
    out = []
    for k in range(MAX_LEVELS + 1):
        v = start + k * step
        if v > stop + 1e-9 * max(1.0, step):
            return tuple(out)
        out.append(v)
    raise ConfigError(f"level range gives more than {MAX_LEVELS} levels")


def parse_levels(text: str) -> tuple[float, ...]:
    """Levels of a START:STOP:STEP range, each START + k STEP, as --levels
    reads them; ConfigError unless the range is finite and increasing with
    a positive step and gives at most MAX_LEVELS levels."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--levels expects START:STOP:STEP, got {text!r}")
    try:
        a, b, s = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--levels expects numbers, got {text!r}") from exc
    return _levels_from_range(a, b, s)


def _levels_from_config(spec) -> tuple[float, ...]:
    if isinstance(spec, list):
        levels = finite_levels(config_number(float, v, "level") for v in spec)
        if not 0 < len(levels) <= MAX_LEVELS:
            raise ConfigError(f"levels list must have 1 to {MAX_LEVELS} entries")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        return levels
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "step"}
        if extra:
            raise ConfigError(f"unexpected level keys: {sorted(extra)}")
        try:
            return _levels_from_range(
                *(config_number(float, spec[k], f"level {k}") for k in ("start", "stop", "step"))
            )
        except KeyError as exc:
            raise ConfigError("level range needs start, stop, step") from exc
    raise ConfigError("levels must be a list or a start/stop/step object")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    extra = set(data) - _CONFIG_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    return data


def build_config(data: dict, args: argparse.Namespace) -> RunConfig:
    """Merge file values with flag overrides (flags win)."""
    if "field" not in data:
        raise ConfigError("config needs a 'field' spec")
    model = field_from_dict(data["field"])

    dom = data.get("domain")
    ends = [dom.get(k) for k in ("lower", "upper")] if isinstance(dom, dict) else [None]
    if not all(isinstance(e, list) for e in ends):
        raise ConfigError("config needs a 'domain' with lower/upper lists")
    try:
        domain = RectDomain(*([config_number(float, x, "domain endpoint") for x in e] for e in ends))
    except DomainError as exc:
        # it already names the axis
        raise ConfigError(str(exc)) from exc
    if domain.dim != model.dim:
        raise ConfigError(
            f"domain dimension {domain.dim} does not match field dimension {model.dim}"
        )

    if getattr(args, "levels", None) is not None:
        levels = parse_levels(args.levels)
    elif "levels" in data:
        levels = _levels_from_config(data["levels"])
    else:
        levels = ()

    method = getattr(args, "method", None) or data.get("method")
    if method is not None and method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")

    quad_cfg = data.get("quad", {})
    if not isinstance(quad_cfg, dict):
        raise ConfigError("'quad' must be an object")
    extra = set(quad_cfg) - _QUAD_KEYS.keys()
    if extra:
        raise ConfigError(f"unknown quad keys: {sorted(extra)}")
    try:
        quad = QuadSpec(
            **{k: config_number(_QUAD_KEYS[k], v, f"quad {k}") for k, v in quad_cfg.items()}
        )
        if getattr(args, "quad_order", None) is not None:
            quad = dataclasses.replace(quad, order_per_axis=int(args.quad_order))
        if getattr(args, "rel_tol", None) is not None:
            quad = dataclasses.replace(quad, rel_tol=float(args.rel_tol))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad quadrature settings: {exc}") from exc

    mc_cfg = data.get("mc", {})
    if not isinstance(mc_cfg, dict):
        raise ConfigError("'mc' must be an object")
    extra = set(mc_cfg) - _MC_KEYS
    if extra:
        raise ConfigError(f"unknown mc keys: {sorted(extra)}")
    grid = mc_cfg.get("grid", 64)
    if isinstance(grid, list):
        # one grid size per axis
        grid = tuple(config_number(int, p, "mc grid") for p in grid)
    else:
        grid = config_number(int, grid, "mc grid")
    reps = config_number(int, mc_cfg.get("reps", 10_000), "mc reps")
    if getattr(args, "grid", None) is not None:
        grid = int(args.grid)
    if getattr(args, "reps", None) is not None:
        reps = int(args.reps)

    seed = data.get("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    seed = config_number(int, seed, "seed")
    if not (0 <= seed < 2**64):
        raise ConfigError("seed must fit in an unsigned 64-bit integer")

    if getattr(args, "threads", None) is not None:
        threads = int(args.threads)
    else:
        threads = config_number(int, data.get("threads", 1), "threads")
    if threads < 1:
        raise ConfigError("threads must be >= 1")

    out = getattr(args, "out", None) or data.get("out")
    report = data.get("report")
    for key, path in (("out", out), ("report", report)):
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"{key} must be a path string, got {path!r}")
        if path:
            # fail before the run, not after it; appending truncates nothing,
            # and a file made here is removed again
            existed = os.path.lexists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from exc
            if not existed:
                os.remove(path)
    return RunConfig(
        model=model,
        domain=domain,
        levels=levels,
        method=method,
        quad=quad,
        mc_grid=grid,
        mc_reps=reps,
        seed=seed,
        threads=threads,
        out=out,
        report=report,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: comma separated, CRLF line endings
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _maybe_report(cfg: RunConfig, command: str, header: list[str], rows: list[list]) -> None:
    if not cfg.report:
        return
    payload = {
        "command": command,
        "header": header,
        "rows": [[_fmt(v) for v in row] for row in rows],
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg.report)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cone_text(face: Face) -> str:
    cone = outward_cone(face)
    parts = [f"d{j + 1}{'>=' if s > 0 else '<='}0" for j, s in cone.constraints]
    return "{" + ",".join(parts) + "}"


def cmd_faces(cfg: RunConfig) -> int:
    lines = []
    for face in enumerate_faces(cfg.domain):
        sigma = "{" + ",".join(str(j + 1) for j in face.sigma) + "}"
        eps = "{" + ",".join(f"{j + 1}:{'upper' if b else 'lower'}" for j, b in face.epsilon) + "}"
        lines.append(f"{face_label(face)}  sigma={sigma}  eps={eps}  cone={_cone_text(face)}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_compute(cfg: RunConfig) -> int:
    if not cfg.levels:
        raise ConfigError("compute needs levels (config 'levels' or --levels A:B:S)")
    if cfg.method is None:
        raise ConfigError("compute needs a method (mu_approx, mean_ec, or laplace)")

    faces = enumerate_faces(cfg.domain)
    labels = [face_label(f) for f in faces]
    header = ["level", "method", "total", *labels, "err_est"]
    rows: list[list] = []

    if cfg.method == "mu_approx":
        results = excursion_prob_mu(cfg.model, cfg.domain, cfg.levels, cfg.quad)
    elif cfg.method == "mean_ec":
        results = mean_euler_characteristic(cfg.model, cfg.domain, cfg.levels, cfg.quad)
    else:
        results = laplace_mec_result(cfg.model, cfg.domain, cfg.levels, cfg.seed)

    for u, res in zip(cfg.levels, results):
        ledger = res.by_label()
        rows.append([u, cfg.method, res.total, *(ledger[l] for l in labels), res.err_est])

    _emit(_csv_text(header, rows), cfg.out)
    _maybe_report(cfg, "compute", header, rows)
    return 0


def cmd_mc(cfg: RunConfig) -> int:
    if not cfg.levels:
        raise ConfigError("mc needs levels (config 'levels' or --levels A:B:S)")
    header = [
        "level",
        "p_hat",
        "stderr",
        "mean_chi",
        "chi_stderr",
        "grid",
        "reps",
        "p_fine",
        "stderr_fine",
        "grid_fine",
        "bias_flag",
    ]
    grid, fine, estimates = mc_mod.mc_estimates(
        cfg.model, cfg.domain, cfg.levels, cfg.mc_grid, cfg.mc_reps, cfg.seed, threads=cfg.threads
    )
    # p_fine can only grow; the flag marks a gap beyond MC error
    rows = [
        [
            u,
            p,
            se,
            mean_chi,
            chi_se,
            "x".join(map(str, grid.points_per_axis)),
            cfg.mc_reps,
            p_fine,
            se_fine,
            "x".join(map(str, fine.points_per_axis)),
            abs(p_fine - p) > max(math.hypot(se, se_fine), 1e-12),
        ]
        for u, (p, se, mean_chi, chi_se, p_fine, se_fine) in zip(cfg.levels, estimates)
    ]
    _emit(_csv_text(header, rows), cfg.out)
    _maybe_report(cfg, "mc", header, rows)
    return 0


# ---------------------------------------------------------------------------
# Validation suites
# ---------------------------------------------------------------------------


def _check_derivatives(model: FieldModel, domain: RectDomain) -> tuple[bool, str]:
    rep = derivative_consistency(model, domain)
    return rep.passed, (
        f"grad err {rep.max_grad_err:.3e}, hess err {rep.max_hess_err:.3e},"
        f" third err {rep.max_third_err:.3e}, kernel err {rep.max_kernel_err:.3e}"
        f" (rtol {rep.rtol:.0e})"
    )

def _check_h2(model: FieldModel, domain: RectDomain) -> tuple[bool, str]:
    rep = check_h2(model, domain)
    return not rep.flagged, (
        f"min eig(Lambda - Lambda(t)) over grid = {rep.min_eig:.3e}"
        f" at t={np.array2string(rep.argmin, precision=4)} (tol {rep.tol:.0e})"
    )

def _check_condition(model: FieldModel, domain: RectDomain) -> tuple[bool, str]:
    rep = condition_check(model, domain)
    if rep.satisfied:
        return True, f"no flat fixed directions near sigma_T^2 = {rep.sigma_sq:.6g}"
    face, point, grads = rep.violations[0]
    pt = "(" + ", ".join(f"{x:.6g}" for x in point) + ")"
    gr = "(" + ", ".join(f"{x:.3g}" for x in grads) + ")"
    return False, (
        f"flat fixed direction at t={pt} on face {face_label(face)}"
        f" (fixed-direction derivatives {gr})"
    )


def cmd_validate(cfg: RunConfig) -> int:
    checks = [
        ("derivative_consistency", lambda: _check_derivatives(cfg.model, cfg.domain)),
        ("h2_scan", lambda: _check_h2(cfg.model, cfg.domain)),
        ("condition_check", lambda: _check_condition(cfg.model, cfg.domain)),
    ]
    lines = []
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except ExcursionError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"{'all checks passed' if all_ok else 'VALIDATION FAILED'}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if all_ok else 5


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# the half-rectangle keeps the variance maximizer regular (corner with
# strictly positive one-sided derivatives), so every suite can pass
DEFAULT_VALIDATE_CONFIG = {
    "field": {"type": "cosine"},
    "domain": {"lower": [0.0, 0.0], "upper": [math.pi / 2, math.pi / 2]},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excursion-kit",
        description="Excursion probabilities and Euler characteristics of "
        "smooth Gaussian fields with stationary increments on rectangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "levels": dict(metavar="A:B:S", help="level grid start:stop:step"),
        "method": dict(choices=METHODS, help="computation method"),
        "seed": dict(
            type=int,
            metavar="N",
            help="master seed (default 0): keys the mc replicates, and the laplace QMC "
            "of Gaussian orthants of dimension 5 and more; mu_approx and mean_ec ignore it",
        ),
        "threads": dict(
            type=int, metavar="N", help="worker threads of the mc sweep; compute ignores it"
        ),
        "out": dict(metavar="PATH", help="output file (default stdout)"),
        "grid": dict(type=int, metavar="N", help="MC grid points per axis"),
        "reps": dict(type=int, metavar="N", help="MC replicates"),
        "quad-order": dict(type=int, metavar="N", help="quadrature order per axis"),
        "rel-tol": dict(type=float, metavar="X", help="quadrature relative tolerance"),
    }
    # each subcommand takes only the flags its command reads, but compute
    # still accepts --threads, which perfbench/workloads.py passes it
    for name, reads, help_text in (
        ("faces", "out", "list the faces of the configured rectangle"),
        ("compute", "levels method seed threads out quad-order rel-tol",
         "analytic excursion quantities over a level grid (CSV)"),
        ("mc", "levels seed threads out grid reps",
         "Monte Carlo sup-probability and mean Euler characteristic (CSV)"),
        ("validate", "out", "run the built-in invariant suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        for flag in reads.split():
            p.add_argument("--" + flag, **flags[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is None:
            if args.command != "validate":
                raise ConfigError("--config is required")
            data = dict(DEFAULT_VALIDATE_CONFIG)
        else:
            data = load_config(args.config)
        cfg = build_config(data, args)
        if args.command == "faces":
            return cmd_faces(cfg)
        if args.command == "compute":
            return cmd_compute(cfg)
        if args.command == "mc":
            return cmd_mc(cfg)
        return cmd_validate(cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
