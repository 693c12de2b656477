"""Workload definitions shared by the runner, the worker and the reference script.

Every workload is a list of ``excursion_kit.cli`` commands run in one
process with BLAS pinned to one thread.  A command's output rows are one per
level; the runner checks each row against ``refs.json``.

This module imports nothing heavy, so the runner can pin the thread
variables before numpy is loaded anywhere.
"""

from __future__ import annotations

import csv
import io
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(HERE, "configs")
REFS_PATH = os.path.join(HERE, "refs.json")
OUT_DIR = os.path.join(HERE, "out")

# every thread-count variable a BLAS or OpenMP runtime may read
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# the seed whose Monte Carlo rows refs.json stores exactly
REF_SEED = 0

# Why each workload is here:
# - mean_ec_3d: nested cone quadrature (quad.integrate_cone and the mec cone
#   kernel) behind the slowest analytic number; field and mc are idle.  The
#   quadrature spec is coarser than the default so one run fits the budget.
# - mu_4d: the same quad/mec path the other way round -- a few 24^4-node
#   boxes with a cheap integrand, so field evaluation and the face kernel
#   dominate; also the analytic workload with the largest memory.
# - mc_grid128: the only workload that touches mc; memory-bandwidth bound,
#   two levels so sharing replicates across levels could show.
WORKLOADS = {
    "mean_ec_3d": {
        "config": "spectral3.json",
        "commands": [
            ("compute", "mean_ec", "6:6:1"),
            ("compute", "mu_approx", "3:8:1"),
            ("compute", "laplace", "3:8:1"),
        ],
        # the library's default QuadSpec: order 24 and rel_tol 1e-6
        "ref_flags": ["--quad-order", "24", "--rel-tol", "1e-6"],
    },
    "mu_4d": {
        "config": "spectral4.json",
        "commands": [
            ("compute", "mu_approx", "4:6:2"),
            ("compute", "laplace", "4:6:2"),
        ],
        "ref_flags": ["--quad-order", "28", "--rel-tol", "1e-9"],
    },
    "mc_grid128": {
        "config": "cosine2.json",
        "commands": [("mc", None, "3:4:1")],
        "ref_flags": [],
    },
}


def pin_threads(env=None) -> None:
    """Force one BLAS/OpenMP thread; call before numpy is imported."""
    env = os.environ if env is None else env
    for name in THREAD_VARS:
        env[name] = "1"


def command_argv(workload: str, index: int, seed: int, extra=()) -> list[str]:
    """CLI argument vector of one command of a workload."""
    spec = WORKLOADS[workload]
    command, method, levels = spec["commands"][index]
    argv = [
        command,
        "--config",
        os.path.join(CONFIG_DIR, spec["config"]),
        "--levels",
        levels,
        "--seed",
        str(seed),
        "--threads",
        "1",
    ]
    if method is not None:
        argv += ["--method", method]
    return argv + list(extra)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI CSV output."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]
