"""The benchmark tracer sees the library's work.

``perfbench/tracer.py`` wraps public functions by name and counts the
Monte Carlo grid values from the arguments of the mc estimators.  The CLI
commands must reach that work through those names, so a traced run reports
nonzero calls for every quantity it computed.  The tracer replaces module
attributes, so it runs in a subprocess of its own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import collections, contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
sys.path.insert(0, {src!r})
from tracer import Tracer

tracer = Tracer()
tracer.install()
from excursion_kit import cli

rcs = []
for request, argv in enumerate({commands!r}):
    tracer.request = request
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(cli.main(argv))
by_request = [collections.Counter() for _ in rcs]
for name, _parent, request, *_ in tracer.spans:
    by_request[request][name] += 1
print(json.dumps({{"rcs": rcs, "summary": tracer.summary(), "by_request": by_request}}))
"""


def test_traced_commands_reach_the_traced_names(tmp_path):
    cfg = tmp_path / "cosine.json"
    cfg.write_text(
        json.dumps(
            {
                "field": {"type": "cosine"},
                "domain": {"lower": [0.0, 0.0], "upper": [3.141592653589793] * 2},
                "quad": {"order_per_axis": 8, "rel_tol": 1e-4},
            }
        )
    )
    common = ["--config", str(cfg), "--threads", "1"]
    commands = [
        ["compute", "--method", "mean_ec", "--levels", "5:6:1", *common],
        ["compute", "--method", "laplace", "--levels", "5:6:1", *common],
        ["mc", "--levels", "2:3:1", "--grid", "9", "--reps", "150", *common],
    ]
    code = TRACED_RUN.format(
        perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"), commands=commands
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    spans = result["summary"]["spans"]
    for name in ("mec.mean_euler_characteristic", "mec.laplace_mec_result"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    # one orthant call per vertex of the square, for both levels at once
    assert result["by_request"][0]["gauss.mvn_prob"] == 4
    # one face integral per edge and the interior; the cone is closed form
    assert result["by_request"][0]["quad.integrate_face"] == 5
    # the tracer counts grid values from the arguments of mc_mean_ec and
    # empirical_sup_prob; the mc command calls neither, since its one coarse
    # sweep and the refinement of its undecided replicates share
    # coefficients, so the traced run shows the command and no mc count
    assert result["by_request"][2] == {"cli.main": 1, "cli.mc": 1}
    assert "mc.grid_evals" not in result["summary"]["counts"]
