import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from excursion_kit import cli, mec
from excursion_kit.errors import ConfigError
from excursion_kit.field import CosineField
from excursion_kit.gauss import gauss_tail

PI = math.pi
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "field": {"type": "cosine"},
        "domain": {"lower": [0.0, 0.0], "upper": [PI, PI]},
        "levels": {"start": 5.0, "stop": 9.0, "step": 1.0},
        "method": "mu_approx",
        "mc": {"grid": 17, "reps": 120},
        "seed": 0,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------


def test_faces_lists_every_face(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run(capsys, ["faces", "--config", cfg])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert any("sigma={1,2}" in ln and "eps={}" in ln for ln in lines)
    assert sum("sigma={}" in ln for ln in lines) == 4  # vertices


def test_faces_three_dimensional(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        field={
            "type": "spectral_sum",
            "atoms": [
                {"freq": [1, 0, 0], "weight": 0.5},
                {"freq": [0, 1, 0], "weight": 0.5},
                {"freq": [0, 0, 1], "weight": 0.5},
            ],
            "offset_var": 1.0,
        },
        domain={"lower": [0, 0, 0], "upper": [PI, PI, PI]},
    )
    code, out = run(capsys, ["faces", "--config", cfg])
    assert code == 0
    assert len(out.strip().splitlines()) == 27


def test_bad_domain_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, domain={"lower": [0.0, 1.0], "upper": [1.0, 1.0]})
    code, out = run(capsys, ["faces", "--config", cfg])
    assert code == 2


@pytest.mark.parametrize(
    "overrides, flags",
    [
        ({"quad": {"order_per_axis": 1}}, []),
        ({"quad": {"rel_tol": 0}}, []),
        ({}, ["--quad-order", "1"]),
        ({}, ["--rel-tol", "-1"]),
        ({"threads": "two"}, []),
        ({"seed": "x"}, []),
        ({"levels": ["a"]}, []),
        ({"mc": {"reps": "many"}}, []),
        ({"quad": {"adaptive": "false"}}, []),
        ({"mc": {"grid": "x"}}, []),
        ({"seed": 2.7}, []),
        ({"mc": {"reps": 100.9}}, []),
        ({"threads": True}, []),
        ({"quad": {"rel_tol": math.inf}}, []),
        ({"quad": {"abs_tol": math.nan}}, []),
        ({}, ["--rel-tol", "inf"]),
        ({}, ["--rel-tol", "nan"]),
        ({"levels": [math.nan]}, []),
        ({"levels": [2.0, math.inf]}, []),
        ({"quad": {"max_subdivisions": 3}}, []),
        ({"domain": {"lower": "00", "upper": "33"}}, []),
        ({"domain": {"lower": [True, 0.0], "upper": [PI, PI]}}, []),
        ({"field": {"type": "gaussian_increment", "dim": 2.5}}, []),
        ({"out": 7}, []),
        ({"report": 1}, []),
        # JSON strings that spell numbers are not numbers
        ({"seed": "3"}, []),
        ({"threads": "2"}, []),
        ({"levels": ["5"]}, []),
        ({"levels": {"start": "5", "stop": 9.0, "step": 1.0}}, []),
        ({"domain": {"lower": ["0", "0"], "upper": ["3", "3"]}}, []),
        ({"field": {"type": "spectral_sum", "atoms": [{"freq": ["1", "0"], "weight": 0.5}]}}, []),
        ({"field": {"type": "spectral_sum", "atoms": [{"freq": [1.0, 0.0], "weight": "0.5"}]}}, []),
        ({"field": {"type": "gaussian_increment", "dim": "2"}}, []),
        ({"mc": {"reps": "200"}}, []),
        ({"mc": {"grid": "9"}}, []),
        ({"mc": {"grid": ["9", 9]}}, []),
        ({"quad": {"order_per_axis": "8"}}, []),
    ],
)
def test_malformed_values_are_config_errors(tmp_path, capsys, overrides, flags):
    # every command checks the whole file; the quadrature flags belong to compute
    cfg = write_config(tmp_path, **overrides)
    code = cli.main(["compute" if flags else "faces", "--config", cfg, *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["out", "report", "--out"])
def test_unwritable_output_path_is_config_error(tmp_path, capsys, monkeypatch, key):
    # found before the run: no face term is computed
    monkeypatch.setattr(mec, "_face_sum", lambda *a: pytest.fail("mec._face_sum called"))
    path = str(tmp_path / "missing" / "x")
    cfg = write_config(tmp_path, **({} if key == "--out" else {key: path}))
    flags = [key, path] if key == "--out" else []
    assert cli.main(["compute", "--config", cfg, "--levels", "5:5:1", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_threads_environment_variable_is_not_read(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("EXK_THREADS", "0")
    assert cli.main(["faces", "--config", cfg]) == 0


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_schema_and_decay(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run(capsys, ["compute", "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:3] == ["level", "method", "total"]
    assert header[-1] == "err_est"
    assert len(header) == 3 + 9 + 1
    assert len(rows) == 5  # levels 5..9 inclusive
    totals = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert [r[1] for r in rows] == ["mu_approx"] * 5
    # the ledger columns sum back to the total
    for r in rows:
        assert math.fsum(float(x) for x in r[3:-1]) == pytest.approx(
            float(r[2]), rel=1e-12
        )


def test_compute_laplace_matches_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, method="laplace", levels=[8.0])
    code, out = run(capsys, ["compute", "--config", cfg])
    assert code == 0
    _, rows = parse_csv(out)
    want = (3 + 2 * math.sqrt(2)) / 4 * gauss_tail(8.0 / math.sqrt(5))
    assert float(rows[0][2]) == pytest.approx(want, rel=1e-12)


def test_compute_interior_column_agrees_across_methods(tmp_path, capsys):
    # the top-dimensional face has no outward constraints, so the mean-EC
    # and mu integrands coincide there; the ledger columns must match
    dom = {"lower": [2.0, 2.0], "upper": [4.0, 4.0]}
    a = write_config(tmp_path, name="a.json", domain=dom, method="mean_ec", levels=[8.0])
    b = write_config(tmp_path, name="b.json", domain=dom, method="mu_approx", levels=[8.0])
    _, out_a = run(capsys, ["compute", "--config", a])
    _, out_b = run(capsys, ["compute", "--config", b])
    header, rows_a = parse_csv(out_a)
    _, rows_b = parse_csv(out_b)
    col = header.index("2|{1,2}|{}")
    assert float(rows_a[0][col]) == pytest.approx(float(rows_b[0][col]), rel=1e-6)


@pytest.mark.parametrize("method", ["mu_approx", "mean_ec"])
def test_level_grid_rows_equal_single_level_runs(tmp_path, capsys, method):
    # one quadrature pass serves the whole grid; every row must read as if
    # its level had been computed alone
    cfg = write_config(tmp_path, method=method)
    flags = ["compute", "--config", cfg, "--threads", "2"]
    code, out = run(capsys, [*flags, "--levels", "2:14:1"])
    assert code == 0
    header, *rows = out.splitlines(keepends=True)
    assert len(rows) == 13
    for u, row in zip(range(2, 15), rows):
        code, single = run(capsys, [*flags, "--levels", f"{u}:{u}:1"])
        assert code == 0
        assert single.splitlines(keepends=True) == [header, row], u


@pytest.mark.parametrize("method", ["mu_approx", "mean_ec", "laplace"])
def test_compute_starts_no_thread(tmp_path, capsys, monkeypatch, method):
    # compute sums its faces in the calling thread and accepts --threads
    # without reading it
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("thread started"))
    cfg = write_config(tmp_path, method=method)
    code, out = run(capsys, ["compute", "--config", cfg, "--levels", "5:6:1", "--threads", "2"])
    assert code == 0
    assert len(parse_csv(out)[1]) == 2


def test_compute_rejects_mc_method(tmp_path, capsys):
    cfg = write_config(tmp_path, method="mc")
    code, _ = run(capsys, ["compute", "--config", cfg])
    assert code == 2


def test_levels_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run(capsys, ["compute", "--config", cfg, "--levels", "6:8:1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [6.0, 7.0, 8.0]


def test_level_count_is_capped(tmp_path, capsys, monkeypatch):
    # a tiny step is refused before any level is computed
    monkeypatch.setattr(mec, "_face_sum", lambda *a: pytest.fail("mec._face_sum called"))
    with pytest.raises(ConfigError):
        cli.parse_levels("0:1:1e-7")
    assert len(cli.parse_levels(f"1:{cli.MAX_LEVELS}:1")) == cli.MAX_LEVELS
    for levels in (
        {"start": 0.0, "stop": 1.0, "step": 1e-12},
        [float(k) for k in range(cli.MAX_LEVELS + 1)],
    ):
        cfg = write_config(tmp_path, levels=levels)
        assert cli.main(["compute", "--config", cfg]) == 2
        assert "levels" in capsys.readouterr().err


def test_levels_flag_parse_errors(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for bad in ["abc", "1:2", "2:1:1", "1:2:-1", "1:2:0"]:
        code, _ = run(capsys, ["compute", "--config", cfg, "--levels", bad])
        assert code == 2, bad


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sigma=3.0)
    code, _ = run(capsys, ["compute", "--config", cfg])
    assert code == 2


def test_missing_config_file(capsys):
    code, _ = run(capsys, ["compute", "--config", "/nonexistent/nope.json"])
    assert code == 2


def test_compute_out_file_and_report(tmp_path, capsys):
    out_path = tmp_path / "res.csv"
    report_path = tmp_path / "res.report.json"
    cfg = write_config(
        tmp_path, out=str(out_path), report=str(report_path), levels=[7.0]
    )
    code, printed = run(capsys, ["compute", "--config", cfg])
    assert code == 0
    assert printed == ""
    text = out_path.read_bytes().decode("utf-8")
    assert "\r\n" in text  # RFC 4180 line endings
    header, rows = parse_csv(text)
    rep = json.loads(report_path.read_text())
    assert rep["command"] == "compute"
    assert rep["header"] == header
    assert rep["rows"][0][2] == rows[0][2]  # same %.17g strings both places


def test_floats_round_trip_exactly(tmp_path, capsys):
    from excursion_kit.field import CosineField
    from excursion_kit.geometry import RectDomain
    from excursion_kit.mec import excursion_prob_mu
    from excursion_kit.quad import QuadSpec

    cfg = write_config(tmp_path, levels=[7.0])
    _, out = run(capsys, ["compute", "--config", cfg])
    _, rows = parse_csv(out)
    [lib] = excursion_prob_mu(CosineField(), RectDomain([0, 0], [PI, PI]), [7.0], QuadSpec())
    assert float(rows[0][2]) == lib.total  # %.17g loses nothing


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_schema_and_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0], mc={"grid": 9, "reps": 100})
    code, out = run(capsys, ["mc", "--config", cfg])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
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
    row = rows[0]
    p = float(row[1])
    assert float(row[2]) == pytest.approx(math.sqrt(p * (1 - p) / 100), abs=1e-15)
    assert row[5] == "9x9"
    assert row[9] == "17x17"
    assert row[6] == "100"
    p_fine = float(row[7])
    assert p_fine >= p  # refinement only adds mass
    # the flag marks a gap beyond the combined MC error
    flagged = abs(p_fine - p) > max(math.hypot(float(row[2]), float(row[8])), 1e-12)
    assert row[10] == ("1" if flagged else "0")


def test_mc_bias_flag_marks_a_refinement_gap(tmp_path, capsys):
    # a 2x2 grid sees only the corners; its 3x3 refinement adds the centre
    # and edge midpoints, and finds clearly more maxima above each level
    cfg = write_config(tmp_path, levels=[1.0, 2.0, 3.0], mc={"grid": 2, "reps": 400})
    code, out = run(capsys, ["mc", "--config", cfg])
    assert code == 0
    for row in parse_csv(out)[1]:
        p, se, p_fine, se_fine = (float(row[i]) for i in (1, 2, 7, 8))
        assert p_fine - p > math.hypot(se, se_fine)
        assert row[10] == "1"


def test_mc_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0, 2.5], mc={"grid": 9, "reps": 150})
    _, first = run(capsys, ["mc", "--config", cfg])
    _, second = run(capsys, ["mc", "--config", cfg])
    assert first == second


def test_mc_threads_flag_and_serial_agree(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0], mc={"grid": 9, "reps": 600})
    _, flagged = run(capsys, ["mc", "--config", cfg, "--threads", "4"])
    _, serial = run(capsys, ["mc", "--config", cfg, "--threads", "1"])
    assert flagged == serial


def test_mc_grid_and_reps_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0])
    code, out = run(
        capsys, ["mc", "--config", cfg, "--grid", "5", "--reps", "200"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][5] == "5x5"
    assert rows[0][6] == "200"


def test_mc_too_few_reps(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0], mc={"grid": 9, "reps": 10})
    code, _ = run(capsys, ["mc", "--config", cfg])
    assert code == 2


def test_mc_four_dimensional_exits_before_sweeping(tmp_path, capsys, monkeypatch):
    # empirical EC stops at N = 3; the check must come before any replicate
    # block is built
    def no_sweep(*args, **kwargs):
        raise AssertionError("mc._sweep called")

    monkeypatch.setattr(cli.mc_mod, "_sweep", no_sweep)
    atoms = [{"freq": list(row), "weight": 0.5} for row in np.eye(4)]
    cfg = write_config(
        tmp_path,
        field={"type": "spectral_sum", "atoms": atoms, "offset_var": 1.0},
        domain={"lower": [0.0] * 4, "upper": [PI] * 4},
        levels=[3.0],
        mc={"grid": 24, "reps": 1000},
    )
    code = cli.main(["mc", "--config", cfg])
    assert code == 3
    assert "got N=4" in capsys.readouterr().err


def test_mc_sweeps_each_grid_once_for_all_levels(tmp_path, capsys, monkeypatch):
    # the grid maximum does not depend on the level, so a command runs one
    # coarse sweep (maxima and EC) of all replicates whatever its levels,
    # then one sweep of the 17^2 grid over the replicates its curvature
    # bound leaves undecided
    sweep = cli.mc_mod._sweep
    swept = []

    def counting_sweep(model, grid, seed, replicates, *args, **kwargs):
        swept.append((grid.points_per_axis, len(replicates)))
        return sweep(model, grid, seed, replicates, *args, **kwargs)

    monkeypatch.setattr(cli.mc_mod, "_sweep", counting_sweep)
    cfg = write_config(tmp_path, levels=[1.5, 2.0, 2.5], mc={"grid": 9, "reps": 150})
    code, out = run(capsys, ["mc", "--config", cfg])
    assert code == 0
    assert len(parse_csv(out)[1]) == 3
    assert [grid for grid, _ in swept] == [(9, 9), (17, 17)]
    assert swept[0][1] == 150 and 0 < swept[1][1] < 150


def test_seven_dimensions_is_a_capability_limit(tmp_path, capsys):
    # face enumeration stops at N = 6 for every command that enumerates; a
    # failed run leaves no output file behind
    cfg = write_config(
        tmp_path,
        field={"type": "gaussian_increment", "dim": 7},
        domain={"lower": [0.0] * 7, "upper": [1.0] * 7},
    )
    out = tmp_path / "x.csv"
    assert cli.main(["compute", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert cli.main(["faces", "--config", cfg]) == 3
    assert "N=6" in capsys.readouterr().err
    code, text = run(capsys, ["validate", "--config", cfg])
    assert code == 5
    assert "FAIL condition_check: raised CapabilityError" in text


def _limit_address_space():
    # 2 GiB: a box over the node cap would fail to allocate (exit 1) well
    # before it could exhaust the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("case", ["6d-mu", "3d-mean-ec-order-300"])
def test_box_node_cap_exits_3(tmp_path, case):
    # 24^6 nodes of the default order on a 6-D box, 300^3 on a 3-D face x
    # cone box: each is refused as a capability limit before any node is built
    if case == "6d-mu":
        cfg = write_config(
            tmp_path,
            field={"type": "gaussian_increment", "dim": 6},
            domain={"lower": [0.0] * 6, "upper": [1.0] * 6},
            levels=[3.0],
        )
        argv, want = ["--config", cfg], "24^6"
    else:
        cfg = str(ROOT / "perfbench" / "configs" / "spectral3.json")
        argv = ["--config", cfg, "--levels", "6:6:1", "--method", "mean_ec"]
        argv, want = [*argv, "--quad-order", "300"], "300^3"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "excursion_kit.cli", "compute", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=300,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: {want} quadrature nodes per box exceed cap 8388608\n"


def test_mc_non_spectral_model_capability_exit(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        field={"type": "gaussian_increment", "dim": 2, "scale": 1.0, "offset_var": 0.5},
        levels=[2.0],
        domain={"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    )
    code, _ = run(capsys, ["mc", "--config", cfg])
    assert code == 3


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_default_config_passes(capsys):
    code, out = run(capsys, ["validate"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    checks = lines[:-1]
    assert len(checks) == 3
    assert all(ln.startswith("PASS ") for ln in checks)
    names = [ln.split()[1].rstrip(":") for ln in checks]
    assert names == ["derivative_consistency", "h2_scan", "condition_check"]


class BadHessianCosine(CosineField):
    """The cosine field with its analytic Hessian scaled by 1.3."""

    def _g_hess(self, h):
        return 1.3 * super()._g_hess(h)


class BadThirdCosine(CosineField):
    """The cosine field with its analytic third derivatives scaled by 1.3."""

    def _g_third(self, h):
        return 1.3 * super()._g_third(h)


class BadKernelCosine(CosineField):
    """The cosine field with its face kernel's determinant scaled by 1.3."""

    def face_kernel(self, sig):
        kernel = super().face_kernel(sig)

        def scaled(t):
            g, c, det = kernel(t)
            return g, c, 1.3 * det

        return scaled


@pytest.mark.parametrize(
    "model",
    [BadHessianCosine, BadThirdCosine, BadKernelCosine],
    ids=["hessian", "third_derivative", "face_kernel"],
)
def test_validate_flags_bad_hessian(tmp_path, capsys, monkeypatch, model):
    monkeypatch.setattr(cli, "field_from_dict", lambda spec: model())
    cfg = write_config(tmp_path, domain={"lower": [0.0, 0.0], "upper": [PI / 2, PI / 2]})
    code, out = run(capsys, ["validate", "--config", cfg])
    assert code == 5
    assert any(
        ln.startswith("FAIL derivative_consistency") for ln in out.splitlines()
    )


def test_validate_flags_zero_frequency_atom(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        field={
            "type": "spectral_sum",
            "atoms": [
                {"freq": [0.0, 0.0], "weight": 1.0},
                {"freq": [1.0, 0.0], "weight": 0.5},
            ],
            "offset_var": 1.0,
        },
        domain={"lower": [0.0, 0.0], "upper": [3.0, 3.0]},
    )
    code, out = run(capsys, ["validate", "--config", cfg])
    assert code == 5
    assert "FAIL h2_scan" in out


def test_validate_reports_condition_violation(tmp_path, capsys):
    cfg = write_config(tmp_path)  # [0, pi]^2 has a flat corner maximizer
    code, out = run(capsys, ["validate", "--config", cfg])
    assert code == 5
    assert "FAIL condition_check" in out


def test_validate_reports_flat_edge_between_grid_nodes(tmp_path, capsys):
    # the maximizer (pi, pi) lies on the open edge t1 = pi, where nu_1 = 0,
    # and t2 = pi falls between the nodes of a uniform grid on [0, 3pi/2]
    cfg = write_config(tmp_path, domain={"lower": [0.0, 0.0], "upper": [PI, 1.5 * PI]})
    code, out = run(capsys, ["validate", "--config", cfg])
    assert code == 5
    assert "FAIL condition_check" in out
    assert "all checks passed" not in out


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["faces", "--grid", "9"],
        ["validate", "--levels", "1:2:1"],
        ["compute", "--reps", "200"],
        ["mc", "--quad-order", "8"],
    ],
)
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, argv):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", cfg])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_flag_changes_mc_output(tmp_path, capsys):
    cfg = write_config(tmp_path, levels=[2.0], mc={"grid": 9, "reps": 150})
    _, a = run(capsys, ["mc", "--config", cfg, "--seed", "1"])
    _, b = run(capsys, ["mc", "--config", cfg, "--seed", "2"])
    assert a != b


OBLIQUE3 = {
    "field": {
        "type": "spectral_sum",
        "offset_var": 1.0,
        "atoms": [
            {"freq": [1.0, 0.5, 0.0], "weight": 0.5},
            {"freq": [0.3, 1.0, 0.2], "weight": 0.4},
            {"freq": [0.0, 0.4, 1.1], "weight": 0.3},
            {"freq": [0.7, -0.6, 0.5], "weight": 0.2},
        ],
    },
    "domain": {"lower": [0.0, 0.0, 0.0], "upper": [2.5, 2.0, 1.5]},
    "quad": {"order_per_axis": 8, "rel_tol": 1e-3},
}


@pytest.mark.parametrize(
    "config, method, levels",
    [
        ("spectral3.json", "mean_ec", "6:6:1"),
        ("spectral3.json", "laplace", "3:8:1"),
        ("spectral4.json", "laplace", "4:6:1"),
        ("oblique3", "mean_ec", "3:5:1"),
        ("oblique3", "laplace", "3:5:1"),
    ],
)
def test_analytic_output_ignores_seed(tmp_path, capsys, config, method, levels):
    # every Gaussian orthant these runs take has dimension <= 4, where
    # mvn_prob is deterministic: the CSV is the same byte for byte at any
    # seed, on separable fields and on an oblique one alike
    if config == "oblique3":
        cfg = tmp_path / "oblique3.json"
        cfg.write_text(json.dumps(OBLIQUE3))
    else:
        cfg = ROOT / "perfbench" / "configs" / config
    flags = ["compute", "--config", str(cfg), "--method", method, "--levels", levels]
    outs = []
    for seed in ("0", "7"):
        code, out = run(capsys, [*flags, "--seed", seed])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
