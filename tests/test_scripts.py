import importlib.util
from pathlib import Path

import pytest

from excursion_kit import mc, mec
from excursion_kit.cli import parse_levels
from excursion_kit.errors import ConfigError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Stop(Exception):
    pass


def test_crosscheck_levels_match_the_cli(monkeypatch):
    # 0:1:0.1 by repeated addition gives 0.7999999999999999 where the CLI
    # gives 0.8; the script must hand the CLI's levels to the sweep
    script = load_script("mc_crosscheck")
    seen = []

    def spy(model, domain, levels, *args, **kwargs):
        seen.append(tuple(levels))
        raise Stop

    monkeypatch.setattr(script, "mc_estimates", spy)
    with pytest.raises(Stop):
        script.main(["--levels", "0:1:0.1", "--reps", "100", "--grid", "5", "--threads", "1"])
    assert seen == [parse_levels("0:1:0.1")]


@pytest.mark.parametrize("levels", ["3:6:0", "3:six:1"])
def test_crosscheck_rejects_bad_levels_before_sweeping(monkeypatch, levels):
    script = load_script("mc_crosscheck")

    def no_sweep(*args, **kwargs):
        raise AssertionError("a replicate sweep ran")

    monkeypatch.setattr(mc, "_sweep", no_sweep)
    with pytest.raises(ConfigError):
        script.main(["--levels", levels, "--reps", "100", "--grid", "5", "--threads", "1"])


def test_convergence_levels_match_the_cli(monkeypatch):
    # one level-vector call per (method, rectangle), on the CLI's levels
    script = load_script("closed_form_convergence")
    seen = []

    def spy(model, domain, levels, spec):
        seen.append(tuple(levels))
        raise Stop

    monkeypatch.setattr(script, "excursion_prob_mu", spy)
    with pytest.raises(Stop):
        script.main(["--levels", "0:1:0.1", "--method", "mu"])
    assert seen == [parse_levels("0:1:0.1")]
    assert seen[0][8:] == (0.8, 0.9, 1.0)


def test_convergence_rejects_a_zero_step_before_integrating(monkeypatch):
    script = load_script("closed_form_convergence")

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a face was integrated")

    monkeypatch.setattr(mec, "_face_sum", no_quadrature)
    with pytest.raises(ConfigError):
        script.main(["--levels", "4:16:0"])
