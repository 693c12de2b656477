import importlib.util
from pathlib import Path

import pytest

from excursion_kit import mc
from excursion_kit.cli import _parse_levels_flag
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

    def spy(model, domain, levels, *args):
        seen.append(tuple(levels))
        raise Stop

    monkeypatch.setattr(script, "_mc_levels", spy)
    with pytest.raises(Stop):
        script.main(["--levels", "0:1:0.1", "--reps", "100", "--grid", "5", "--threads", "1"])
    assert seen == [_parse_levels_flag("0:1:0.1")]


@pytest.mark.parametrize("levels", ["3:6:0", "3:six:1"])
def test_crosscheck_rejects_bad_levels_before_sweeping(monkeypatch, levels):
    script = load_script("mc_crosscheck")

    def no_sweep(*args, **kwargs):
        raise AssertionError("a replicate sweep ran")

    monkeypatch.setattr(mc, "_sweep", no_sweep)
    with pytest.raises(ConfigError):
        script.main(["--levels", levels, "--reps", "100", "--grid", "5", "--threads", "1"])
