"""The README's library quick start runs against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", quick_start_block()],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # two levels, each a total line and the nine faces of the square by label
    assert sum(line.startswith("    2|{1,2}|{} ") for line in lines) == 2
    assert sum(line.startswith("    0|{}|{1:1,2:1} ") for line in lines) == 2
    assert lines[-1].startswith("[(") and lines[-1].count("(") == 2
