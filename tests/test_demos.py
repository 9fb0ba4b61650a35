"""Smoke test: the quick demos run to completion against the source tree.

``03_gheat_equation.py`` takes about 5 s and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["01_scenario_expectations", "02_nested_independence", "04_clt_convergence"]
)
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
