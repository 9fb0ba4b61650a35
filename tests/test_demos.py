"""Smoke test: the quick demos run to completion against the source tree,
and the certificates they print hold to 1e-12.

``03_gheat_equation.py`` takes about 5 s and is left out.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# per demo, its printed certificates: patterns whose group is a difference, at most 1e-12
CERTIFICATES = {
    "01_scenario_expectations": [r"reordering the scenarios changes E\[f\] by at most (\S+)"],
    "02_nested_independence": [r"worst \|recursion - enumeration\| = (\S+)"],
    "04_clt_convergence": [r"re-encoding the scenario sets changes the value by (\S+)"],
}


@pytest.mark.parametrize("demo", sorted(CERTIFICATES))
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
    for pattern in CERTIFICATES[demo]:
        match = re.search(pattern, run.stdout)
        assert match is not None, f"{pattern!r} not in the output:\n{run.stdout}"
        assert float(match.group(1)) <= 1e-12, match.group(0)
