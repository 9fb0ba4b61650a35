"""Write every output a change to gexpect should leave byte-identical into OUTDIR.

Usage::

    python3 tools/snapshot_outputs.py OUTDIR

Run it from two checkouts, say the parent commit and a change, each into its
own empty directory, then compare them with ``diff -r``. Each command runs
this tree's ``src/`` in a fresh interpreter with OUTDIR as the working
directory and relative output paths, so the paths the commands print are the
same from any checkout. OUTDIR gets:

* ``clt-<preset>.txt`` and ``clt/``: ``gexpect clt`` stdout, CSV and
  conditions JSON for each shipped preset;
* ``check-conditions-<preset>.txt`` and ``check-conditions/``: the same for
  ``gexpect check-conditions``;
* ``verify-all.txt``: ``gexpect verify all --seed 20260801`` stdout;
* ``expect-x2.txt``: ``gexpect expect x2`` on README's rademacher document;
* ``solve.txt`` and ``solve/``: ``gexpect solve`` on a small fixed document;
* ``demo-<name>.txt``: the stdout of each demo in ``demos/``;
* ``presets.txt``: each shipped preset's settings as loaded, each a ``repr``:
  pde x_lo, x_hi, dx, dt and n_steps, dp state_grid and mode, n_schedule and
  tolerance, so a change that derives a setting shows before any output moves;
* ``exit_codes.txt``: every command's exit status, one a line.

Standard error is not kept: it holds tracebacks and warnings, whose paths
name the checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("classical-cos", "g-ambiguous", "g-perturbed")
RADEMACHER = {"steps": [{"dists": [{"atoms": [[1, 0.5], [-1, 0.5]]}]}], "label": "rademacher"}
SOLVE = {
    "label": "ramp-profile",
    "gp": {"mu": [-0.5, 0.5], "sigma2": [1.0, 4.0]},
    "phi": "relu_clip",
    "phi_params": {"clip": 2.0},
    "pde": {"x_range": [-6.0, 6.0], "dx": 0.1, "t_final": 0.5},
}
SETTINGS = f"""
from gexpect.io import load_preset
for name in {PRESETS!r}:
    p = load_preset(name)
    print(name)
    print("  pde", *map(repr, (p.pde.x_lo, p.pde.x_hi, p.pde.dx, p.pde.dt, p.pde.n_steps)))
    print("  dp", repr(p.dp.state_grid), repr(p.dp.mode))
    print("  n_schedule", repr(p.n_schedule))
    print("  tolerance", repr(p.tolerance))
"""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    (out / "rademacher.json").write_text(json.dumps(RADEMACHER), encoding="utf-8")
    (out / "solve.json").write_text(json.dumps(SOLVE), encoding="utf-8")
    cli = [sys.executable, "-m", "gexpect.cli"]
    runs = {f"clt-{p}": cli + ["clt", "--config", p, "--out", "clt"] for p in PRESETS}
    runs.update(
        {f"check-conditions-{p}": cli + ["check-conditions", "--config", p, "--out", "check-conditions"]
         for p in PRESETS}
    )
    runs["verify-all"] = cli + ["verify", "all", "--seed", "20260801"]
    runs["expect-x2"] = cli + ["expect", "x2", "--config", "rademacher.json"]
    runs["solve"] = cli + ["solve", "--config", "solve.json", "--out", "solve"]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runs[f"demo-{demo.stem}"] = [sys.executable, str(demo)]
    runs["presets"] = [sys.executable, "-c", SETTINGS]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    codes = []
    for name, command in runs.items():
        run = subprocess.run(command, cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.txt").write_text(run.stdout, encoding="utf-8")
        codes.append(f"{name} {run.returncode}")
        print(codes[-1], flush=True)
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
