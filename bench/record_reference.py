"""Record bench/reference.json, the outputs the benchmark checks against.

Run from the repository root:

    python3 bench/record_reference.py

It runs one pass of each workload on the source tree and stores what the
checks in ``workloads.py`` compare: the ``(n, lhs, pde)`` rows and condition
summaries of ``gexpect clt``, the ``run_clt`` rows and exact-lattice values of
deep-nested, and the campaign check counts of ``gexpect verify all``.

``nested_expect`` refuses the exact-lattice value of g-ambiguous at n=256
(``LATTICE_NODE_CAP``). Its reference comes from ``dense_lattice_value``
below, an independent backward recursion on a dense integer lattice, which
must agree with ``nested_expect`` to 1e-12 wherever the latter answers.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

import run
from tracing import Tracer
from workloads import (
    DEEP_MODELS,
    EXACT_MODEL,
    EXACT_NS,
    PRESETS,
    SUMMARY,
    TOL,
    CltPresets,
    DeepNested,
    VerifyAll,
    conditions_summary,
)


def dense_lattice_value(phi, steps, n: int) -> float:
    """Nested value of phi(sum of X_i/sqrt(n) + Y_i/n) over the first n steps,
    computed on a dense lattice that covers every reachable partial sum."""
    wx, wy = math.sqrt(1.0 / n), 1.0 / n
    incs = [
        [(wx * d.points[:, 0] + wy * d.points[:, 1], d.weights) for d in step.dists]
        for step in steps[:n]
    ]
    fracs = [Fraction(float(v)).limit_denominator(10**6) for st in incs for inc, _ in st for v in inc]
    denom = math.lcm(*(f.denominator for f in fracs))
    spacing = Fraction(math.gcd(*(int(f * denom) for f in fracs)), denom)
    g = float(spacing)
    ks = [[(np.rint(inc / g).astype(np.int64), w) for inc, w in st] for st in incs]
    for st_inc, st_k in zip(incs, ks):
        for (inc, _), (k, _) in zip(st_inc, st_k):
            if np.max(np.abs(inc - k * g)) > 1e-12:
                raise ValueError("increments are not on a common lattice")
    reach = max(int(np.max(np.abs(k))) for st in ks for k, _ in st)
    values = phi(np.arange(-n * reach, n * reach + 1, dtype=np.int64).astype(float) * g)
    for st in reversed(ks):
        size = values.size - 2 * reach
        best = np.full(size, -np.inf)
        for k_arr, w_arr in st:
            acc = np.zeros(size)
            for k, w in zip(k_arr, w_arr):
                acc += w * values[reach + k : reach + k + size]
            np.maximum(best, acc, out=best)
        values = best
    return float(values[0])


def record_clt_presets(gx, tr, out_root: Path) -> dict:
    wl = CltPresets()
    dirs = wl.prepare(out_root)
    outputs = wl.run(gx, tr, wl.setup(gx, tr), dirs)
    ref = {}
    for p in PRESETS:
        rc, err = outputs[p]
        if err is not None:
            raise RuntimeError(f"{p}: {err}")
        with open(Path(dirs[p]) / f"{p}.csv", newline="", encoding="utf-8") as fh:
            rows = [[int(r["n"]), float(r["lhs"]), float(r["pde"])] for r in csv.DictReader(fh)]
        cond = json.loads((Path(dirs[p]) / f"{p}-conditions.json").read_text(encoding="utf-8"))
        ref[p] = {"exit_code": rc, "rows": rows, "conditions": conditions_summary(cond)}
    wl.cleanup(dirs)
    return ref


def record_deep_nested(gx, tr) -> dict:
    wl = DeepNested()
    inputs = wl.setup(gx, tr)
    reports, exact = wl.run(gx, tr, inputs, None)
    preset, model = inputs[0][EXACT_MODEL]
    ref = {
        "run_clt": {p: [[n, lhs, pde] for n, lhs, pde, _ in reports[p].rows] for p in DEEP_MODELS},
        "exact": {},
        "refused_at_record": [],
    }
    for n in EXACT_NS:
        dense = dense_lattice_value(preset.phi, model.steps, n)
        if isinstance(exact[n], float):
            if abs(exact[n] - dense) > TOL:
                raise RuntimeError(f"n={n}: nested_expect {exact[n]!r} != dense lattice {dense!r}")
            ref["exact"][str(n)] = exact[n]
        else:
            ref["exact"][str(n)] = dense
            ref["refused_at_record"].append(str(n))
        print(f"exact n={n}: nested_expect {exact[n]!r}, dense lattice {dense!r}")
    return ref


def record_verify_all(gx, tr) -> dict:
    rc, text, err = VerifyAll(seed=0).run(gx, tr, None, None)
    if err is not None or rc != 0:
        raise RuntimeError(f"verify all exited {rc}: {err}\n{text}")
    return {"exit_code": rc, "checks": {m[2]: int(m[3]) for m in SUMMARY.finditer(text)}}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    gx = run.fresh_import()
    tr = Tracer()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ref = {
            "recorded_with": {"gexpect": gx.pkg.__version__, "commit": run.git_commit()},
            "clt-presets": record_clt_presets(gx, tr, Path(tmp)),
            "deep-nested": record_deep_nested(gx, tr),
            "verify-all": record_verify_all(gx, tr),
        }
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
