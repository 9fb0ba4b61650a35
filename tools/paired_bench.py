"""Compare two trees on one benchmark workload, in alternating pairs of runs.

Usage::

    python3 tools/paired_bench.py PARENT CHANGE WORKLOAD

PARENT and CHANGE are checkouts of gexpect, WORKLOAD one of the workloads in
``BENCHMARK.json`` (clt-presets, deep-nested, verify-all). The tool runs 10
pairs of ``python3 bench/run.py --workload WORKLOAD --seed S --seconds T
--trace 0``, one run from the root of each tree per pair. Pair i uses seed
i + 1 on both sides, the tree that runs first alternates (PARENT first in
pairs 0, 2, ...), and T is the ``run_seconds`` of the ``BENCHMARK.json`` in
the tree this file sits in.

For each end-to-end metric of that file it prints each side's median and
quartiles, the pairs in which the change was better, worse or equal, and the
change of the median relative to the parent's next to the metric's bound. A
run that exits nonzero or whose output is not ``correct`` is flagged. The exit
status is 1 if a run was flagged or a median is worse than its bound, else 0.

Lay both trees down the same way, say both by ``git clone`` or both by
extracting ``git archive``: with the same code, deep-nested ran 12% slower
from a plain file copy than from a clone, a difference that is not the code's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One benchmark run from ``tree``: its metric values and, if flagged, why."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}, f"exit {run.returncode}, no result: {run.stderr.strip()[-300:]}"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if run.returncode != 0 or not result["correct"]:
        return values, f"exit {run.returncode}, correct {result['correct']}, {result['failed']} failed"
    return values, ""


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__)
        return 2
    trees = {"parent": Path(argv[1]).resolve(), "change": Path(argv[2]).resolve()}
    workload = argv[3]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {workload!r}")
        return 2
    values: dict[str, list[dict]] = {"parent": [], "change": []}
    flagged = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got, flag = run_once(trees[side], spec["command"], workload, i + 1, spec["run_seconds"])
            values[side].append(got)
            if flag:
                flagged.append(f"pair {i} {side}: {flag}")
            shown = " ".join(f"{k}={v:.4g}" for k, v in got.items())
            print(f"pair {i} seed {i + 1} {side}: {shown} {flag}".rstrip(), flush=True)

    worse = []
    print(f"\n{workload}: {PAIRS} pairs, {spec['run_seconds']} s per run")
    print(f"{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'better/worse/equal':<19} median change (bound)")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        pairs = [(p[name], c[name]) for p, c in zip(values["parent"], values["change"])
                 if name in p and name in c]
        if not pairs:
            print(f"{name:<12} no complete pair")
            continue
        quartiles = [statistics.quantiles([pair[side] for pair in pairs], n=4, method="inclusive") for side in (0, 1)]
        cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]" for q1, med, q3 in quartiles]
        better = sum(sign * (c - p) < 0 for p, c in pairs)
        losses = sum(sign * (c - p) > 0 for p, c in pairs)
        tally = f"{better}/{losses}/{len(pairs) - better - losses}"
        p_med, c_med = quartiles[0][1], quartiles[1][1]
        rel = (c_med - p_med) / p_med if p_med else 0.0
        over = sign * rel > metric["bound"]
        if over:
            worse.append(name)
        print(f"{name:<12} {cells[0]:<30} {cells[1]:<30} {tally:<19} {rel:+.2%} "
              f"({metric['better']} is better, bound {metric['bound']:.0%}){'  WORSE THAN BOUND' if over else ''}")
    for line in flagged:
        print(f"flagged: {line}")
    return 1 if flagged or worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
