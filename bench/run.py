"""Run one gexpect benchmark workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload clt-presets --seed 1 --seconds 30 --trace 0

Workloads: clt-presets, deep-nested, verify-all (see bench/README.md). The
run imports gexpect from ``src/`` of the tree this file sits in, sets the
workload up several times, then runs passes back to back (one caller, closed
loop) for ``--seconds`` and checks the output of every pass.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run, in which traced and untraced passes alternate. A record of the
run (versions, commit, seed, pass times, metrics) and, for a traced run, its
spans are written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Tally, make

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 11
MODULES = ("cli", "io", "clt", "heat", "nested", "verify", "errors")


def fresh_import() -> SimpleNamespace:
    """Import gexpect from scratch, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "gexpect" or m.startswith("gexpect.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gexpect")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"gexpect.{m}") for m in MODULES})


def git_commit() -> str | None:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(times: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten passes beyond it, and that
    percentile; with too few passes for one above the median, the median."""
    n = len(times)
    q = max(50, 100 * (n - 10) // n) if n > 10 else 50
    if n < 2:
        return times[0], q
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1], q


def set_up(wl, tr, trace: bool):
    """Set the workload up SETUP_REPEATS times; the last copy is kept.
    In a traced run the layer calls of the last repeat are traced."""
    totals, imports = [], []
    for i in range(SETUP_REPEATS):
        tr.enabled = trace and i == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        gx = fresh_import()
        t1 = time.perf_counter()
        inputs = wl.setup(gx, tr)
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        imports.append(t1 - t0)
    tr.enabled = False
    return gx, inputs, totals, imports


def measure(wl, gx, inputs, tr, ref, seconds: float, trace: bool):
    """Passes back to back for ``seconds``; odd passes traced in a traced run."""
    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        use_trace = trace and i % 2 == 1
        state = wl.prepare(OUT)
        if use_trace:
            tr.pass_id = i
            tr.install(gx)
        try:
            t0 = time.perf_counter()
            outputs = wl.run(gx, tr, inputs, state)
            elapsed = time.perf_counter() - t0
        finally:
            tr.uninstall()
        (traced if use_trace else untraced).append(elapsed)
        tally.merge(wl.check(outputs, state, ref))
        wl.cleanup(state)
        i += 1
        if time.perf_counter() - start >= seconds and untraced and (traced or not trace):
            return tally, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gexpect" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: {SRC / 'gexpect'} or {REFERENCE} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    wl = make(args.workload, args.seed)
    tr = Tracer()
    gx, inputs, setup_times, import_times = set_up(wl, tr, bool(args.trace))
    tally, untraced, traced = measure(wl, gx, inputs, tr, ref, args.seconds, bool(args.trace))

    tail_s, tail_q = tail(untraced)
    if args.trace:
        metrics = layer_metrics(tr, gx.nested.count_policies, traced, untraced)
        metrics["setup.import_s"] = (statistics.median(import_times), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            "pass_s_tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_ratio": (tally.ok / tally.attempted, "1"),
        }
    result = {
        "correct": not tally.misses,
        "attempted": tally.attempted,
        "failed": len(tally.misses),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "gexpect": gx.pkg.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_s_tail_percentile": tail_q,
        "setup_s_samples": setup_times,
        "pass_s_samples": untraced,
        "traced_pass_s_samples": traced,
        "refused": tally.refused,
        "misses": tally.misses[:20],
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tr.write(OUT / f"{stem}-spans.json")
    for miss in tally.misses[:5]:
        print(f"miss: {miss}", file=sys.stderr)
    print(
        f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes; "
        f"pass_s_tail is p{tail_q} of {len(untraced)}; {tally.refused} refused; "
        f"record in {OUT / (stem + '.json')}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
