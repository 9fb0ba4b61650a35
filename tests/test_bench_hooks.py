"""The benchmark's hooks into gexpect stay: the names it rebinds and calls exist.

``bench/`` is read only: its ``tracing`` and ``workloads`` modules are imported
from this tree as the benchmark imports them, with ``bench/`` on ``sys.path``.
"""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import gexpect

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    # the modules bench/run.py imports, without its fresh re-import of gexpect
    gx = SimpleNamespace(pkg=gexpect, **{m: importlib.import_module(f"gexpect.{m}") for m in run.MODULES})
    return gx, importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_rebinds_and_restores_every_attribute(bench):
    gx, tracing, _ = bench
    owners = [*vars(gx).values(), gx.io.ExperimentPreset]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(gx)
    try:
        assert tracer._saved
        assert all(getattr(owner, attr) is not original for owner, attr, original in tracer._saved)
    finally:
        tracer.uninstall()
    after = [dict(vars(owner)) for owner in owners]
    for want, got in zip(before, after):
        assert want.keys() == got.keys()
        assert all(got[key] is value for key, value in want.items())


def test_one_clt_presets_pass_matches_the_reference(bench, tmp_path):
    gx, tracing, workloads = bench
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))["clt-presets"]
    workload, tracer = workloads.make("clt-presets", 1), tracing.Tracer()
    inputs = workload.setup(gx, tracer)
    dirs = workload.prepare(tmp_path)
    tally = workload.check(workload.run(gx, tracer, inputs, dirs), dirs, ref)
    workload.cleanup(dirs)
    assert tally.misses == []
    assert tally.ok == tally.attempted > 0
