"""Spans around the calls into each gexpect layer, for the traced run.

The benchmark opens a span around every call it makes into a layer's public
function (``Tracer.call``). To reach calls the program makes internally, such
as ``gexpect.clt.nested_expect`` inside ``run_clt``, ``install`` rebinds the
module attributes the callers look up, for the length of one traced pass, and
``uninstall`` restores them. Spans stay in memory and are written out when the
run ends. With tracing off, ``call`` is a plain call.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics listed in ``bench/README.md``. Times and counts are per traced pass.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import EXACT_NS, GRID_NS, PRESETS

LAYERS = ("cli", "io", "clt", "heat", "nested", "scenarios", "gfunction", "verify")
CAMPAIGNS = ("axioms", "gfunction", "holder", "oracle", "semigroup")


@dataclass
class Span:
    sid: int
    parent: int | None
    pass_id: int | str
    name: str
    layer: str
    label: str | None
    args: tuple
    start: float = 0.0
    end: float = 0.0
    ok: bool = True
    result: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _write_bytes(span: Span) -> None:
    span.attrs["bytes"] = os.path.getsize(span.args[1])


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.pass_id: int | str = "setup"
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, layer: str, label: str | None, fn, *args, post=None, **kwargs):
        """Call ``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(
            sid=len(self.spans),
            parent=self._stack[-1].sid if self._stack else None,
            pass_id=self.pass_id,
            name=name,
            layer=layer,
            label=label,
            args=args,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except BaseException:
            span.ok = False
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if post is not None and span.ok:
                post(span)

    def _rebind(self, owner, attr: str, name: str, layer: str, post=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, layer, None, original, *args, post=post, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, gx) -> None:
        """Rebind the attributes through which one layer calls another."""
        rebinds = (
            (gx.cli, "load_preset", "io.load_preset", "io", None),
            (gx.cli, "run_clt", "clt.run_clt", "clt", None),
            (gx.cli, "check_conditions", "clt.check_conditions", "clt", None),
            (gx.cli, "write_convergence_csv", "io.write", "io", _write_bytes),
            (gx.cli, "write_condition_report_json", "io.write", "io", _write_bytes),
            (gx.cli, "run_suite", "verify.run_suite", "verify", None),
            (gx.io.ExperimentPreset, "build_model", "io.build_model", "io", None),
            (gx.io, "build_iid_family", "clt.build", "clt", None),
            (gx.io, "build_perturbed_family", "clt.build", "clt", None),
            (gx.clt, "solve", "heat.solve", "heat", None),
            (gx.clt, "nested_expect", "nested.nested_expect", "nested", None),
            (gx.verify, "semigroup_check", "heat.semigroup_check", "heat", None),
            (gx.verify, "nested_expect", "nested.nested_expect", "nested", None),
            (gx.verify, "bruteforce_nested", "nested.bruteforce_nested", "nested", None),
            (gx.verify, "verify_axioms", "scenarios.verify_axioms", "scenarios", None),
            (gx.verify, "holder_check", "scenarios.holder_check", "scenarios", None),
            (gx.verify, "verify_g_properties", "gfunction.verify_g_properties", "gfunction", None),
        )
        for owner, attr, name, layer, post in rebinds:
            self._rebind(owner, attr, name, layer, post)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        rows = [
            {
                "id": s.sid,
                "parent": s.parent,
                "pass": s.pass_id,
                "name": s.name,
                "layer": s.layer,
                "label": s.label,
                "start": s.start,
                "end": s.end,
                "ok": s.ok,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _annotate(spans: list[Span], count_policies) -> None:
    """Work counts of each span, read from its arguments and result."""
    by_id = {s.sid: s for s in spans}
    for s in spans:
        label, parent = s.label, s.parent
        while label is None and parent is not None:
            label, parent = by_id[parent].label, by_id[parent].parent
        s.attrs["model"] = label
        if s.name == "heat.solve":
            cfg = s.args[2]
            s.attrs.update(n_steps=cfg.n_steps, nodes=cfg.n_intervals + 1)
        elif s.name == "heat.semigroup_check":
            _, _, a, b, cfg = s.args[:5]
            legs = int(a > 0) + int(b > 0) + int(a * a + b * b > 0)
            s.attrs.update(legs=legs, node_updates=legs * cfg.n_steps * (cfg.n_intervals - 1))
        elif s.name == "nested.nested_expect":
            _, model, n, cfg = s.args[:4]
            steps = tuple(getattr(model, "steps", model))[:n]
            s.attrs.update(
                n=n,
                mode=cfg.mode,
                distinct_steps=len({id(step) for step in steps}),
                atom_updates=sum(d.n_atoms for step in steps for d in step.dists)
                * int(cfg.state_grid[2]),
            )
        elif s.name == "nested.bruteforce_nested":
            _, model, n = s.args[:3]
            s.attrs["policies"] = count_policies(model, n)
        elif s.name == "verify.run_suite":
            s.attrs["suite"] = s.args[0]
            if s.ok:
                s.attrs.update(checks=s.result.checks, failures=s.result.failures)


def _self_times(spans: list[Span]) -> dict[int, float]:
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def _ratio(num: float | None, den: float | None, scale: float = 1.0) -> float:
    """num / den * scale, or 0 where the workload did no such work."""
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, count_policies, traced_times, untraced_times) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, per traced pass."""
    _annotate(tracer.spans, count_policies)
    passes = len(traced_times)
    spans = [s for s in tracer.spans if s.pass_id != "setup"]
    setup = [s for s in tracer.spans if s.pass_id == "setup"]
    own = _self_times(tracer.spans)
    tot: dict[str, float] = defaultdict(float)
    nodes: dict[str, int] = {}

    def add(key: str, value: float) -> None:
        tot[key] += value

    for s in spans:
        d, a = s.duration, s.attrs
        add(f"{s.layer}.self_s", own[s.sid])
        if s.name == "cli.main" and a["model"] in PRESETS:
            add(f"cli.clt_s.{a['model']}", d)
        elif s.name == "io.load_preset":
            add("io.load_s", d)
        elif s.name == "io.write":
            add("io.write_s", d)
            add("io.bytes_written", a.get("bytes", 0))
        elif s.name == "clt.build":
            add("clt.build_s", d)
        elif s.name == "clt.check_conditions":
            add("clt.conditions_s", d)
        elif s.name == "clt.run_clt":
            add("clt.run_clt_self_s", own[s.sid])
        elif s.name == "heat.solve":
            add("heat.solve_s", d)
            add("heat.solve_calls", 1)
            add("heat.node_updates", a["n_steps"] * (a["nodes"] - 2))
            if a["model"] in PRESETS:
                add(f"_solve_s.{a['model']}", d)
                add(f"_solve_steps.{a['model']}", a["n_steps"])
                nodes[a["model"]] = a["nodes"]
        elif s.name == "heat.semigroup_check":
            add("heat.semigroup_s", d)
            add("heat.semigroup_legs", a["legs"])
            add("heat.semigroup_node_updates", a["node_updates"])
        elif s.name == "nested.nested_expect":
            n = a["n"]
            if a["model"] in PRESETS:
                add(f"_distinct.{a['model']}", a["distinct_steps"])
                add(f"_steps.{a['model']}", n)
            if a["mode"] == "grid_interp":
                add("nested.grid_s", d)
                add("nested.grid_atom_updates", a["atom_updates"])
                add(f"_grid_s.n{n}", d)
                add(f"_grid_steps.n{n}", n)
            else:
                add("nested.exact_s", d)
                add("nested.exact_calls", 1)
                add("nested.exact_failed", 0 if s.ok else 1)
                if n in EXACT_NS:
                    add(f"nested.exact_s.n{n}", d)
        elif s.name == "nested.bruteforce_nested":
            add("nested.bruteforce_s", d)
            add("nested.bruteforce_policies", a["policies"])
        elif s.name == "scenarios.verify_axioms":
            add("scenarios.verify_axioms_s", d)
        elif s.name == "scenarios.holder_check":
            add("scenarios.holder_check_s", d)
        elif s.name == "gfunction.verify_g_properties":
            add("gfunction.verify_g_properties_s", d)
        elif s.name == "verify.run_suite":
            add(f"verify.{a['suite']}_s", d)
            add("verify.checks", a.get("checks", 0))
            add("verify.failures", a.get("failures", 0))

    per = {k: v / passes for k, v in tot.items()}
    out: dict[str, tuple[float, str]] = {}

    def put(key: str, unit: str, value: float | None = None) -> None:
        out[key] = (per.get(key, 0.0) if value is None else value, unit)

    for layer in LAYERS:
        put(f"{layer}.self_s", "s")
    for p in PRESETS:
        put(f"cli.clt_s.{p}", "s")
    put("io.load_s", "s")
    put("io.write_s", "s")
    put("io.bytes_written", "B")
    put("clt.build_s", "s")
    put("clt.conditions_s", "s")
    put("clt.run_clt_self_s", "s")
    put("heat.solve_s", "s")
    put("heat.solve_calls", "count")
    put("heat.node_updates", "count")
    put("heat.ns_per_node_update", "ns", _ratio(per.get("heat.solve_s"), per.get("heat.node_updates"), 1e9))
    for p in PRESETS:
        put(f"heat.us_per_step.{p}", "us", _ratio(per.get(f"_solve_s.{p}"), per.get(f"_solve_steps.{p}"), 1e6))
        put(f"heat.nodes.{p}", "count", nodes.get(p, 0))
    put("heat.semigroup_s", "s")
    put("heat.semigroup_legs", "count")
    put("heat.semigroup_node_updates", "count")
    put("nested.grid_s", "s")
    put("nested.grid_atom_updates", "count")
    put("nested.grid_ns_per_atom_update", "ns", _ratio(per.get("nested.grid_s"), per.get("nested.grid_atom_updates"), 1e9))
    for n in GRID_NS:
        put(f"nested.grid_us_per_step.n{n}", "us", _ratio(per.get(f"_grid_s.n{n}"), per.get(f"_grid_steps.n{n}"), 1e6))
    put("nested.exact_s", "s")
    put("nested.exact_calls", "count")
    put("nested.exact_failed", "count")
    calls = per.get("nested.exact_calls", 0.0)
    put("nested.exact_ok_ratio", "1", _ratio(calls - per.get("nested.exact_failed", 0.0), calls))
    for n in EXACT_NS:
        put(f"nested.exact_s.n{n}", "s")
    put("nested.bruteforce_s", "s")
    put("nested.bruteforce_policies", "count")
    for p in PRESETS:
        put(f"nested.distinct_step_share.{p}", "1", _ratio(per.get(f"_distinct.{p}"), per.get(f"_steps.{p}")))
    put("scenarios.verify_axioms_s", "s")
    put("scenarios.holder_check_s", "s")
    put("gfunction.verify_g_properties_s", "s")
    for c in CAMPAIGNS:
        put(f"verify.{c}_s", "s")
    put("verify.checks", "count")
    put("verify.failures", "count")

    traced_mean = statistics.fmean(traced_times)
    layer_self = sum(out[f"{layer}.self_s"][0] for layer in LAYERS)
    put("trace.pass_s", "s", traced_mean)
    put("trace.bench_self_s", "s", traced_mean - layer_self)
    put("trace.passes", "count", passes)
    put("trace.overhead_s", "s", statistics.median(traced_times) - statistics.median(untraced_times))
    put("setup.io_load_s", "s", sum(s.duration for s in setup if s.name == "io.load_preset"))
    put("setup.clt_build_s", "s", sum(s.duration for s in setup if s.name == "clt.build"))
    return out
