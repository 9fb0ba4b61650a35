"""The three benchmark workloads: set-up, one timed pass, and the output check.

Each workload drives gexpect only through public functions. ``setup`` builds
the workload's inputs, ``prepare`` makes what a pass needs outside the timed
region, ``run`` is the timed pass, ``check`` compares its outputs with
``reference.json`` and ``cleanup`` removes what the pass left behind.

An operation is one ``cli.main`` command, one ``nested_expect`` call or one
verify campaign. ``check`` sorts every operation of a pass into one of three
outcomes:

* ok: it returned, and its output matches the reference;
* refused: it raised the refusal the reference records for this input (only
  the n=256 exact-lattice call, which hits ``LATTICE_NODE_CAP``);
* missed: anything else. A miss makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

TOL = 1e-12
PRESETS = ("classical-cos", "g-ambiguous", "g-perturbed")
GRID_NS = (8, 16, 32, 64, 128, 256, 512, 1024)
EXACT_NS = (16, 64, 144, 256)
DEEP_MODELS = ("g-ambiguous", "g-perturbed")
DEEP_N_MAX = GRID_NS[-1]
EXACT_MODEL = "g-ambiguous"
# message of the ValidationError nested_expect raises when the exact lattice
# is too large; the reference records this refusal for n=256
CAP_REFUSAL = "lattice state count exceeds cap"
SUMMARY = re.compile(r"^(PASS|FAIL) (\w+): (\d+) checks, (\d+) failures", re.M)


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    refused: int = 0
    misses: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if ok:
            self.ok += count
        else:
            self.misses.extend([what] * count)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.refused += other.refused
        self.misses.extend(other.misses)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _rows_match(got, want) -> list[bool]:
    """Per reference row: is there a row with the same n, lhs and pde?"""
    by_n = {int(r[0]): r for r in got}
    out = []
    for n, lhs, pde in want:
        r = by_n.get(int(n))
        out.append(r is not None and _close(float(r[1]), lhs) and _close(float(r[2]), pde))
    return out


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def conditions_summary(doc: dict) -> dict:
    """The condition report fields the check compares, from its JSON."""
    return {
        "steps": len(doc["mean_residuals"]),
        "max_abs_mean_residual": max(abs(v) for r in doc["mean_residuals"] for v in r),
        "third_moment_bound": doc["third_moment_bound"],
        "beta": doc["beta"],
        "cesaro_x_last": doc["cesaro_x"][-1],
        "cesaro_y_last": doc["cesaro_y"][-1],
    }


class CltPresets:
    """``gexpect clt --config <preset> --out <fresh dir>`` for each shipped preset.

    Each pass writes into new, empty directories. On an ext4 disk, opening an
    existing file with truncation took 24-37 ms where creating a new one took
    0.01 ms, so rewriting into one ``--out`` directory raised a pass from
    0.53 s to about 0.8 s; that extra time is the filesystem, not gexpect.
    ``io.write_s`` in the traced run still times the writers.
    """

    def setup(self, gx, tr):
        return {p: tr.call("io.load_preset", "io", p, gx.io.load_preset, p) for p in PRESETS}

    def prepare(self, out_root: Path):
        return {p: tempfile.mkdtemp(prefix=f"{p}-", dir=out_root) for p in PRESETS}

    def run(self, gx, tr, inputs, dirs):
        outputs = {}
        for p in PRESETS:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = tr.call("cli.main", "cli", p, gx.cli.main, ["clt", "--config", p, "--out", dirs[p]])
                outputs[p] = (rc, None)
            except (Exception, SystemExit) as exc:  # argparse exits through SystemExit
                outputs[p] = (None, _failure(exc))
        return outputs

    def check(self, outputs, dirs, ref) -> Tally:
        tally = Tally()
        for p in PRESETS:
            want = ref[p]
            rc, err = outputs[p]
            n_rows = len(want["rows"])
            if err is not None or rc != want["exit_code"]:
                tally.add(False, f"{p}: exit {rc} (want {want['exit_code']}) {err or ''}", 1 + n_rows)
                continue
            try:
                with open(Path(dirs[p]) / f"{p}.csv", newline="", encoding="utf-8") as fh:
                    got = [(r["n"], r["lhs"], r["pde"]) for r in csv.DictReader(fh)]
                cond = json.loads((Path(dirs[p]) / f"{p}-conditions.json").read_text(encoding="utf-8"))
                summary = conditions_summary(cond)
            except (OSError, KeyError, ValueError) as exc:
                tally.add(False, f"{p}: unreadable output: {_failure(exc)}", 1 + n_rows)
                continue
            rows_ok = _rows_match(got, want["rows"])
            for (n, _, _), ok in zip(want["rows"], rows_ok):
                tally.add(ok, f"{p}: row n={n} differs from the reference")
            cond_ok = summary["steps"] == want["conditions"]["steps"] and all(
                _close(summary[k], v) for k, v in want["conditions"].items()
            )
            tally.add(all(rows_ok) and cond_ok, f"{p}: command output differs from the reference")
        return tally

    def cleanup(self, dirs) -> None:
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)


class DeepNested:
    """``run_clt`` to n=1024 on the g-ambiguous and g-perturbed models, plus
    exact-lattice ``nested_expect`` on g-ambiguous at n = 16, 64, 144, 256."""

    def setup(self, gx, tr):
        models = {}
        for p in DEEP_MODELS:
            preset = tr.call("io.load_preset", "io", p, gx.io.load_preset, p)
            base = tr.call(
                "clt.build", "clt", p, gx.clt.build_iid_family,
                preset.gp, preset.sigma_levels, preset.mean_levels, DEEP_N_MAX,
            )
            if preset.family == "perturbed":
                eps = gx.io.eps_from_rule(preset.eps_rule, DEEP_N_MAX)
                base = tr.call("clt.build", "clt", p, gx.clt.build_perturbed_family, base, eps)
            models[p] = (preset, base)
        exact_cfg = gx.nested.NestedEvalConfig(mode="exact_lattice")
        return models, exact_cfg

    def prepare(self, out_root: Path):
        return None

    def run(self, gx, tr, inputs, _state):
        models, exact_cfg = inputs
        reports, exact = {}, {}
        for p in DEEP_MODELS:
            preset, model = models[p]
            try:
                reports[p] = tr.call(
                    "clt.run_clt", "clt", p, gx.clt.run_clt,
                    model, preset.phi, GRID_NS, preset.dp, preset.pde,
                )
            except Exception as exc:  # every failure is reported by check
                reports[p] = _failure(exc)
        preset, model = models[EXACT_MODEL]
        for n in EXACT_NS:
            try:
                exact[n] = tr.call(
                    "nested.nested_expect", "nested", EXACT_MODEL, gx.nested.nested_expect,
                    preset.phi, model, n, exact_cfg,
                )
            except gx.errors.ValidationError as exc:
                exact[n] = ("refused", str(exc))
            except Exception as exc:
                exact[n] = ("error", _failure(exc))
        return reports, exact

    def check(self, outputs, _state, ref) -> Tally:
        reports, exact = outputs
        tally = Tally()
        for p in DEEP_MODELS:
            want = ref["run_clt"][p]
            got = reports[p]
            if isinstance(got, str):
                tally.add(False, f"run_clt {p}: {got}", 1 + len(want))
                continue
            rows_ok = _rows_match(got.rows, want)
            for (n, _, _), ok in zip(want, rows_ok):
                tally.add(ok, f"run_clt {p}: n={n} differs from the reference")
            tally.add(all(rows_ok), f"run_clt {p}: report differs from the reference")
        for n in EXACT_NS:
            got, want = exact[n], ref["exact"][str(n)]
            if isinstance(got, float):
                tally.add(_close(got, want), f"exact n={n}: {got!r} != {want!r}")
            elif got[0] == "refused" and str(n) in ref["refused_at_record"] and CAP_REFUSAL in got[1]:
                tally.attempted += 1
                tally.refused += 1
            else:
                tally.add(False, f"exact n={n}: {got[1]}")
        return tally

    def cleanup(self, _state) -> None:
        pass


class VerifyAll:
    """``gexpect verify all --seed <seed>``: every randomized campaign."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, gx, tr):
        return None

    def prepare(self, out_root: Path):
        return None

    def run(self, gx, tr, _inputs, _state):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = tr.call("cli.main", "cli", None, gx.cli.main, ["verify", "all", "--seed", str(self.seed)])
            return rc, buf.getvalue(), None
        except (Exception, SystemExit) as exc:  # argparse exits through SystemExit
            return None, buf.getvalue(), _failure(exc)

    def check(self, outputs, _state, ref) -> Tally:
        rc, text, err = outputs
        want = ref["checks"]
        oracle_calls = want["oracle"]
        tally = Tally()
        if err is not None or rc != ref["exit_code"]:
            tally.add(False, f"verify all: exit {rc} {err or ''}", 1 + len(want) + oracle_calls)
            return tally
        got = {m[2]: (m[1], int(m[3]), int(m[4])) for m in SUMMARY.finditer(text)}
        for suite, checks in want.items():
            status, n_checks, failures = got.get(suite, ("missing", -1, -1))
            ok = status == "PASS" and n_checks == checks and failures == 0
            tally.add(ok, f"verify {suite}: {status} {n_checks} checks, {failures} failures")
            if suite == "oracle":
                bad = oracle_calls if n_checks != checks else failures
                tally.add(True, "", oracle_calls - bad)
                tally.add(False, "oracle: nested_expect differs from brute force", bad)
        tally.add(set(got) == set(want), f"verify all: campaigns {sorted(got)}")
        return tally

    def cleanup(self, _state) -> None:
        pass


WORKLOADS = ("clt-presets", "deep-nested", "verify-all")


def make(name: str, seed: int):
    if name == "clt-presets":
        return CltPresets()
    if name == "deep-nested":
        return DeepNested()
    if name == "verify-all":
        return VerifyAll(seed)
    raise ValueError(f"unknown workload {name!r}")
