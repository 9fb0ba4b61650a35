"""Batch front door.

Subcommands: ``expect``, ``clt``, ``verify``, ``solve``, ``check-conditions``.
Exit codes are a stable contract: 0 success, 1 convergence/verification
criterion missed, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .clt import check_conditions, run_clt
from .errors import NumericsError, ValidationError
from .functions import named_function
from .heat import solve
from .io import (
    known_keys,
    load_preset,
    load_steps_document,
    output_stem,
    parse_gparams,
    parse_phi,
    parse_solver_config,
    positive_number,
    read_json,
    write_condition_report_json,
    write_convergence_csv,
    write_value_function_csv,
)
from .scenarios import expect, lower_expect
from .verify import SUITES, run_suite

DEFAULT_SEED = 20260801


def cmd_expect(config_path: str, function_name: str) -> int:
    doc = read_json(config_path)
    steps, label = load_steps_document(doc)
    phi = named_function(function_name, dim=steps[0].dim)
    for i, s in enumerate(steps):
        upper = expect(phi, s)
        lower = lower_expect(phi, s)
        prefix = f"step {i}: " if len(steps) > 1 else ""
        print(f"{prefix}E[{phi.name}] = {upper!r}   -E[-{phi.name}] = {lower!r}")
    return 0


def cmd_clt(preset_path: str, out_dir: str | None, tol_override: float | None) -> int:
    preset = load_preset(preset_path)
    tolerance = preset.tolerance if tol_override is None else positive_number(tol_override, "--tol")
    model = preset.build_model()
    report = run_clt(model, preset.phi, preset.n_schedule, preset.dp, preset.pde)
    conditions = check_conditions(model)
    out = Path(out_dir if out_dir is not None else preset.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{preset.name}.csv"
    json_path = out / f"{preset.name}-conditions.json"
    write_convergence_csv(report, csv_path)
    write_condition_report_json(conditions, json_path)
    for n, lhs, pde, e_n in report.rows:
        print(f"n={n:<5d} lhs={lhs:.8f}  pde={pde:.8f}  e_n={e_n:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    if report.final_error <= tolerance:
        print(f"converged: final e_n = {report.final_error:.3e} <= tolerance {tolerance:g}")
        return 0
    print(f"criterion missed: final e_n = {report.final_error:.3e} > tolerance {tolerance:g}")
    return 1


def cmd_verify(suite_name: str, seed: int) -> int:
    names = sorted(SUITES) if suite_name == "all" else [suite_name]
    if any(n not in SUITES for n in names):
        print(f"unknown suite {suite_name!r}; available: {sorted(SUITES) + ['all']}")
        return 2
    ok = True
    for name in names:
        result = run_suite(name, seed=seed)
        print(f"{result.summary()}, seed={seed}")
        for line in result.details:
            print(f"  {line}")
        ok = ok and result.passed
    return 0 if ok else 1


def cmd_solve(config_path: str, out_dir: str) -> int:
    doc = read_json(config_path)
    known_keys(doc, ("label", "gp", "phi", "phi_params", "pde"), "document")
    gp = parse_gparams(doc.get("gp", {}))
    cfg = parse_solver_config(doc.get("pde", {}), gp, None)
    doc.setdefault("phi", "cos")
    phi = parse_phi(doc, "document")
    label = output_stem(doc.get("label", "value_function"), "document.label")
    vf = solve(gp, phi, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{label}.csv"
    write_value_function_csv(vf, path)
    print(f"wrote {path} ({vf.grid_values.size} nodes at t={vf.t:g})")
    return 0


def cmd_check_conditions(preset_path: str, out_dir: str | None) -> int:
    preset = load_preset(preset_path)
    model = preset.build_model()
    report = check_conditions(model)
    out = Path(out_dir if out_dir is not None else preset.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{preset.name}-conditions.json"
    write_condition_report_json(report, path)
    worst_mean = max(max(abs(u), abs(l)) for u, l in report.mean_residuals)
    print(f"steps={len(report.mean_residuals)}  worst |mean residual|={worst_mean!r}")
    print(f"third moment bound M={report.third_moment_bound!r}  beta={report.beta!r}")
    print(f"cesaro_x: first={report.cesaro_x[0]:.6g} last={report.cesaro_x[-1]:.6g}")
    print(f"cesaro_y: first={report.cesaro_y[0]:.6g} last={report.cesaro_y[-1]:.6g}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gexpect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="upper/lower expectation of a named function")
    p.add_argument("function", help="function name (e.g. x, x2, cos)")
    p.add_argument("--config", required=True, help="scenario document (JSON)")

    p = sub.add_parser("clt", help="run a convergence experiment preset")
    p.add_argument("--config", required=True, help="preset path or shipped preset name")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--tol", type=float, default=None, help="override the preset tolerance")

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES) + ['all']}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("solve", help="solve the PDE and dump the profile as CSV")
    p.add_argument("--config", required=True, help="document with gp, phi, pde")
    p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("check-conditions", help="hypothesis report for a preset's model")
    p.add_argument("--config", required=True, help="preset path or shipped preset name")
    p.add_argument("--out", default=None, help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "expect":
            return cmd_expect(args.config, args.function)
        if args.command == "clt":
            return cmd_clt(args.config, args.out, args.tol)
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed)
        if args.command == "solve":
            return cmd_solve(args.config, args.out)
        if args.command == "check-conditions":
            return cmd_check_conditions(args.config, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}")
        return 2
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    except (ValidationError, NumericsError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
