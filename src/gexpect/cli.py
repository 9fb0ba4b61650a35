"""Batch front door.

Subcommands: ``expect``, ``clt``, ``verify``, ``solve``, ``check-conditions``.
Exit codes are a stable contract: 0 success, 1 convergence/verification
criterion missed (or a reader of stdout gone, ended silently), 2 validation
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .clt import check_conditions, run_clt
from .errors import NumericsError, ValidationError
from .functions import named_function
from .heat import solve
from .io import (
    load_preset,
    load_solve_document,
    load_steps_document,
    read_json,
    write_condition_report_json,
    write_convergence_csv,
    write_value_function_csv,
)
from .scenarios import expect, lower_expect
from .verify import SUITES, run_suite, run_suites  # bench/tracing.py rebinds cli.run_suite

DEFAULT_SEED = 20260801


def cmd_expect(config_path: str, function_name: str) -> int:
    steps, _ = load_steps_document(read_json(config_path))
    phi = named_function(function_name, dim=steps[0].dim)
    for i, s in enumerate(steps):
        upper = expect(phi, s)
        lower = lower_expect(phi, s)
        prefix = f"step {i}: " if len(steps) > 1 else ""
        print(f"{prefix}E[{phi.name}] = {upper!r}   -E[-{phi.name}] = {lower!r}")
    return 0


def cmd_clt(preset_path: str, out_dir: str) -> int:
    preset = load_preset(preset_path)
    model = preset.build_model()
    report = run_clt(model, preset.phi, preset.n_schedule, preset.dp, preset.pde)
    conditions = check_conditions(model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{preset.name}.csv"
    json_path = out / f"{preset.name}-conditions.json"
    write_convergence_csv(report, csv_path)
    write_condition_report_json(conditions, json_path)
    for n, lhs, pde, e_n in report.rows:
        print(f"n={n:<5d} lhs={lhs:.8f}  pde={pde:.8f}  e_n={e_n:.3e}")
    print(f"wrote {csv_path} and {json_path}")
    if report.final_error <= preset.tolerance:
        print(f"converged: final e_n = {report.final_error:.3e} <= tolerance {preset.tolerance:g}")
        return 0
    print(f"criterion missed: final e_n = {report.final_error:.3e} > tolerance {preset.tolerance:g}")
    return 1


def cmd_verify(suite_name: str, seed: int) -> int:
    names = sorted(SUITES) if suite_name == "all" else [suite_name]
    if any(n not in SUITES for n in names):
        raise ValidationError(f"unknown suite {suite_name!r}; available: {sorted(SUITES) + ['all']}")
    if seed < 0:
        raise ValidationError(f"--seed must be a nonnegative integer, got {seed}")
    results = run_suites(names, seed)
    for result in results:
        print(f"{result.summary()}, seed={seed}")
        for line in result.details:
            print(f"  {line}")
    return 0 if all(r.passed for r in results) else 1


def cmd_solve(config_path: str, out_dir: str) -> int:
    gp, phi, cfg, label = load_solve_document(read_json(config_path))
    vf = solve(gp, phi, cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{label}.csv"
    write_value_function_csv(vf, path)
    print(f"wrote {path} ({vf.grid_values.size} nodes at t={cfg.t_final:g})")
    return 0


def cmd_check_conditions(preset_path: str, out_dir: str) -> int:
    preset = load_preset(preset_path)
    model = preset.build_model()
    report = check_conditions(model)
    out = Path(out_dir)
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
    writes = argparse.ArgumentParser(add_help=False)  # the option of every command that writes files
    writes.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("expect", help="upper/lower expectation of a named function")
    p.add_argument("function", help="function name (e.g. x, x2, cos)")
    p.add_argument("--config", required=True, help="scenario document (JSON)")

    p = sub.add_parser("clt", parents=[writes], help="run a convergence experiment preset")
    p.add_argument("--config", required=True, help="preset path or shipped preset name")

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("suite", help=f"one of {sorted(SUITES) + ['all']}")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("solve", parents=[writes], help="solve the PDE and dump the profile as CSV")
    p.add_argument("--config", required=True, help="document with gp, phi, pde")

    p = sub.add_parser("check-conditions", parents=[writes], help="hypothesis report for a preset's model")
    p.add_argument("--config", required=True, help="preset path or shipped preset name")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "expect": lambda: cmd_expect(args.config, args.function),
        "clt": lambda: cmd_clt(args.config, args.out),
        "verify": lambda: cmd_verify(args.suite, args.seed),
        "solve": lambda: cmd_solve(args.config, args.out),
        "check-conditions": lambda: cmd_check_conditions(args.config, args.out),
    }
    try:
        try:
            code = commands[args.command]()
        except BrokenPipeError:
            raise
        except (OSError, ValidationError, NumericsError) as exc:
            print(f"error: {exc}")
            code = 2
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes nowhere, and quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
