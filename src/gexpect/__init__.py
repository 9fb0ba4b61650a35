"""Sublinear expectations over finite scenario sets, the G-heat equation,
and an empirical convergence harness for the robust central limit theorem
with mean uncertainty."""

from .clt import (
    ConditionReport,
    ConvergenceReport,
    SequenceModel,
    build_iid_family,
    build_perturbed_family,
    check_conditions,
    run_clt,
)
from .errors import NumericsError, Report, ValidationError
from .functions import TestFunction, named_function
from .gfunction import GParams, g_eval, verify_g_properties
from .heat import (
    SolverConfig,
    ValueFunction,
    cfl_limit,
    semigroup_check,
    solve,
    stable_dt,
    value_at,
)
from .nested import NestedEvalConfig, bruteforce_nested, count_policies, nested_expect
from .scenarios import (
    DiscreteDistribution,
    ScenarioSet,
    expect,
    holder_check,
    lower_expect,
    verify_axioms,
)

__all__ = [
    "ConditionReport",
    "ConvergenceReport",
    "DiscreteDistribution",
    "GParams",
    "NestedEvalConfig",
    "NumericsError",
    "Report",
    "ScenarioSet",
    "SequenceModel",
    "SolverConfig",
    "TestFunction",
    "ValidationError",
    "ValueFunction",
    "bruteforce_nested",
    "build_iid_family",
    "build_perturbed_family",
    "cfl_limit",
    "check_conditions",
    "count_policies",
    "expect",
    "g_eval",
    "holder_check",
    "lower_expect",
    "named_function",
    "nested_expect",
    "run_clt",
    "semigroup_check",
    "solve",
    "stable_dt",
    "value_at",
    "verify_axioms",
    "verify_g_properties",
]

__version__ = "0.1.0"
