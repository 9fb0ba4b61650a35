"""Test functions: their dimension and arity checks, and the wire-name registry."""

import numpy as np
import pytest

from gexpect import (
    DiscreteDistribution, GParams, NestedEvalConfig, SolverConfig, ValidationError, build_iid_family, expect,
    nested_expect, solve,
)
from gexpect.functions import TestFunction, coord, coord_abs_power, named_function, ramp
from gexpect.heat import stable_dt


def test_dimension_is_1_or_2():
    with pytest.raises(ValidationError, match="^test function dimension must be 1 or 2, got 3$"):
        TestFunction(lambda *cs: cs[0], 3)


def test_one_array_per_coordinate():
    f = TestFunction(lambda x, y: x + y, 2, "sum")
    assert f(np.array([1.0]), np.array([2.0])).tolist() == [3.0]
    with pytest.raises(ValidationError, match=r"^sum takes 2 coordinate\(s\), got 1$"):
        f(np.array([1.0]))


def test_a_scalar_valued_function_is_broadcast():
    """``fn`` may return a scalar; every reader sees it on each point."""
    two = TestFunction(lambda x: 2.0, 1, "two")
    assert two(np.array([-1.0, 0.0, 1.0])).tolist() == [2.0, 2.0, 2.0]
    gp = GParams(0.0, 0.0, 1.0, 4.0)
    model = build_iid_family(gp, 2, 1, 4)
    assert expect(two, DiscreteDistribution.symmetric_pair(1.0)) == 2.0
    for mode in ("grid_interp", "exact_lattice"):
        assert nested_expect(two, model, 4, NestedEvalConfig(mode=mode)) == 2.0
    cfg = SolverConfig(-2.0, 2.0, 0.5, stable_dt(gp, 0.5, 0.1), 0.1)
    assert solve(gp, two, cfg).grid_values.tolist() == [2.0] * 9


def test_clip_level_must_be_positive():
    assert ramp(clip=2.0)(np.array([-1.0, 1.0, 3.0])).tolist() == [0.0, 1.0, 2.0]
    for clip in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match=f"^clip must be positive, got {clip}$"):
            ramp(clip=clip)


@pytest.mark.parametrize(
    "make, at_y", [(coord, -2.0), (lambda index: coord_abs_power(index, 2.0), 4.0)], ids=["coord", "power"]
)
def test_coordinate_index_is_0_or_1(make, at_y):
    assert make(1)(np.array([-3.0]), np.array([-2.0])).tolist() == [at_y]
    for index in (2, -1):
        with pytest.raises(ValidationError, match="^coordinate index out of range$"):
            make(index)


def test_named_functions_have_dimension_1_or_2():
    with pytest.raises(ValidationError, match="^unsupported dimension 3$"):
        named_function("x", dim=3)
