"""Test functions: their dimension and arity checks, and the wire-name registry."""

import numpy as np
import pytest

from gexpect import ValidationError
from gexpect.functions import TestFunction, coord, coord_abs_power, named_function, ramp


def test_dimension_is_1_or_2():
    with pytest.raises(ValidationError, match="^test function dimension must be 1 or 2, got 3$"):
        TestFunction(lambda *cs: cs[0], 3)


def test_one_array_per_coordinate():
    f = TestFunction(lambda x, y: x + y, 2, "sum")
    assert f(np.array([1.0]), np.array([2.0])).tolist() == [3.0]
    with pytest.raises(ValidationError, match=r"^sum takes 2 coordinate\(s\), got 1$"):
        f(np.array([1.0]))


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
