"""Test functions and their registry of wire names.

Every functional in this package is evaluated against functions of one or
two real coordinates. A ``TestFunction`` wraps a vectorized callable with
its dimension and a display name. A certificate that needs f + g or
lam * f forms it from the values of f and g (see ``scenarios``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericsError, ValidationError


@dataclass(frozen=True)
class TestFunction:
    """A vectorized real function of ``dim`` coordinates (dim in {1, 2}).

    ``fn`` receives one float ndarray per coordinate and must return an
    array broadcastable to the input shape.
    """

    fn: Callable[..., np.ndarray]
    dim: int = 1
    name: str = ""

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValidationError(f"test function dimension must be 1 or 2, got {self.dim}")

    def __call__(self, *coords) -> np.ndarray:
        if len(coords) != self.dim:
            raise ValidationError(
                f"{self.name or 'function'} takes {self.dim} coordinate(s), got {len(coords)}"
            )
        arrs = [np.asarray(c, dtype=float) for c in coords]
        out = np.asarray(self.fn(*arrs), dtype=float)
        if out.shape != arrs[0].shape:
            out = np.broadcast_to(out, arrs[0].shape)
        return out

    def finite_values(self, message: str, *coords) -> np.ndarray:
        """``self(*coords)``; raises ``NumericsError(message)`` unless every value is finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused, not warned about
            values = self(*coords)
        if not np.isfinite(values).all():
            raise NumericsError(message)
        return values

    def on_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, dim) array of points."""
        points = np.asarray(points, dtype=float)
        return self(*(points[:, i] for i in range(self.dim)))


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def const(c: float, dim: int = 1) -> TestFunction:
    return TestFunction(lambda *cs: np.full_like(cs[0], c), dim, f"const:{c:g}")


def identity() -> TestFunction:
    return TestFunction(lambda x: x, 1, "x")


def square() -> TestFunction:
    return TestFunction(lambda x: x * x, 1, "x^2")


def cosine() -> TestFunction:
    return TestFunction(np.cos, 1, "cos")


def abs_power(p: float) -> TestFunction:
    return TestFunction(lambda x: np.abs(x) ** p, 1, f"|x|^{p:g}")


def ramp(clip: float | None = None) -> TestFunction:
    """max(x, 0), optionally clipped to [0, clip]."""
    if clip is None:
        return TestFunction(lambda x: np.maximum(x, 0.0), 1, "relu")
    if not clip > 0:
        raise ValidationError(f"clip must be positive, got {clip!r}")
    return TestFunction(lambda x: np.clip(x, 0.0, clip), 1, f"relu_clip:{clip:g}")


def coord(index: int) -> TestFunction:
    """Coordinate ``index`` (0 for x, 1 for y) of a point in the plane."""
    if not 0 <= index < 2:
        raise ValidationError("coordinate index out of range")
    return TestFunction(lambda *cs: cs[index], 2, "xy"[index])


def coord_abs_power(index: int, p: float) -> TestFunction:
    """|coordinate ``index``|^p of a point in the plane."""
    if not 0 <= index < 2:
        raise ValidationError("coordinate index out of range")
    return TestFunction(lambda *cs: np.abs(cs[index]) ** p, 2, f"|{'xy'[index]}|^{p:g}")


def abs_product() -> TestFunction:
    return TestFunction(lambda x, y: np.abs(x * y), 2, "|xy|")


def named_function(name: str, dim: int = 1, params: dict[str, float] | None = None) -> TestFunction:
    """Resolve a function by its wire name (used by configs and the CLI).

    ``params`` holds the function's named parameters (a document's
    ``phi_params``): ``clip`` for ``relu_clip``, ``value`` for ``const``.
    """
    if dim == 1:
        table: dict[str, Callable[..., TestFunction]] = {
            "x": identity,
            "x2": square,
            "abs": lambda: abs_power(1.0),
            "abs3": lambda: abs_power(3.0),
            "cos": cosine,
            "relu": lambda: ramp(),  # not ``ramp``: its ``clip`` belongs to relu_clip
            "relu_clip": lambda clip=6.0: ramp(clip=float(clip)),
            "const": lambda value=1.0: const(float(value)),
        }
    elif dim == 2:
        table = {
            "x": lambda: coord(0),
            "y": lambda: coord(1),
            "x2": lambda: coord_abs_power(0, 2.0),
            "y2": lambda: coord_abs_power(1, 2.0),
            "abs3_x": lambda: coord_abs_power(0, 3.0),
            "abs3_y": lambda: coord_abs_power(1, 3.0),
            "absxy": abs_product,
            "const": lambda value=1.0: const(float(value), dim=2),
        }
    else:
        raise ValidationError(f"unsupported dimension {dim}")
    try:
        factory = table[name]
    except KeyError:
        raise ValidationError(
            f"phi {name!r} names no function of dimension {dim}; known: {sorted(table)}"
        ) from None
    params = params or {}
    known = inspect.signature(factory).parameters
    for key in params:
        if key not in known:
            raise ValidationError(
                f"phi_params.{key} is not a parameter of {name!r}; it takes {sorted(known)}"
            )
    try:
        return factory(**params)
    except ValidationError as exc:  # a parameter's value refused, named as phi_params.<key>
        raise ValidationError(f"phi_params.{exc}") from None
