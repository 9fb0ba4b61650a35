"""Test functions, plus the small calculus on them.

Every functional in this package is evaluated against functions of one or
two real coordinates. A ``TestFunction`` wraps a vectorized callable with
its dimension and a display name.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError


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

    def on_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on an (n, dim) array of points."""
        points = np.asarray(points, dtype=float)
        return self(*(points[:, i] for i in range(self.dim)))


def scale(f: TestFunction, lam: float) -> TestFunction:
    inner = f.fn
    return TestFunction(
        fn=lambda *cs: lam * np.asarray(inner(*cs), dtype=float),
        dim=f.dim,
        name=f"{lam:g}*{f.name}" if f.name else "",
    )


def negate(f: TestFunction) -> TestFunction:
    return TestFunction(scale(f, -1.0).fn, f.dim, f"-{f.name}" if f.name else "")


def add(f: TestFunction, g: TestFunction) -> TestFunction:
    if f.dim != g.dim:
        raise ValidationError("cannot add test functions of different dimensions")
    ff, gf = f.fn, g.fn
    return TestFunction(
        fn=lambda *cs: np.asarray(ff(*cs), dtype=float) + np.asarray(gf(*cs), dtype=float),
        dim=f.dim,
        name=f"{f.name}+{g.name}" if f.name and g.name else "",
    )


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
    if clip <= 0:
        raise ValidationError("clip level must be positive")
    return TestFunction(lambda x: np.clip(x, 0.0, clip), 1, f"relu_clip:{clip:g}")


def coord(index: int, dim: int = 2) -> TestFunction:
    if not 0 <= index < dim:
        raise ValidationError("coordinate index out of range")
    return TestFunction(lambda *cs: cs[index], dim, "xy"[index])


def coord_abs_power(index: int, p: float, dim: int = 2) -> TestFunction:
    if not 0 <= index < dim:
        raise ValidationError("coordinate index out of range")
    return TestFunction(lambda *cs: np.abs(cs[index]) ** p, dim, f"|{'xy'[index]}|^{p:g}")


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
            f"unknown function {name!r} for dimension {dim}; known: {sorted(table)}"
        ) from None
    params = params or {}
    known = inspect.signature(factory).parameters
    for key in params:
        if key not in known:
            raise ValidationError(
                f"phi_params.{key} is not a parameter of {name!r}; it takes {sorted(known)}"
            )
    return factory(**params)
