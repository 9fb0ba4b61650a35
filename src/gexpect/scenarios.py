"""Finitely supported laws, scenario sets, and upper expectations.

A scenario set is a finite, nonempty family of discrete probability laws,
and a classical law (``DiscreteDistribution``) is the set with one member.
``ScenarioSet(sets)`` is the union of the laws of the sets it is given.
Its upper envelope

    E_sup[f] = max over laws d of sum_atoms weight * f(point)

is a sublinear expectation by construction: it is monotone, constant
preserving, sub-additive, and positively homogeneous. ``verify_axioms``
certifies those four properties numerically on supplied test functions,
and ``holder_check`` certifies the Hoelder and Lyapunov inequalities for
two-dimensional sets. Each reads a function's values on the atoms once, and
takes f + g, lam * f or -f as the sum, multiple or negation of values.

Storage: a set keeps its laws as flat arrays, ``points`` (A, dim) and
``weights`` (A,) holding the atoms of every law in turn, and ``starts``,
the index of each law's first atom. ``expect`` evaluates a function once
on all points and takes every law's sum with ``law_sums``, the one sum
helper every caller shares. Its sums run in numpy's reduction order, which
is the same on every CPU, not in the order of BLAS ``ddot``, which is not.
``canonical_laws`` validates laws given as flat atoms and puts them in
canonical order, for one law or for many at once.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import Report, ValidationError
from .functions import TestFunction, abs_product, coord_abs_power

WEIGHT_SUM_TOL = 1e-12


def law_sums(weights: np.ndarray, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per law, the sum of weight * value over its atoms; law k owns the
    flat atoms from ``starts[k]`` up to the next law's start."""
    return np.add.reduceat(weights * values, starts)


def _heads(differs: np.ndarray) -> np.ndarray:
    """Index of the first item of each run, where ``differs[i]`` says item i + 1 starts one."""
    return np.flatnonzero(np.concatenate(([True], differs)))


def canonical_laws(points: np.ndarray, weights: np.ndarray, law: np.ndarray):
    """Validate laws given as flat atoms and put each in canonical order.

    ``law`` is the nondecreasing law index of each atom. Weights must be
    finite and >= 0, each law's must sum to 1 within ``WEIGHT_SUM_TOL``,
    and points must be finite. One stable sort keyed by law, then by point,
    orders the atoms; exact duplicate points of a law are merged, their
    weights summed left to right. Returns ``(points, weights, starts)``.
    """
    if not np.isfinite(weights).all() or (weights < 0).any():
        raise ValidationError("weights must be finite and >= 0")
    totals = np.add.reduceat(weights, _heads(law[1:] != law[:-1]))
    bad = np.flatnonzero(np.abs(totals - 1.0) > WEIGHT_SUM_TOL)
    if bad.size:
        raise ValidationError(
            f"weights sum to {float(totals[bad[0]])!r}, expected 1 within {WEIGHT_SUM_TOL}"
        )
    if not np.isfinite(points).all():
        raise ValidationError("atom points must be finite")
    order = np.lexsort((*points.T[::-1], law))
    points, weights, law = points[order], weights[order], law[order]
    first = _heads((law[1:] != law[:-1]) | (points[1:] != points[:-1]).any(axis=1))
    merged = weights[first]
    runs = np.diff(first, append=weights.size)
    for k in range(1, int(runs.max())):  # the k-th duplicate of every run, in turn
        live = runs > k
        merged[live] += weights[first[live] + k]
    law = law[first]
    return points[first], merged, _heads(law[1:] != law[:-1])


class ScenarioSet:
    """A nonempty family of discrete laws of equal dimension, stored flat.

    ``ScenarioSet(sets)`` is the union of the laws of the sets it is given,
    in turn, whether each is a single law (``DiscreteDistribution``) or a
    family. ``points`` (A, dim) and ``weights`` (A,) hold the atoms of every
    law in turn, and law k owns the atoms from ``starts[k]`` up to the next
    law's start. ``dists`` gives the laws as one-law views.
    """

    __slots__ = ("points", "weights", "starts", "label")

    def __init__(self, sets, label: str = "") -> None:
        sets = tuple(sets)
        if not sets:
            raise ValidationError("scenario set must contain at least one distribution")
        dim = sets[0].dim
        for i, s in enumerate(sets):
            if s.dim != dim:
                raise ValidationError(f"distribution {i} has dimension {s.dim}, expected {dim}")
        offsets = list(accumulate([s.n_atoms for s in sets[:-1]], initial=0))
        self.points = np.concatenate([s.points for s in sets])
        self.weights = np.concatenate([s.weights for s in sets])
        self.starts = np.concatenate([s.starts for s in sets]) + np.repeat(offsets, list(map(len, sets)))
        self.label = label

    @classmethod
    def _flat(cls, points, weights, starts, label: str = "") -> "ScenarioSet":
        """A set over flat atoms whose laws are already canonical."""
        s = cls.__new__(cls)
        s.points, s.weights, s.starts, s.label = points, weights, starts, label
        return s

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def dists(self) -> tuple["DiscreteDistribution", ...]:
        cuts, first = self.starts[1:], np.zeros(1, dtype=np.intp)
        return tuple(
            DiscreteDistribution._flat(p, w, first)
            for p, w in zip(np.split(self.points, cuts), np.split(self.weights, cuts))
        )

    def __len__(self) -> int:
        return self.starts.size

    def __repr__(self) -> str:
        lbl = f" {self.label!r}" if self.label else ""
        return f"ScenarioSet({len(self)} dists, dim={self.dim}{lbl})"


class DiscreteDistribution(ScenarioSet):
    """A finitely supported law on R^k, k in {1, 2}: a scenario set of one law.

    ``atoms`` is a sequence of ``(point, weight)`` pairs; 1-d points may be
    plain floats. Atoms are canonically sorted by point; exact duplicate
    points are merged (weights summed), so points end up pairwise distinct.
    Points must be finite; weights must be >= 0 and sum to 1 within 1e-12.
    """

    def __init__(self, atoms) -> None:
        pts, wts = [], []
        for i, (pt, w) in enumerate(atoms):
            p = np.atleast_1d(np.asarray(pt, dtype=float))
            if p.ndim != 1 or p.size not in (1, 2):
                raise ValidationError(f"atom {i}: point must have dimension 1 or 2")
            pts.append(p)
            wts.append(float(w))
        if not pts:
            raise ValidationError("a distribution needs at least one atom")
        dim = pts[0].size
        for i, p in enumerate(pts):
            if p.size != dim:
                raise ValidationError(f"atom {i}: dimension {p.size} != {dim}")
        self.points, self.weights, self.starts = canonical_laws(
            np.vstack(pts), np.asarray(wts, dtype=float), np.zeros(len(wts), dtype=np.intp)
        )
        self.label = ""

    @classmethod
    def point_mass(cls, point) -> "DiscreteDistribution":
        return cls([(point, 1.0)])

    @classmethod
    def symmetric_pair(cls, magnitude: float) -> "DiscreteDistribution":
        """Fair two-point law on {-magnitude, +magnitude} (1-d)."""
        return cls([(magnitude, 0.5), (-magnitude, 0.5)])

    def __repr__(self) -> str:
        return f"DiscreteDistribution({self.n_atoms} atoms, dim={self.dim})"


def stack_sets(sets) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """The flat atoms of the union of several sets: ``(points, weights,
    starts, firsts)``, where ``starts`` indexes each law's first atom and
    the list ``firsts`` each set's first law."""
    union = ScenarioSet(sets)
    firsts = list(accumulate([len(s) for s in sets[:-1]], initial=0))
    return union.points, union.weights, union.starts, firsts


def _values(phi: TestFunction, s: ScenarioSet) -> np.ndarray:
    """``phi`` on every atom of ``s``, refused unless the dimensions match and every value is finite."""
    if phi.dim != s.dim:
        raise ValidationError(f"function dimension {phi.dim} != scenario dimension {s.dim}")
    return phi.finite_values(f"{phi.name or 'phi'} is not finite on the atoms", *s.points.T)


def _sup(s: ScenarioSet, values: np.ndarray) -> float:
    """The largest per-law sum of weight * value: the upper expectation of ``values``."""
    return float(law_sums(s.weights, values, s.starts).max())


def expect(phi: TestFunction, s: ScenarioSet) -> float:
    """Upper expectation: max over the family of the classical expectation."""
    return _sup(s, _values(phi, s))


def lower_expect(phi: TestFunction, s: ScenarioSet) -> float:
    """Lower expectation -E_sup[-phi]; always <= expect(phi, s)."""
    return -_sup(s, -_values(phi, s))


_AXIOMS = ("monotonicity", "constant_preserving", "subadditivity", "positive_homogeneity")
_HOMOGENEITY_LAMBDAS = (0.0, 0.5, 1.0, 2.0)


def verify_axioms(s: ScenarioSet, fns, tol: float) -> dict[str, Report]:
    """Check the four sublinear-expectation axioms on the supplied functions.

    Returns one report per axiom, keyed by its name: "monotonicity",
    "constant_preserving", "subadditivity", "positive_homogeneity". Each
    check records its signed violation; ``worst`` is the largest, or 0.

    Monotonicity is checked on ordered pairs (f, g) with f >= g pointwise on
    the union of the set's atoms (the only points the envelope can see).
    Constant preservation is checked for functions that are constant on that
    union. Sub-additivity and positive homogeneity (lambda in {0, 1/2, 1, 2})
    are checked on all pairs / functions.
    """
    fns = list(fns)
    if not fns:
        raise ValidationError("need at least one test function")
    vals = [_values(f, s) for f in fns]
    ups = [_sup(s, v) for v in vals]
    names = [f.name or str(i) for i, f in enumerate(fns)]
    mono, cpres, sub, homog = reports = [Report(name) for name in _AXIOMS]

    for i in range(len(fns)):
        for j in range(len(fns)):
            if i != j and np.min(vals[i] - vals[j]) >= 0:
                mono.record(
                    ups[i] >= ups[j] - tol, ups[j] - ups[i],
                    "%s >= %s pointwise but E[%s]=%r < E[%s]=%r",
                    names[i], names[j], names[i], ups[i], names[j], ups[j],
                )

    for i in range(len(fns)):
        if np.ptp(vals[i]) == 0.0:
            c = float(vals[i][0])
            gap = abs(ups[i] - c)
            cpres.record(gap <= tol, gap, "E[const %r] = %r", c, ups[i])

    for i in range(len(fns)):
        for j in range(i, len(fns)):
            lhs = _sup(s, vals[i] + vals[j])
            rhs = ups[i] + ups[j]
            sub.record(
                lhs <= rhs + tol, lhs - rhs, "E[%s+%s]=%r > %r", names[i], names[j], lhs, rhs
            )

    for i in range(len(fns)):
        for lam in _HOMOGENEITY_LAMBDAS:
            lhs = _sup(s, lam * vals[i])
            gap = abs(lhs - lam * ups[i])
            homog.record(gap <= tol, gap, "E[%g*%s]=%r != %r", lam, names[i], lhs, lam * ups[i])

    return {r.name: r for r in reports}


def holder_check(s: ScenarioSet, p: float, q: float, tol: float) -> bool:
    """Hoelder inequality on a 2-d set, plus Lyapunov monotonicity at p'=p+1.

    Checks  E|XY| <= (E|X|^p)^(1/p) (E|Y|^q)^(1/q) + tol  and
    (E|X|^r)^(1/r) <= (E|X|^r')^(1/r') + tol for r <= r' in {p, p+1}.
    """
    if not (p > 1 and q > 1):
        raise ValidationError("need p, q > 1")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ValidationError(f"1/p + 1/q = {1.0 / p + 1.0 / q!r}, expected 1 within 1e-12")
    if s.dim != 2:
        raise ValidationError("holder_check needs a 2-dimensional scenario set")

    e_xy = expect(abs_product(), s)
    e_xp = expect(coord_abs_power(0, p), s)
    e_yq = expect(coord_abs_power(1, q), s)
    if e_xy > e_xp ** (1.0 / p) * e_yq ** (1.0 / q) + tol:
        return False
    lhs = e_xp ** (1.0 / p)
    if lhs > lhs + tol:  # r = r' = p, which only a negative tol fails
        return False
    return not lhs > expect(coord_abs_power(0, p + 1.0), s) ** (1.0 / (p + 1.0)) + tol
