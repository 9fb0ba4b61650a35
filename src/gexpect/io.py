"""JSON document loading and CSV/JSON report writing.

Wire formats:

* scenario/model document::

    { "steps": [ { "dists": [ { "atoms": [[x, y, w], ...] } ] } ],
      "label": "..." }

  Atom rows are ``[x, w]`` (one-dimensional) or ``[x, y, w]``. Weights that
  sum to 1 within 1e-9 are re-normalized; larger deviations are rejected.

* uncertainty bounds: ``{ "mu": [lo, hi], "sigma2": [lo, hi] }``

* solver config: ``{ "x_range": [lo, hi], "dx": ..., "dt": ...,
  "t_final": ..., "boundary": "clamp_phi" }``

* experiment preset: see ``load_preset``; the three shipped presets live in
  the ``presets/`` package data and can be addressed by bare name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clt import SequenceModel, build_iid_family, build_perturbed_family
from .errors import ValidationError
from .functions import TestFunction, named_function
from .gfunction import GParams
from .heat import SolverConfig, ValueFunction
from .nested import NestedEvalConfig
from .scenarios import DiscreteDistribution, ScenarioSet

LOADER_WEIGHT_TOL = 1e-9


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    return obj[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _pair(obj: dict, key: str, where: str) -> tuple[float, float]:
    pair = _require(obj, key, where)
    if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
        raise ValidationError(f"{where}.{key} must be [lo, hi] of finite numbers, got {pair!r}")
    return float(pair[0]), float(pair[1])


def parse_distribution(obj: dict, where: str) -> DiscreteDistribution:
    rows = _require(obj, "atoms", where)
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}: 'atoms' must be a nonempty list")
    atoms = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (2, 3):
            raise ValidationError(f"{where}: atom {k} must be [x, w] or [x, y, w]")
        *point, w = (float(v) for v in row)
        atoms.append((point, w))
    total = sum(w for _, w in atoms)
    if abs(total - 1.0) > LOADER_WEIGHT_TOL:
        raise ValidationError(
            f"{where}: weights sum to {total!r}; deviations beyond "
            f"{LOADER_WEIGHT_TOL} are rejected"
        )
    atoms = [(p, w / total) for p, w in atoms]
    return DiscreteDistribution(atoms)


def parse_scenario_set(obj: dict, where: str) -> ScenarioSet:
    dists_raw = _require(obj, "dists", where)
    if not isinstance(dists_raw, list) or not dists_raw:
        raise ValidationError(f"{where}: 'dists' must be a nonempty list")
    dists = [parse_distribution(d, f"{where}.dists[{j}]") for j, d in enumerate(dists_raw)]
    dim = dists[0].dim
    for j, d in enumerate(dists):
        if d.dim != dim:
            raise ValidationError(
                f"{where}: distribution {j} has dimension {d.dim}, expected {dim}"
            )
    return ScenarioSet(dists, label=str(obj.get("label", "")))


def load_steps_document(doc: dict) -> tuple[list[ScenarioSet], str]:
    """Parse the ``steps`` document shared by scenario sets and models."""
    steps_raw = _require(doc, "steps", "document")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ValidationError("document: 'steps' must be a nonempty list")
    steps = [parse_scenario_set(s, f"steps[{i}]") for i, s in enumerate(steps_raw)]
    return steps, str(doc.get("label", ""))


def parse_gparams(obj: dict, where: str = "gp") -> GParams:
    return GParams(*_pair(obj, "mu", where), *_pair(obj, "sigma2", where))


def parse_solver_config(obj: dict, where: str = "pde") -> SolverConfig:
    return SolverConfig(
        *_pair(obj, "x_range", where),
        dx=float(_require(obj, "dx", where)),
        dt=float(_require(obj, "dt", where)),
        t_final=float(_require(obj, "t_final", where)),
        boundary=str(obj.get("boundary", "clamp_phi")),
    )


def parse_nested_config(obj: dict, where: str = "dp") -> NestedEvalConfig:
    num = _require(obj, "num_points", where)
    if isinstance(num, bool) or not isinstance(num, int):
        raise ValidationError(f"{where}.num_points must be an integer, got {num!r}")
    return NestedEvalConfig(
        state_grid=(*_pair(obj, "x_range", where), num),
        mode=str(obj.get("mode", "grid_interp")),
        edge=str(obj.get("edge", "clamp")),
    )


def eps_from_rule(rule: dict, count: int) -> np.ndarray:
    """Materialize a perturbation schedule. Kinds: "zero",
    "harmonic" (scale/(i+offset)), "alternating-harmonic"."""
    kind = str(_require(rule, "kind", "eps_rule"))
    idx = np.arange(count, dtype=float)
    if kind == "zero":
        return np.zeros(count)
    offset = float(rule.get("offset", 4.0))
    scale = float(rule.get("scale", 1.0))
    if offset <= 0:
        raise ValidationError("eps_rule.offset must be positive")
    if kind == "harmonic":
        return scale / (idx + offset)
    if kind == "alternating-harmonic":
        return scale * (-1.0) ** np.arange(count) / (idx + offset)
    raise ValidationError(f"unknown eps_rule kind {kind!r}")


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    gp: GParams
    family: str
    sigma_levels: int
    mean_levels: int
    n_max: int
    eps_rule: dict | None
    phi: TestFunction
    n_schedule: tuple[int, ...]
    dp: NestedEvalConfig
    pde: SolverConfig
    tolerance: float
    output_dir: str = "out"

    def build_model(self) -> SequenceModel:
        base = build_iid_family(self.gp, self.sigma_levels, self.mean_levels, self.n_max)
        if self.family == "iid":
            return base
        eps = eps_from_rule(self.eps_rule or {"kind": "zero"}, self.n_max)
        return build_perturbed_family(base, eps)


def parse_preset(doc: dict) -> ExperimentPreset:
    name = str(_require(doc, "name", "preset"))
    family = str(_require(doc, "family", "preset"))
    if family not in ("iid", "perturbed"):
        raise ValidationError(f"preset.family must be 'iid' or 'perturbed', got {family!r}")
    fam = doc.get("family_params", {})
    schedule = tuple(int(v) for v in _require(doc, "n_schedule", "preset"))
    n_max = int(fam.get("n_max", max(schedule)))
    tolerance = _require(doc, "tolerance", "preset")
    if not _is_number(tolerance) or tolerance <= 0:
        raise ValidationError(f"preset.tolerance must be a positive finite number, got {tolerance!r}")
    phi = named_function(str(_require(doc, "phi", "preset")), dim=1, **doc.get("phi_params", {}))
    return ExperimentPreset(
        name=name,
        gp=parse_gparams(_require(doc, "gp", "preset")),
        family=family,
        sigma_levels=int(fam.get("sigma_levels", 2)),
        mean_levels=int(fam.get("mean_levels", 2)),
        n_max=n_max,
        eps_rule=doc.get("eps_rule"),
        phi=phi,
        n_schedule=schedule,
        dp=parse_nested_config(_require(doc, "dp", "preset")),
        pde=parse_solver_config(_require(doc, "pde", "preset")),
        tolerance=float(tolerance),
        output_dir=str(doc.get("output_dir", "out")),
    )


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def packaged_preset_names() -> list[str]:
    root = resources.files("gexpect").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(path_or_name: str | Path) -> ExperimentPreset:
    """Load a preset from a filesystem path or by shipped-preset name."""
    p = Path(path_or_name)
    if p.exists():
        return parse_preset(read_json(p))
    packaged = resources.files("gexpect").joinpath("presets", f"{path_or_name}.json")
    if packaged.is_file():
        return parse_preset(json.loads(packaged.read_text(encoding="utf-8")))
    raise ValidationError(
        f"preset {path_or_name!r} is neither a file nor a shipped preset "
        f"(shipped: {packaged_preset_names()})"
    )


# ---------------------------------------------------------------------------
# report writers (deterministic: repr round-trip floats, fixed ordering)
# ---------------------------------------------------------------------------

def write_convergence_csv(report, path: str | Path) -> None:
    lines = ["n,lhs,pde,e_n"]
    for n, lhs, pde, e_n in report.rows:
        lines.append(f"{n},{lhs!r},{pde!r},{e_n!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_value_function_csv(vf: ValueFunction, path: str | Path) -> None:
    lines = ["x,v"]
    for x, v in zip(vf.x, vf.grid_values):
        lines.append(f"{float(x)!r},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_condition_report_json(report, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
