"""JSON document loading and CSV/JSON report writing.

Wire formats:

* scenario/model document::

    { "steps": [ { "dists": [ { "atoms": [[x, y, w], ...] } ] } ],
      "label": "..." }

  Atom rows are ``[x, w]`` (one-dimensional) or ``[x, y, w]``. Weights that
  sum to 1 within 1e-9 are re-normalized; larger deviations are rejected.

* uncertainty bounds: ``{ "mu": [lo, hi], "sigma2": [lo, hi] }``

* PDE section: ``{ "x_range": [lo, hi], "dx": ... }``. The time step is
  derived, ``dt = stable_dt(gp, dx, t_final)``, and a preset's horizon is
  t = 1, the time of the limit value. The ``gexpect solve`` document's
  ``pde`` section also sets ``"t_final"``.

* experiment preset: see ``parse_preset``; the three shipped presets live
  in the ``presets/`` package data and can be addressed by bare name.

Every section refuses a key it does not read, and a field of the wrong
type or range raises ``ValidationError`` naming it as ``<section>.<key>``.
Caps refuse, before anything is allocated, a PDE march of more than
``heat.MARCH_UPDATE_CAP`` node updates or ``GRID_NODE_CAP`` nodes (checked
by ``SolverConfig``), and a model of more than ``MODEL_LAW_CAP`` laws.
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
from .heat import SolverConfig, ValueFunction, stable_dt
from .nested import GRID_NODE_CAP, NestedEvalConfig
from .scenarios import DiscreteDistribution, ScenarioSet

LOADER_WEIGHT_TOL = 1e-9
MODEL_LAW_CAP = 100_000  # n_max x sigma_levels x mean_levels
PRESET_KEYS = (
    "name", "gp", "family", "family_params", "phi", "phi_params", "n_schedule",
    "dp", "pde", "tolerance", "output_dir",
)


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    return obj[key]


def known_keys(obj, keys, where: str) -> None:
    """Refuse ``obj`` unless it is an object whose every key is one of ``keys``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ValidationError(f"unknown key {where}.{key}; {where} reads {', '.join(keys)}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def positive_number(value, name: str) -> float:
    """``value`` as a float; raises ``ValidationError`` naming the field
    unless it is a positive finite number."""
    if not _is_number(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _integer(value, name: str, lo: int = 1, hi: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")
    return value


def _pair(obj: dict, key: str, where: str) -> tuple[float, float]:
    pair = _require(obj, key, where)
    if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
        raise ValidationError(f"{where}.{key} must be [lo, hi] of finite numbers, got {pair!r}")
    return float(pair[0]), float(pair[1])


def parse_distribution(obj: dict, where: str) -> DiscreteDistribution:
    known_keys(obj, ("atoms",), where)
    rows = _require(obj, "atoms", where)
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}: 'atoms' must be a nonempty list")
    atoms = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (2, 3) or not all(map(_is_number, row)):
            raise ValidationError(
                f"{where}: atom {k} must be [x, w] or [x, y, w] of finite numbers, got {row!r}"
            )
        *point, w = map(float, row)
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
    known_keys(obj, ("dists", "label"), where)
    dists_raw = _require(obj, "dists", where)
    if not isinstance(dists_raw, list) or not dists_raw:
        raise ValidationError(f"{where}: 'dists' must be a nonempty list")
    dists = [parse_distribution(d, f"{where}.dists[{j}]") for j, d in enumerate(dists_raw)]
    try:
        return ScenarioSet(dists, label=str(obj.get("label", "")))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def load_steps_document(doc: dict) -> tuple[list[ScenarioSet], str]:
    """Parse the ``steps`` document shared by scenario sets and models."""
    known_keys(doc, ("steps", "label"), "document")
    steps_raw = _require(doc, "steps", "document")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ValidationError("document: 'steps' must be a nonempty list")
    steps = [parse_scenario_set(s, f"steps[{i}]") for i, s in enumerate(steps_raw)]
    return steps, str(doc.get("label", ""))


def parse_gparams(obj: dict, where: str = "gp") -> GParams:
    known_keys(obj, ("mu", "sigma2"), where)
    return GParams(*_pair(obj, "mu", where), *_pair(obj, "sigma2", where))


def parse_solver_config(obj: dict, gp: GParams, t_final: float | None) -> SolverConfig:
    """The ``pde`` section, marched to ``t_final``; ``None`` lets the section
    set ``t_final`` (the solve document). ``dt`` is derived by ``stable_dt``."""
    known_keys(obj, ("x_range", "dx") + (("t_final",) if t_final is None else ()), "pde")
    lo, hi = _pair(obj, "x_range", "pde")
    dx = positive_number(_require(obj, "dx", "pde"), "pde.dx")
    if t_final is None:
        t_final = positive_number(_require(obj, "t_final", "pde"), "pde.t_final")
    try:
        return SolverConfig(lo, hi, dx, stable_dt(gp, dx, t_final), t_final)
    except ValidationError as exc:
        raise ValidationError(f"pde.{exc}") from None


def parse_nested_config(obj: dict, where: str = "dp") -> NestedEvalConfig:
    known_keys(obj, ("x_range", "num_points", "mode", "edge"), where)
    num = _integer(_require(obj, "num_points", where), f"{where}.num_points", 2, GRID_NODE_CAP)
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
        known_keys(rule, ("kind",), "eps_rule")
        return np.zeros(count)
    known_keys(rule, ("kind", "offset", "scale"), "eps_rule")
    offset = positive_number(rule.get("offset", 4.0), "eps_rule.offset")
    scale = rule.get("scale", 1.0)
    if not _is_number(scale):
        raise ValidationError(f"eps_rule.scale must be a finite number, got {scale!r}")
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


def parse_phi(doc: dict, where: str) -> TestFunction:
    """The 1-d function named by ``phi``, built with the numbers in ``phi_params``."""
    params = doc.get("phi_params", {})
    if not isinstance(params, dict) or not all(map(_is_number, params.values())):
        raise ValidationError(f"{where}.phi_params must map names to numbers, got {params!r}")
    return named_function(str(_require(doc, "phi", where)), 1, params)


def output_stem(value, name: str) -> str:
    """``value`` if it can name an output file inside the output directory."""
    if not isinstance(value, str) or "\0" in value or Path(value).name != value:
        raise ValidationError(f"{name} must be a file name without directories, got {value!r}")
    return value


def parse_preset(doc: dict) -> ExperimentPreset:
    name = output_stem(_require(doc, "name", "preset"), "preset.name")
    family = str(_require(doc, "family", "preset"))
    if family not in ("iid", "perturbed"):
        raise ValidationError(f"preset.family must be 'iid' or 'perturbed', got {family!r}")
    known_keys(doc, PRESET_KEYS + (("eps_rule",) if family == "perturbed" else ()), "preset")
    fam = doc.get("family_params", {})
    known_keys(fam, ("sigma_levels", "mean_levels", "n_max"), "family_params")
    raw = _require(doc, "n_schedule", "preset")
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"preset.n_schedule must be a nonempty list of integers, got {raw!r}")
    schedule = tuple(_integer(v, f"preset.n_schedule[{i}]") for i, v in enumerate(raw))
    sigma_levels = _integer(fam.get("sigma_levels", 2), "family_params.sigma_levels")
    mean_levels = _integer(fam.get("mean_levels", 2), "family_params.mean_levels")
    n_max = _integer(fam.get("n_max", max(schedule)), "family_params.n_max")
    if n_max * sigma_levels * mean_levels > MODEL_LAW_CAP:
        raise ValidationError(
            f"family_params.n_max x family_params.sigma_levels x family_params.mean_levels = "
            f"{n_max} x {sigma_levels} x {mean_levels} laws, above the cap of {MODEL_LAW_CAP}"
        )
    gp = parse_gparams(_require(doc, "gp", "preset"))
    return ExperimentPreset(
        name=name,
        gp=gp,
        family=family,
        sigma_levels=sigma_levels,
        mean_levels=mean_levels,
        n_max=n_max,
        eps_rule=doc.get("eps_rule"),
        phi=parse_phi(doc, "preset"),
        n_schedule=schedule,
        dp=parse_nested_config(_require(doc, "dp", "preset")),
        pde=parse_solver_config(_require(doc, "pde", "preset"), gp, 1.0),
        tolerance=positive_number(_require(doc, "tolerance", "preset"), "preset.tolerance"),
        output_dir=str(doc.get("output_dir", "out")),
    )


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the document must be a JSON object")
    return doc


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
        json.dumps(vars(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
