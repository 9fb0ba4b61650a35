"""JSON document loading and CSV/JSON report writing.

Wire formats:

* scenario/model document::

    { "steps": [ { "dists": [ { "atoms": [[x, y, w], ...] } ] } ],
      "label": "..." }

  Atom rows are ``[x, w]`` (one-dimensional) or ``[x, y, w]``. Weights that
  sum to 1 within 1e-9 are re-normalized; larger deviations are rejected.

* uncertainty bounds: ``{ "mu": [lo, hi], "sigma2": [lo, hi] }``

* nested-recursion section: ``{ "num_points": ..., "mode": ... }``, read by
  ``NestedEvalConfig`` on [-w, w], w = ``clt.limit_half_width(gp)``, the line
  the limit value at (1, 0) reads; it checks ``num_points`` and owns the default mode.

* PDE section: a preset's is ``{ "dx": ... }``, marched on [-w, w] rounded out to
  whole ``dx`` up to t = 1, the time of the limit value. That of the ``gexpect solve``
  document (``load_solve_document``) is ``{ "x_range": [lo, hi], "dx": ..., "t_final": ... }``.
  The time step is derived, ``dt = stable_dt(gp, dx, t_final)``.

* experiment preset: see ``parse_preset``; the three shipped presets live
  in the ``presets/`` package data and can be addressed by bare name.

Every section refuses a key it does not read, and a field of the wrong
type or range raises ``ValidationError`` naming it as ``<section>.<key>``.
Caps refuse, before anything is allocated, a PDE march of more than
``heat.MARCH_UPDATE_CAP`` node updates, ``heat.MARCH_STEP_CAP`` time steps
or ``GRID_NODE_CAP`` nodes (checked by ``SolverConfig``), and a model of
more than ``MODEL_LAW_CAP`` laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clt import SequenceModel, build_iid_family, build_perturbed_family, limit_half_width, positive_integer
from .errors import ValidationError
from .functions import TestFunction, named_function
from .gfunction import GParams
from .heat import SolverConfig, ValueFunction, stable_dt
from .nested import NestedEvalConfig, step_counts
from .scenarios import DiscreteDistribution, ScenarioSet

LOADER_WEIGHT_TOL = 1e-9
MODEL_LAW_CAP = 100_000  # n_max x sigma_levels x mean_levels
PRESET_KEYS = (
    "name", "gp", "family", "family_params", "phi", "phi_params", "n_schedule",
    "dp", "pde", "tolerance",
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


def _pair(obj: dict, key: str, where: str) -> tuple[float, float]:
    pair = _require(obj, key, where)
    if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_number, pair)):
        raise ValidationError(f"{where}.{key} must be [lo, hi] of finite numbers, got {pair!r}")
    return float(pair[0]), float(pair[1])


def _prefixed(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ``ValidationError`` it raises prefixed with ``prefix``:
    ``"<section>."`` where its messages begin with the refused field, else ``"<where>: "``."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{prefix}{exc}") from None


def _string(obj: dict, key: str, where: str, default: str | None = "") -> str:
    """``obj[key]``, or ``default`` if the key is absent (required if ``default`` is None),
    refused unless it is a string without NUL."""
    value = _require(obj, key, where) if default is None else obj.get(key, default)
    if not isinstance(value, str) or "\0" in value:
        raise ValidationError(f"{where}.{key} must be a string without NUL, got {value!r}")
    return value


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
    return _prefixed(f"{where}: ", DiscreteDistribution, [(p, w / total) for p, w in atoms])


def parse_scenario_set(obj: dict, where: str) -> ScenarioSet:
    known_keys(obj, ("dists", "label"), where)
    dists_raw = _require(obj, "dists", where)
    if not isinstance(dists_raw, list) or not dists_raw:
        raise ValidationError(f"{where}: 'dists' must be a nonempty list")
    dists = [parse_distribution(d, f"{where}.dists[{j}]") for j, d in enumerate(dists_raw)]
    return _prefixed(f"{where}: ", ScenarioSet, dists, label=_string(obj, "label", where))


def load_steps_document(doc: dict) -> tuple[list[ScenarioSet], str]:
    """Parse the ``steps`` document shared by scenario sets and models, all of step 0's dimension."""
    known_keys(doc, ("steps", "label"), "document")
    steps_raw = _require(doc, "steps", "document")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ValidationError("document: 'steps' must be a nonempty list")
    steps = [parse_scenario_set(s, f"steps[{i}]") for i, s in enumerate(steps_raw)]
    for i, s in enumerate(steps):
        if s.dim != steps[0].dim:
            raise ValidationError(f"steps[{i}]: dimension {s.dim} != {steps[0].dim} of steps[0]")
    return steps, _string(doc, "label", "document")


def parse_gparams(obj: dict) -> GParams:
    known_keys(obj, ("mu", "sigma2"), "gp")
    return _prefixed("gp.", GParams, *_pair(obj, "mu", "gp"), *_pair(obj, "sigma2", "gp"))


def parse_solver_config(obj: dict, gp: GParams) -> SolverConfig:
    """A preset's ``pde`` section, marched to t = 1 on [-w, w] rounded out to whole ``dx``
    (w = ``limit_half_width(gp)``)."""
    known_keys(obj, ("dx",), "pde")
    dx = positive_number(_require(obj, "dx", "pde"), "pde.dx")
    hi = float(np.ceil(limit_half_width(gp) / dx) * dx)  # SolverConfig refuses the inf of a tiny dx
    return _prefixed("pde.", SolverConfig, -hi, hi, dx, stable_dt(gp, dx, 1.0), 1.0)


def parse_nested_config(obj: dict, gp: GParams) -> NestedEvalConfig:
    """A preset's ``dp`` section, on the window [-w, w], w = ``limit_half_width(gp)``."""
    known_keys(obj, ("num_points", "mode"), "dp")
    half = limit_half_width(gp)
    grid = (-half, half, _require(obj, "num_points", "dp"))
    return _prefixed("dp.", NestedEvalConfig, grid, _string(obj, "mode", "dp", NestedEvalConfig.mode))


def eps_from_rule(rule: dict, count: int) -> np.ndarray:
    """Materialize a perturbation schedule. Kinds: "zero",
    "harmonic" (scale/(i+offset)), "alternating-harmonic"."""
    known_keys(rule, ("kind", "offset", "scale"), "eps_rule")
    kind = _string(rule, "kind", "eps_rule", None)
    idx = np.arange(count, dtype=float)
    if kind == "zero":
        known_keys(rule, ("kind",), "eps_rule")
        return np.zeros(count)
    offset = positive_number(rule.get("offset", 4.0), "eps_rule.offset")
    scale = rule.get("scale", 1.0)
    if not _is_number(scale):
        raise ValidationError(f"eps_rule.scale must be a finite number, got {scale!r}")
    if kind not in ("harmonic", "alternating-harmonic"):
        raise ValidationError(f"unknown eps_rule kind {kind!r}")
    sign = (-1.0) ** idx if kind == "alternating-harmonic" else 1.0
    with np.errstate(over="ignore"):
        eps = scale * sign / (idx + offset)
    if not np.isfinite(eps).all():
        raise ValidationError(f"eps_rule gives a schedule that is not finite: {rule!r}")
    return eps


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    gp: GParams
    family: str
    sigma_levels: int
    mean_levels: int
    n_max: int
    eps_rule: dict
    phi: TestFunction
    n_schedule: tuple[int, ...]
    dp: NestedEvalConfig
    pde: SolverConfig
    tolerance: float

    def build_model(self) -> SequenceModel:
        base = build_iid_family(self.gp, self.sigma_levels, self.mean_levels, self.n_max)
        if self.family == "iid":
            return base
        eps = eps_from_rule(self.eps_rule, self.n_max)
        return _prefixed("eps_rule: ", build_perturbed_family, base, eps)


def parse_phi(doc: dict, where: str) -> TestFunction:
    """The 1-d function named by ``phi``, built with the numbers in ``phi_params``."""
    params = doc.get("phi_params", {})
    if not isinstance(params, dict) or not all(map(_is_number, params.values())):
        raise ValidationError(f"{where}.phi_params must map names to numbers, got {params!r}")
    return _prefixed(f"{where}.", named_function, _string(doc, "phi", where, None), 1, params)


def output_stem(value, name: str) -> str:
    """``value`` if it can name an output file inside the output directory."""
    if not isinstance(value, str) or value in ("", "..") or "\0" in value or Path(value).name != value:
        raise ValidationError(f"{name} must be a nonempty file name without directories, got {value!r}")
    return value


def parse_preset(doc: dict) -> ExperimentPreset:
    name = output_stem(_require(doc, "name", "preset"), "preset.name")
    family = _string(doc, "family", "preset", None)
    if family not in ("iid", "perturbed"):
        raise ValidationError(f"preset.family must be 'iid' or 'perturbed', got {family!r}")
    known_keys(doc, PRESET_KEYS + (("eps_rule",) if family == "perturbed" else ()), "preset")
    fam = doc.get("family_params", {})
    known_keys(fam, ("sigma_levels", "mean_levels", "n_max"), "family_params")
    n_max = positive_integer(fam["n_max"], "family_params.n_max") if "n_max" in fam else None
    raw = _require(doc, "n_schedule", "preset")
    schedule = step_counts(raw, n_max, "preset.n_schedule", "family_params.n_max")
    n_max = schedule[-1] if n_max is None else n_max
    sigma_levels = positive_integer(fam.get("sigma_levels", 2), "family_params.sigma_levels")
    mean_levels = positive_integer(fam.get("mean_levels", 2), "family_params.mean_levels")
    if n_max * sigma_levels * mean_levels > MODEL_LAW_CAP:
        raise ValidationError(
            f"family_params.n_max x family_params.sigma_levels x family_params.mean_levels = "
            f"{n_max} x {sigma_levels} x {mean_levels} laws, above the cap of {MODEL_LAW_CAP}"
        )
    gp = parse_gparams(_require(doc, "gp", "preset"))
    eps_rule = doc.get("eps_rule", {"kind": "zero"})
    eps_from_rule(eps_rule, 0)  # a bad rule is refused at load, before any build
    return ExperimentPreset(
        name=name,
        gp=gp,
        family=family,
        sigma_levels=sigma_levels,
        mean_levels=mean_levels,
        n_max=n_max,
        eps_rule=eps_rule,
        phi=parse_phi(doc, "preset"),
        n_schedule=schedule,
        dp=parse_nested_config(_require(doc, "dp", "preset"), gp),
        pde=parse_solver_config(_require(doc, "pde", "preset"), gp),
        tolerance=positive_number(_require(doc, "tolerance", "preset"), "preset.tolerance"),
    )


def load_solve_document(doc: dict) -> tuple[GParams, TestFunction, SolverConfig, str]:
    """``solve``'s arguments and the output label, read from a ``gexpect solve`` document."""
    known_keys(doc, ("label", "gp", "phi", "phi_params", "pde"), "document")
    gp = parse_gparams(doc.get("gp", {}))
    pde = doc.get("pde", {})
    known_keys(pde, ("x_range", "dx", "t_final"), "pde")
    lo, hi = _pair(pde, "x_range", "pde")
    dx = positive_number(_require(pde, "dx", "pde"), "pde.dx")
    t_final = positive_number(_require(pde, "t_final", "pde"), "pde.t_final")
    cfg = _prefixed("pde.", SolverConfig, lo, hi, dx, stable_dt(gp, dx, t_final), t_final)
    phi = parse_phi({"phi": "cos", **doc}, "document")
    return gp, phi, cfg, output_stem(doc.get("label", "value_function"), "document.label")


def read_json(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file at ``path``; ``ValidationError`` names the file
    if it cannot be decoded (not UTF-8, invalid or too deeply nested JSON) or is no object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: cannot decode the document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the document must be a JSON object")
    return doc


def packaged_preset_names() -> list[str]:
    root = resources.files("gexpect").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(path_or_name: str | Path) -> ExperimentPreset:
    """Load a preset from a file or by shipped-preset name; a path that is
    not a file (a directory, say) does not hide the shipped preset."""
    p = Path(path_or_name)
    if p.is_file():
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
