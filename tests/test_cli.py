"""Command-line contract: output, exit codes (0 ok / 1 miss / 2 invalid)."""

import copy
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect.cli import main

RADEMACHER = {"steps": [{"dists": [{"atoms": [[1, 0.5], [-1, 0.5]]}]}], "label": "r"}
SOLVE = {
    "label": "cos-profile",
    "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
    "phi": "cos",
    "pde": {"x_range": [-6.0, 6.0], "dx": 0.1, "t_final": 1.0},
}
# a small perturbed-family preset that converges (exit 0) and has every section
SMALL = {
    "name": "small",
    "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
    "family": "perturbed",
    "family_params": {"n_max": 4, "sigma_levels": 1, "mean_levels": 1},
    "eps_rule": {"kind": "harmonic", "scale": 0.1},
    "phi": "cos",
    "n_schedule": [4],
    "dp": {"x_range": [-6, 6], "num_points": 101},
    "pde": {"x_range": [-6, 6], "dx": 0.5},
    "tolerance": 0.1,
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


class TestExpect:
    def test_rademacher_square(self, tmp_path, capsys):
        rc = main(["expect", "x2", "--config", write(tmp_path, "r.json", RADEMACHER)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E[x^2] = 1.0" in out

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**RADEMACHER, "lable": "r"}, "document.lable"),
            ({"steps": [{**RADEMACHER["steps"][0], "lable": "s"}]}, "steps[0].lable"),
            (
                {"steps": [{"dists": [{"atoms": [[1, 0.5], [-1, 0.5]], "weight": 1.0}]}]},
                "steps[0].dists[0].weight",
            ),
        ],
        ids=["document", "step", "distribution"],
    )
    def test_unknown_key_refused(self, tmp_path, capsys, doc, field):
        rc = main(["expect", "x2", "--config", write(tmp_path, "r.json", doc)])
        assert rc == 2
        assert f"unknown key {field};" in capsys.readouterr().out

    def test_bad_weights(self, tmp_path, capsys):
        doc = {"steps": [{"dists": [{"atoms": [[1, 0.5], [-1, 0.4]]}]}]}
        rc = main(["expect", "x2", "--config", write(tmp_path, "w.json", doc)])
        assert rc == 2
        assert "weights sum to 0.9" in capsys.readouterr().out

    def test_dimension_mismatch_names_index(self, tmp_path, capsys):
        doc = {
            "steps": [
                {"dists": [{"atoms": [[1, 0.5], [-1, 0.5]]}, {"atoms": [[1, 2, 1.0]]}]}
            ]
        }
        rc = main(["expect", "x2", "--config", write(tmp_path, "m.json", doc)])
        assert rc == 2
        assert capsys.readouterr().out == "error: steps[0]: distribution 1 has dimension 2, expected 1\n"

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        rc = main(["expect", "x2", "--config", write(tmp_path, "bad.json", "{ nope }")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "line" in out and "column" in out

    def test_unknown_function(self, tmp_path, capsys):
        rc = main(["expect", "sinh", "--config", write(tmp_path, "r.json", RADEMACHER)])
        assert rc == 2

    @pytest.mark.parametrize("row", [[1, "abc"], [None, 0.5], [float("nan"), 1.0]])
    def test_malformed_atom_row(self, tmp_path, capsys, row):
        doc = {"steps": [{"dists": [{"atoms": [[1, 0.5], row]}]}]}
        rc = main(["expect", "x", "--config", write(tmp_path, "a.json", doc)])
        assert rc == 2
        assert "atom 1 must be" in capsys.readouterr().out


class TestClt:
    def test_classical_preset_converges(self, tmp_path, capsys):
        rc = main(["clt", "--config", "classical-cos", "--out", str(tmp_path)])
        assert rc == 0
        csv = (tmp_path / "classical-cos.csv").read_text()
        assert csv.splitlines()[0] == "n,lhs,pde,e_n"
        assert (tmp_path / "classical-cos-conditions.json").exists()

    def test_output_byte_identical(self, tmp_path):
        main(["clt", "--config", "classical-cos", "--out", str(tmp_path / "a")])
        main(["clt", "--config", "classical-cos", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "classical-cos.csv").read_bytes() == (
            tmp_path / "b" / "classical-cos.csv"
        ).read_bytes()

    def test_unattainable_tolerance(self, tmp_path, capsys):
        rc = main(["clt", "--config", "classical-cos", "--out", str(tmp_path), "--tol", "1e-9"])
        assert rc == 1
        assert "criterion missed" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_override(self, tmp_path, capsys, tol):
        rc = main(["clt", "--config", "classical-cos", "--out", str(tmp_path), "--tol", tol])
        assert rc == 2
        assert "--tol must be a positive finite number" in capsys.readouterr().out

    def test_zero_variance_floor_rejected(self, tmp_path, capsys):
        doc = {
            "name": "zero-floor",
            "gp": {"mu": [0.0, 0.0], "sigma2": [0.0, 1.0]},
            "family": "iid",
            "phi": "cos",
            "n_schedule": [4],
            "dp": {"x_range": [-6, 6], "num_points": 101},
            "pde": {"x_range": [-6, 6], "dx": 0.5},
            "tolerance": 0.1,
        }
        rc = main(["clt", "--config", write(tmp_path, "z.json", doc)])
        assert rc == 2
        assert "variance interval" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("dp", "num_points", "many", "dp.num_points"),
            ("dp", "num_points", 1e30, "dp.num_points"),
            ("dp", "x_range", 5, "dp.x_range"),
            (None, "tolerance", float("nan"), "preset.tolerance"),
            ("dp", "num_points", 10**7, "dp.num_points"),
            (None, "n_schedule", "abc", "preset.n_schedule"),
            (None, "n_schedule", [], "preset.n_schedule"),
            (None, "n_schedule", 5, "preset.n_schedule"),
            (None, "n_schedule", [2.5, 4], "preset.n_schedule[0]"),
            ("family_params", "n_max", "abc", "family_params.n_max"),
            ("family_params", "sigma_levels", "abc", "family_params.sigma_levels"),
            ("family_params", "mean_levels", "abc", "family_params.mean_levels"),
            ("pde", "dx", "a", "pde.dx"),
            ("pde", "dt", "a", "pde.dt"),
            ("pde", "t_final", "a", "pde.t_final"),
            ("eps_rule", "scale", "a", "eps_rule.scale"),
            ("eps_rule", "offset", "a", "eps_rule.offset"),
            (None, "phi_params", 5, "preset.phi_params"),
            (None, "name", "../escaped", "preset.name"),
            (None, "eps_rul", {"kind": "harmonic", "scale": 0.1}, "unknown key preset.eps_rul;"),
            ("gp", "sigma", [1.0, 1.0], "unknown key gp.sigma;"),
            ("family_params", "n_maxx", 4, "unknown key family_params.n_maxx;"),
            ("eps_rule", "offst", 4, "unknown key eps_rule.offst;"),
            ("dp", "modes", "grid_interp", "unknown key dp.modes;"),
            ("pde", "boundary", "clamp_phi", "unknown key pde.boundary;"),
            (None, "phi_params", {"dim": 2}, "phi_params.dim is not a parameter of 'cos'"),
            (None, "phi_params", {"name": 1}, "phi_params.name is not a parameter of 'cos'"),
            (None, "phi_params", {"clip": 2.0}, "phi_params.clip is not a parameter of 'cos'"),
        ],
    )
    def test_malformed_field_is_a_validation_error(self, tmp_path, capsys, section, key, value, field):
        ok = write(tmp_path, "ok.json", SMALL)
        assert main(["clt", "--config", ok, "--out", str(tmp_path)]) == 0
        bad = copy.deepcopy(SMALL)
        (bad[section] if section else bad)[key] = value
        rc = main(["clt", "--config", write(tmp_path, "bad.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().out

    def test_eps_rule_needs_the_perturbed_family(self, tmp_path, capsys):
        doc = {**SMALL, "family": "iid"}
        rc = main(["clt", "--config", write(tmp_path, "iid.json", doc), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key preset.eps_rule;" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key, value", [("n_max", 10**6), ("sigma_levels", 10**5), ("mean_levels", 10**5)]
    )
    def test_model_size_cap(self, tmp_path, capsys, key, value):
        bad = copy.deepcopy(SMALL)
        bad["family_params"][key] = value
        rc = main(["clt", "--config", write(tmp_path, "big.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert f"family_params.{key}" in out and "above the cap" in out


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        rc = main(["verify", "oracle", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS oracle")
        assert "seed=3" in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "mystery"]) == 2


class TestSolveAndConditions:
    def test_solve_writes_profile(self, tmp_path, capsys):
        rc = main(["solve", "--config", write(tmp_path, "s.json", SOLVE), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "cos-profile.csv").read_text().splitlines()
        assert lines[0] == "x,v"
        assert len(lines) == 122

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("pde", "dx", "a", "pde.dx"),
            ("pde", "dt", "a", "pde.dt"),
            ("pde", "t_final", "a", "pde.t_final"),
            (None, "phi_params", 5, "document.phi_params"),
            (None, "label", "../escaped", "document.label"),
            (None, "solver", {"x_range": [-6.0, 6.0], "dx": 0.1}, "document.solver"),
        ],
    )
    def test_malformed_solve_field(self, tmp_path, capsys, section, key, value, field):
        bad = copy.deepcopy(SOLVE)
        (bad[section] if section else bad)[key] = value
        rc = main(["solve", "--config", write(tmp_path, "s.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, doc, change",
        [
            pytest.param("clt", SMALL, {"dx": 1e-3}, id="preset-small-dx"),
            pytest.param("clt", SMALL, {"dx": 1e-300}, id="preset-tiny-dx"),
            pytest.param("solve", SOLVE, {"t_final": 1e12}, id="solve-long-horizon"),
            pytest.param("solve", SOLVE, {"dx": 1e-6, "t_final": 1e-13}, id="solve-many-nodes"),
        ],
    )
    def test_pde_march_cap(self, tmp_path, capsys, command, doc, change):
        bad = copy.deepcopy(doc)
        bad["pde"].update(change)
        rc = main([command, "--config", write(tmp_path, "big.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith("error: pde.dx = ") and "the caps are" in out

    def test_check_conditions(self, tmp_path, capsys):
        rc = main(["check-conditions", "--config", "g-perturbed", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "g-perturbed-conditions.json").read_text())
        assert doc["beta"] == 1.0

    def test_missing_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.json", "--out", "/tmp"]) == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
PRESET = json.loads(
    resources.files("gexpect").joinpath("presets", "classical-cos.json").read_text(encoding="utf-8")
)


@settings(max_examples=20, deadline=None)
@given(
    key=st.sampled_from(sorted(PRESET) + ["eps_rule", "output_dir", "phi_params"]),
    value=JSON_VALUES,
)
def test_any_preset_field_keeps_the_exit_code_contract(key, value):
    """One top-level field of a shipped preset replaced by an arbitrary JSON
    value: the run ends in a documented exit code, never an exception."""
    doc = {**PRESET, key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["clt", "--config", str(path), "--out", tmp]) in (0, 1, 2)
