"""Command-line contract: output, exit codes (0 ok / 1 miss / 2 invalid)."""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect.cli import main
from gexpect.errors import Report
from gexpect.verify import SUITES

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
    "dp": {"num_points": 101},
    "pde": {"dx": 0.5},
    "tolerance": 0.1,
}

# the shipped classical-cos preset, as its document
PRESET = json.loads(
    resources.files("gexpect").joinpath("presets", "classical-cos.json").read_text(encoding="utf-8")
)


# law A is +/-(1, 2), law B is (2, -1) or (0, 3), every atom of weight 1/2
PAIRS = {"steps": [{"dists": [{"atoms": [[1, 2, 0.5], [-1, -2, 0.5]]},
                              {"atoms": [[2, -1, 0.5], [0, 3, 0.5]]}]}]}
UNDECODABLE = {
    "invalid-json": (b'{"a": 1', "invalid JSON: line 1 column 8: Expecting ',' delimiter"),
    "not-utf-8": (b'\xff\xfe{"a":1}', "cannot decode the document: 'utf-8' codec can't decode"),
    "nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, "cannot decode the document: maximum recursion"),
}
if hasattr(sys, "set_int_max_str_digits"):  # the cap on integer digits is new in 3.10.7
    UNDECODABLE["integer-too-long"] = (b'{"a": ' + b"1" * 5000 + b"}", "cannot decode the document: Exceeds")


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

    def test_a_value_that_overflows_exits_2(self, tmp_path, capsys):
        doc = {"steps": [{"dists": [{"atoms": [[1e200, 0.5], [-1, 0.5]]}]}]}
        assert main(["expect", "x2", "--config", write(tmp_path, "far.json", doc)]) == 2
        assert capsys.readouterr().out == "error: x^2 is not finite on the atoms\n"

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

    @pytest.mark.parametrize(
        "function, name, upper, lower",
        [("x", "x", 1.0, 0.0), ("y", "y", 1.0, 0.0), ("x2", "|x|^2", 2.0, 1.0),
         ("y2", "|y|^2", 5.0, 4.0), ("abs3_x", "|x|^3", 4.0, 1.0), ("abs3_y", "|y|^3", 14.0, 8.0),
         ("absxy", "|xy|", 2.0, 1.0), ("const", "const:1", 1.0, 1.0)],
    )
    def test_two_dimensional_functions(self, tmp_path, capsys, function, name, upper, lower):
        assert main(["expect", function, "--config", write(tmp_path, "pairs.json", PAIRS)]) == 0
        e = re.escape(name)
        got = re.fullmatch(rf"E\[{e}\] = (\S+)   -E\[-{e}\] = (\S+)\n", capsys.readouterr().out)
        assert (float(got[1]), float(got[2])) == (upper, lower)

    def test_unknown_function(self, tmp_path, capsys):
        rc = main(["expect", "sinh", "--config", write(tmp_path, "r.json", RADEMACHER)])
        assert rc == 2

    @pytest.mark.parametrize("row", [[1, "abc"], [None, 0.5], [float("nan"), 1.0]])
    def test_malformed_atom_row(self, tmp_path, capsys, row):
        doc = {"steps": [{"dists": [{"atoms": [[1, 0.5], row]}]}]}
        rc = main(["expect", "x", "--config", write(tmp_path, "a.json", doc)])
        assert rc == 2
        assert "atom 1 must be" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({**RADEMACHER, "label": 5}, "document.label"),
            ({**RADEMACHER, "label": None}, "document.label"),
            ({"steps": [{**RADEMACHER["steps"][0], "label": {"a": 1}}]}, "steps[0].label"),
            ({"steps": [RADEMACHER["steps"][0], {**RADEMACHER["steps"][0], "label": ["s"]}]}, "steps[1].label"),
        ],
        ids=["document-number", "document-null", "step-object", "second-step-list"],
    )
    def test_a_label_that_is_no_string_is_refused(self, tmp_path, capsys, doc, field):
        assert main(["expect", "x2", "--config", write(tmp_path, "l.json", doc)]) == 2
        assert capsys.readouterr().out.startswith(f"error: {field} must be a string")

    def test_string_labels_are_read(self, tmp_path, capsys):
        doc = {"steps": [{**RADEMACHER["steps"][0], "label": "coin"}], "label": "rademacher"}
        assert main(["expect", "x2", "--config", write(tmp_path, "l.json", doc)]) == 0
        assert capsys.readouterr().out == "E[x^2] = 1.0   -E[-x^2] = 1.0\n"

    def test_mixed_step_dimensions_refused_before_printing(self, tmp_path, capsys):
        doc = {"steps": [RADEMACHER["steps"][0], {"dists": [{"atoms": [[1, 2, 1.0]]}]}]}
        rc = main(["expect", "x2", "--config", write(tmp_path, "d.json", doc)])
        assert rc == 2
        # step 0's line is not printed first
        assert capsys.readouterr().out == "error: steps[1]: dimension 2 != 1 of steps[0]\n"


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
        # the preset's tolerance alone decides the exit code
        config = write(tmp_path, "strict.json", {**PRESET, "tolerance": 1e-9})
        rc = main(["clt", "--config", config, "--out", str(tmp_path)])
        assert rc == 1
        assert "criterion missed: final e_n = 1.789e-04 > tolerance 1e-09" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_override(self, tmp_path, capsys, tol):
        # there is no tolerance override: any --tol is a usage error
        with pytest.raises(SystemExit) as exit_:
            main(["clt", "--config", "classical-cos", "--out", str(tmp_path), "--tol", tol])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["clt", "check-conditions"])
    def test_out_defaults_to_out(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", write(tmp_path, "p.json", SMALL)]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["small-conditions.json"] + (["small.csv"] if command == "clt" else [])

    def test_zero_variance_floor_rejected(self, tmp_path, capsys):
        doc = {
            "name": "zero-floor",
            "gp": {"mu": [0.0, 0.0], "sigma2": [0.0, 1.0]},
            "family": "iid",
            "phi": "cos",
            "n_schedule": [4],
            "dp": {"num_points": 101},
            "pde": {"dx": 0.5},
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
            (None, "n_schedule", [2.5, 4], "preset.n_schedule"),
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
            ("gp", "mu", [0.5, -0.5], "gp.mu needs lo <= hi"),
            ("gp", "sigma2", [0, 1], "gp.sigma2 must be a variance interval"),
            # gp sets both windows, so a preset's dp and pde name no x_range
            ("dp", "x_range", [-6, 6], "unknown key dp.x_range; dp reads num_points, mode"),
            ("pde", "x_range", [-6, 6], "unknown key pde.x_range; pde reads dx"),
            ("dp", "mode", "grid", "dp.mode must be"),
            ("dp", "edge", "clamp", "unknown key dp.edge;"),
            (None, "phi", "cosine", "preset.phi 'cosine' names no function"),
            ("pde", "dx", 1e300, "pde.dx must divide"),  # dx * dx overflows in the CFL bound
            # only an absent eps_rule means the zero rule
            (None, "eps_rule", {}, "eps_rule: missing key 'kind'"),
            (None, "eps_rule", None, "eps_rule must be an object, got None"),
            (None, "eps_rule", 0, "eps_rule must be an object, got 0"),
            (None, "eps_rule", False, "eps_rule must be an object, got False"),
            (None, "eps_rule", "", "eps_rule must be an object, got ''"),
            (None, "eps_rule", [], "eps_rule must be an object, got []"),
            (None, "eps_rule", 5, "eps_rule must be an object, got 5"),
            (
                None,
                "eps_rule",
                {"kind": "harmonic", "scale": 1e308, "offset": 1e-300},
                "error: eps_rule gives a schedule that is not finite",
            ),
            ("pde", "dx", 3, "pde.dx must divide [-6.0, 6.0] into"),  # 4 intervals
            # a JSON value of the wrong type is shown as JSON, not as a Python string
            (None, "phi", True, "preset.phi must be a string without NUL, got True"),
            (None, "family", None, "preset.family must be a string without NUL, got None"),
            ("eps_rule", "kind", 7, "eps_rule.kind must be a string without NUL, got 7"),
            ("dp", "mode", None, "dp.mode must be a string without NUL, got None"),
            ("eps_rule", "scale", 10, "error: eps_rule: |eps_i| must be <= 0.25, got 2.5 at i = 0\n"),
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

    @pytest.mark.parametrize("command", ["clt", "check-conditions"])
    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("output_dir", None, "preset.output_dir"),
            ("output_dir", ["x"], "preset.output_dir"),
            ("output_dir", "a\u0000b", "preset.output_dir"),
            ("name", "", "preset.name"),
            ("name", "..", "preset.name"),
        ],
    )
    def test_output_names_are_checked_at_load(
        self, tmp_path, monkeypatch, capsys, command, key, value, field
    ):
        # run without --out from an empty working directory: a refused preset writes nothing there;
        # --out alone places the outputs, so a preset's output_dir, of any value, is an unknown key
        config = write(tmp_path, "p.json", {**SMALL, key: value})
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([command, "--config", config]) == 2
        want = f"unknown key {field}; preset reads " if key == "output_dir" else f"{field} must be"
        assert f"error: {want}" in capsys.readouterr().out
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["clt", "check-conditions"])
    @pytest.mark.parametrize(
        "schedule",
        [
            pytest.param([4, 2], id="decreasing"),
            pytest.param([2, 2], id="repeated"),
            pytest.param([2, 8], id="past-n-max"),
        ],
    )
    def test_schedule_is_checked_at_load(self, tmp_path, capsys, command, schedule):
        # SMALL sets family_params.n_max = 4
        config = write(tmp_path, "p.json", {**SMALL, "n_schedule": schedule})
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "error: preset.n_schedule must be a nonempty, strictly increasing sequence of integers "
            f"in [1, 4] (family_params.n_max), got {schedule}\n"
        )
        assert not out.exists()

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

    def test_a_failing_suite_prints_its_witnesses_and_exits_1(self, capsys, monkeypatch):
        def failing(seed):
            report = Report("holder")
            report.record(True)
            report.record(False, 0.5, "draw %d: violation", seed)
            return report

        monkeypatch.setitem(SUITES, "holder", failing)
        assert main(["verify", "holder", "--seed", "3"]) == 1
        assert capsys.readouterr().out == (
            "FAIL holder: 2 checks, 1 failures, worst=5.000e-01, seed=3\n  draw 3: violation\n"
        )

    def test_unknown_suite(self, capsys):
        assert main(["verify", "mystery"]) == 2
        assert capsys.readouterr().out.startswith("error: unknown suite 'mystery'; available: ")

    @pytest.mark.parametrize("suite", ["axioms", "gfunction", "holder", "oracle", "semigroup", "all"])
    def test_negative_seed_exits_2(self, capsys, suite):
        # semigroup reads no seed, and is refused all the same
        assert main(["verify", suite, "--seed", "-5"]) == 2
        assert capsys.readouterr().out == "error: --seed must be a nonnegative integer, got -5\n"


@pytest.mark.parametrize("command", ["clt", "check-conditions", "solve"])
@pytest.mark.parametrize("clip", [-1.0, 0.0])
def test_a_refused_phi_parameter_is_named(tmp_path, capsys, command, clip):
    doc = SOLVE if command == "solve" else SMALL
    section = "document" if command == "solve" else "preset"
    bad = {**doc, "phi": "relu_clip", "phi_params": {"clip": clip}}
    assert main([command, "--config", write(tmp_path, "c.json", bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out == f"error: {section}.phi_params.clip must be positive, got {clip!r}\n"


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
            ("pde", "dx", 1e300, "pde.dx must divide"),  # dx * dx overflows in the CFL bound
            (None, "label", "", "document.label"),
            (None, "label", "..", "document.label"),
            (None, "phi", True, "document.phi must be a string without NUL, got True"),
        ],
    )
    def test_malformed_solve_field(self, tmp_path, capsys, section, key, value, field):
        bad = copy.deepcopy(SOLVE)
        (bad[section] if section else bad)[key] = value
        rc = main(["solve", "--config", write(tmp_path, "s.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, doc, section, change, field",
        [
            # too many node updates: the step count is named, with t_final, gp and dx that set it
            pytest.param("clt", SMALL, "pde", {"dx": 1e-3}, "pde.t_final", id="preset-small-dx"),
            pytest.param("clt", SMALL, "pde", {"dx": 1e-300}, "pde.t_final", id="preset-tiny-dx"),
            # the derived domain's half-width over dx overflows to inf
            pytest.param("clt", SMALL, "pde", {"dx": 5e-324}, "pde.t_final", id="preset-subnormal-dx"),
            pytest.param(
                "solve", SOLVE, "pde", {"t_final": 1e12}, "pde.t_final", id="solve-long-horizon"
            ),
            pytest.param(
                "solve", SOLVE, "gp", {"sigma2": [1e-300, 1e300]}, "pde.t_final", id="solve-wide-gp"
            ),
            # too many steps on few nodes, within the update cap: 4.26e7 steps on 21 nodes
            pytest.param(
                "solve", {**SOLVE, "gp": {"mu": [-0.5, 0.5], "sigma2": [1.0, 4.0]}}, "pde",
                {"x_range": [-1.0, 1.0], "t_final": 1e5}, "pde.t_final", id="solve-many-steps",
            ),
            # too many nodes, within the update cap: dx is named
            pytest.param(
                "solve", SOLVE, "pde", {"dx": 1e-6, "t_final": 1e-13}, "pde.dx", id="solve-many-nodes"
            ),
        ],
    )
    def test_pde_march_cap(self, tmp_path, capsys, command, doc, section, change, field):
        bad = copy.deepcopy(doc)
        bad[section].update(change)
        rc = main([command, "--config", write(tmp_path, "big.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {field} = ") and "the caps are" in out
        if field == "pde.t_final":
            assert "steps of dt = " in out and "the CFL step of gp at dx = " in out

    def test_phi_overflowing_on_the_grid_exits_2(self, tmp_path, capsys):
        # x^2 overflows at 1e200; the suite turns numpy's RuntimeWarning into an error
        doc = {**SOLVE, "phi": "x2", "pde": {"x_range": [-1e200, 1e200], "dx": 1e198, "t_final": 1.0}}
        rc = main(["solve", "--config", write(tmp_path, "s.json", doc), "--out", str(tmp_path)])
        assert (rc, capsys.readouterr().out) == (2, "error: initial data is not finite on the grid\n")

    def test_check_conditions(self, tmp_path, capsys):
        rc = main(["check-conditions", "--config", "g-perturbed", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "g-perturbed-conditions.json").read_text())
        assert doc["beta"] == 1.0

    def test_missing_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.json", "--out", "/tmp"]) == 2


@pytest.mark.parametrize(
    "command", [["expect", "x2"], ["solve"], ["clt"], ["check-conditions"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize("content, message", UNDECODABLE.values(), ids=list(UNDECODABLE))
def test_undecodable_document_exits_2(tmp_path, capsys, command, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main([*command, "--config", str(path)]) == 2
    assert capsys.readouterr().out.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("doc", ["r.json", "missing.json"], ids=["result", "error"])
def test_closed_stdout_ends_quietly(tmp_path, buffered, doc):
    """A reader gone before the first write ends the run with status 1 and
    nothing on stderr, whether the line is a result or an error message."""
    write(tmp_path, "r.json", RADEMACHER)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "gexpect.cli", "expect", "x2", "--config", str(tmp_path / doc)],
            stdout=writer, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(writer)
    assert (run.returncode, run.stderr.decode()) == (1, "")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
SECTION_KEYS = {
    "gp": ("mu", "sigma2"),
    "family_params": ("sigma_levels", "mean_levels", "n_max"),
    "dp": ("num_points", "mode"),
    "pde": ("dx",),
    "eps_rule": ("kind", "offset", "scale"),
}
FIELDS = [(None, key) for key in sorted(PRESET) + ["eps_rule", "output_dir", "phi_params"]] + [
    (section, key) for section, keys in SECTION_KEYS.items() for key in keys
]


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.floats() | JSON_VALUES)
def test_any_preset_field_keeps_the_exit_code_contract(field, value):
    """One field replaced by an arbitrary JSON value, floats the most often: a
    top-level field of a shipped preset, or a field inside a section of the
    small perturbed preset. The run ends in a documented exit code, never an
    exception."""
    section, key = field
    doc = copy.deepcopy(SMALL if section else PRESET)
    (doc[section] if section else doc)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "preset.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["clt", "--config", str(path), "--out", tmp]) in (0, 1, 2)


# the snapshot tool's solve document on a small march: its gp's tiny variance
# makes the derived dt large, so a replaced t_final of up to 2^32 marches
# fewer than 10^4 steps, and every example takes well under a second
FUZZ_SOLVE = {
    "label": "ramp-profile",
    "gp": {"mu": [0.0, 0.0], "sigma2": [1e-8, 1e-8]},
    "phi": "relu_clip",
    "phi_params": {"clip": 2.0},
    "pde": {"x_range": [-1.0, 1.0], "dx": 0.1, "t_final": 0.01},
}
SOLVE_FIELDS = [(key,) for key in sorted(FUZZ_SOLVE)] + [
    ("gp", "mu"), ("gp", "sigma2"), ("phi_params", "clip"),
    ("pde", "x_range"), ("pde", "dx"), ("pde", "t_final"),
]
ATOM = ("steps", 0, "dists", 0, "atoms", 0)
EXPECT_FIELDS = [ATOM[:k] for k in range(1, len(ATOM) + 1)] + [
    ("label",), ("steps", 0, "label"), (*ATOM, 0), (*ATOM, 1),
]


def replaced(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(doc)
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(SOLVE_FIELDS), value=st.floats() | JSON_VALUES)
def test_any_solve_field_keeps_the_exit_code_contract(path, value):
    """One field of the small solve document replaced by an arbitrary JSON
    value: the run ends in a documented exit code, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "solve.json"
        config.write_text(json.dumps(replaced(FUZZ_SOLVE, path, value)), encoding="utf-8")
        assert main(["solve", "--config", str(config), "--out", tmp]) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(EXPECT_FIELDS), value=st.floats() | JSON_VALUES)
def test_any_expect_field_keeps_the_exit_code_contract(path, value):
    """One field of the rademacher document replaced by an arbitrary JSON
    value: ``expect x2`` ends in a documented exit code, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "rademacher.json"
        config.write_text(json.dumps(replaced(RADEMACHER, path, value)), encoding="utf-8")
        assert main(["expect", "x2", "--config", str(config)]) in (0, 1, 2)
