"""Command-line contract: output, exit codes (0 ok / 1 miss / 2 invalid)."""

import copy
import json

import pytest

from gexpect.cli import main

RADEMACHER = {"steps": [{"dists": [{"atoms": [[1, 0.5], [-1, 0.5]]}]}], "label": "r"}


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
        assert "distribution 1" in capsys.readouterr().out

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        rc = main(["expect", "x2", "--config", write(tmp_path, "bad.json", "{ nope }")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "line" in out and "column" in out

    def test_unknown_function(self, tmp_path, capsys):
        rc = main(["expect", "sinh", "--config", write(tmp_path, "r.json", RADEMACHER)])
        assert rc == 2


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

    def test_zero_variance_floor_rejected(self, tmp_path, capsys):
        doc = {
            "name": "zero-floor",
            "gp": {"mu": [0.0, 0.0], "sigma2": [0.0, 1.0]},
            "family": "iid",
            "phi": "cos",
            "n_schedule": [4],
            "dp": {"x_range": [-6, 6], "num_points": 101},
            "pde": {"x_range": [-6, 6], "dx": 0.5, "dt": 0.1, "t_final": 1.0},
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
        ],
    )
    def test_malformed_field_is_a_validation_error(self, tmp_path, capsys, section, key, value, field):
        doc = {
            "name": "small",
            "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
            "family": "iid",
            "phi": "cos",
            "n_schedule": [4],
            "dp": {"x_range": [-6, 6], "num_points": 101},
            "pde": {"x_range": [-6, 6], "dx": 0.5, "dt": 0.1, "t_final": 1.0},
            "tolerance": 0.1,
        }
        assert main(["clt", "--config", write(tmp_path, "ok.json", doc), "--out", str(tmp_path)]) == 0
        bad = copy.deepcopy(doc)
        (bad[section] if section else bad)[key] = value
        rc = main(["clt", "--config", write(tmp_path, "bad.json", bad), "--out", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().out


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
        doc = {
            "label": "cos-profile",
            "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
            "phi": "cos",
            "solver": {"x_range": [-6.0, 6.0], "dx": 0.1, "dt": 0.005, "t_final": 1.0},
        }
        rc = main(["solve", "--config", write(tmp_path, "s.json", doc), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "cos-profile.csv").read_text().splitlines()
        assert lines[0] == "x,v"
        assert len(lines) == 122

    def test_check_conditions(self, tmp_path, capsys):
        rc = main(["check-conditions", "--config", "g-perturbed", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "g-perturbed-conditions.json").read_text())
        assert doc["beta"] == 1.0

    def test_missing_file(self, capsys):
        assert main(["solve", "--config", "/nonexistent.json", "--out", "/tmp"]) == 2
