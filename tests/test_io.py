"""Wire formats: document loading, preset resolution, report writers."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from gexpect import GParams, ValidationError, stable_dt
from gexpect.clt import ConvergenceReport, check_conditions, run_clt
from gexpect.io import (
    eps_from_rule,
    load_preset,
    load_steps_document,
    packaged_preset_names,
    parse_gparams,
    parse_nested_config,
    parse_preset,
    parse_solver_config,
    read_json,
    write_condition_report_json,
    write_convergence_csv,
    write_value_function_csv,
)

RADEMACHER_DOC = {
    "steps": [{"dists": [{"atoms": [[1.0, 0.5], [-1.0, 0.5]]}]}],
    "label": "rademacher",
}


class TestStepsDocument:
    def test_one_dimensional(self):
        steps, label = load_steps_document(RADEMACHER_DOC)
        assert label == "rademacher"
        assert len(steps) == 1 and steps[0].dim == 1
        assert steps[0].dists[0].points[:, 0].tolist() == [-1.0, 1.0]

    def test_two_dimensional_pairs(self):
        doc = {"steps": [{"dists": [{"atoms": [[1.0, 0.5, 0.5], [-1.0, 0.5, 0.5]]}]}]}
        steps, _ = load_steps_document(doc)
        assert steps[0].dim == 2

    def test_renormalizes_tiny_deviation(self):
        doc = {"steps": [{"dists": [{"atoms": [[1.0, 0.5], [-1.0, 0.5000000001]]}]}]}
        steps, _ = load_steps_document(doc)
        assert float(steps[0].dists[0].weights.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_deviation(self):
        doc = {"steps": [{"dists": [{"atoms": [[1.0, 0.5], [-1.0, 0.4]]}]}]}
        with pytest.raises(ValidationError, match="weights sum to 0.9"):
            load_steps_document(doc)

    def test_rejects_bad_atom_rows(self):
        with pytest.raises(ValidationError, match="atom 0"):
            load_steps_document({"steps": [{"dists": [{"atoms": [[1.0]]}]}]})
        with pytest.raises(ValidationError):
            load_steps_document({"steps": [{"dists": [{"atoms": [[1, 2, 3, 1.0]]}]}]})

    def test_rejects_empty_containers(self):
        with pytest.raises(ValidationError):
            load_steps_document({"steps": []})
        with pytest.raises(ValidationError):
            load_steps_document({"steps": [{"dists": []}]})
        with pytest.raises(ValidationError, match="^steps\\[0\\].dists\\[0\\]: 'atoms' must be a nonempty list$"):
            load_steps_document({"steps": [{"dists": [{"atoms": []}]}]})
        with pytest.raises(ValidationError, match="missing key"):
            load_steps_document({"label": "nothing"})

    def test_names_offending_distribution(self):
        doc = {
            "steps": [
                {
                    "dists": [
                        {"atoms": [[1.0, 0.5], [-1.0, 0.5]]},
                        {"atoms": [[1.0, 2.0, 1.0]]},
                    ]
                }
            ]
        }
        with pytest.raises(ValidationError, match="distribution 1"):
            load_steps_document(doc)


class TestConfigParsers:
    def test_gparams(self):
        gp = parse_gparams({"mu": [-1.0, 1.0], "sigma2": [1.0, 4.0]})
        assert (gp.mu_lo, gp.mu_hi, gp.sig2_lo, gp.sig2_hi) == (-1.0, 1.0, 1.0, 4.0)

    def test_gparams_zero_floor_rejected_at_load(self):
        with pytest.raises(ValidationError, match="variance interval"):
            parse_gparams({"mu": [0.0, 0.0], "sigma2": [0.0, 1.0]})

    def test_solver_config(self):
        gp = GParams(0.0, 0.0, 1.0, 1.0)
        cfg = parse_solver_config({"dx": 0.1}, gp)
        assert cfg.n_intervals == 120
        assert (cfg.dt, cfg.t_final) == (stable_dt(gp, 0.1, 1.0), 1.0)

    def test_march_cap(self):
        # the g-* presets admit dx/2 (about 1.05e8 node updates) and refuse dx/8 (6.7e9)
        section = {"dx": 0.01}
        gp = load_preset("g-ambiguous").gp
        assert parse_solver_config(section, gp).n_intervals == 2500
        with pytest.raises(ValidationError, match=r"^pde.t_final = 1.0 asks for .* at dx = 0.0025,"):
            parse_solver_config({**section, "dx": 0.0025}, gp)

    def test_nested_config_defaults(self):
        cfg = parse_nested_config({"num_points": 101}, GParams(0.0, 0.0, 1.0, 1.0))
        assert cfg.mode == "grid_interp"


class TestEpsRules:
    def test_zero(self):
        assert np.all(eps_from_rule({"kind": "zero"}, 5) == 0.0)

    def test_harmonic(self):
        eps = eps_from_rule({"kind": "harmonic", "offset": 4}, 4)
        assert eps.tolist() == [0.25, 0.2, 1.0 / 6.0, 1.0 / 7.0]

    def test_alternating(self):
        eps = eps_from_rule({"kind": "alternating-harmonic", "offset": 4}, 4)
        assert eps.tolist() == [0.25, -0.2, 1.0 / 6.0, -1.0 / 7.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            eps_from_rule({"kind": "mystery"}, 4)
        with pytest.raises(ValidationError):
            eps_from_rule({"kind": "harmonic", "offset": 0}, 4)


class TestPresets:
    def test_shipped_names(self):
        assert packaged_preset_names() == ["classical-cos", "g-ambiguous", "g-perturbed"]

    def test_load_by_name_and_by_path(self, tmp_path):
        by_name = load_preset("g-ambiguous")
        assert by_name.family == "iid" and by_name.tolerance == 0.03
        doc = {
            "name": "copy",
            "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
            "family": "iid",
            "phi": "cos",
            "n_schedule": [2, 4],
            "dp": {"num_points": 101},
            "pde": {"dx": 0.5},
            "tolerance": 0.5,
        }
        (tmp_path / "copy.json").write_text(json.dumps(doc))
        pre = load_preset(tmp_path / "copy.json")
        assert pre.name == "copy" and pre.n_max == 4

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="shipped"):
            load_preset("no-such-preset")

    def test_a_directory_does_not_hide_a_shipped_preset(self, tmp_path, monkeypatch):
        """``gexpect clt --config g-ambiguous --out g-ambiguous`` leaves such a directory."""
        (tmp_path / "g-ambiguous").mkdir()
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        assert load_preset("g-ambiguous").name == "g-ambiguous"
        with pytest.raises(ValidationError, match="is neither a file nor a shipped preset"):
            load_preset("out")

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="list.json: the document must be a JSON object$"):
            read_json(path)

    def test_preset_validation(self):
        with pytest.raises(ValidationError, match="family"):
            parse_preset({
                "name": "x", "gp": {"mu": [0, 0], "sigma2": [1, 1]}, "family": "magic",
                "phi": "cos", "n_schedule": [2],
                "dp": {"num_points": 11},
                "pde": {"dx": 0.25},
                "tolerance": 0.1,
            })
        with pytest.raises(ValidationError, match="tolerance"):
            parse_preset({
                "name": "x", "gp": {"mu": [0, 0], "sigma2": [1, 1]}, "family": "iid",
                "phi": "cos", "n_schedule": [2],
                "dp": {"num_points": 11},
                "pde": {"dx": 0.25},
                "tolerance": 0.0,
            })

    @pytest.mark.parametrize(
        "name, half, num_points",
        [("classical-cos", 6.0, 4801), ("g-ambiguous", 12.5, 2501), ("g-perturbed", 12.5, 2501)],
    )
    def test_windows_follow_from_gp(self, name, half, num_points):
        preset = load_preset(name)
        assert (preset.pde.x_lo, preset.pde.x_hi) == (-half, half)
        assert preset.dp.state_grid == (-half, half, num_points)

    def test_pde_domain_rounds_out_to_whole_dx(self):
        # w = 6 sqrt(3) lies between 519 and 520 steps of dx = 0.02
        preset = parse_preset({
            "name": "wide", "gp": {"mu": [0, 0], "sigma2": [1, 3]}, "family": "iid",
            "phi": "cos", "n_schedule": [4], "dp": {"num_points": 101}, "pde": {"dx": 0.02},
            "tolerance": 0.5,
        })
        w = 6.0 * math.sqrt(3.0)
        assert preset.dp.state_grid == (-w, w, 101)
        assert (preset.pde.x_lo, preset.pde.x_hi, preset.pde.n_intervals) == (-520 * 0.02, 520 * 0.02, 1040)
        report = run_clt(preset.build_model(), preset.phi, preset.n_schedule, preset.dp, preset.pde)
        assert [n for n, *_ in report.rows] == [4]

    @pytest.mark.parametrize(
        "name, dt",
        [
            ("classical-cos", 0.00037993920972644377),
            ("g-ambiguous", 9.47597839476926e-05),
            ("g-perturbed", 9.47597839476926e-05),
        ],
    )
    def test_derived_dt_is_the_one_presets_carried(self, name, dt):
        pde = load_preset(name).pde
        assert (pde.dt, pde.t_final) == (dt, 1.0)

    def test_model_cap_admits_deep_models(self):
        doc = json.loads(
            resources.files("gexpect").joinpath("presets", "g-perturbed.json").read_text()
        )
        doc["family_params"]["n_max"] = 1024  # 6,144 laws
        assert parse_preset(doc).n_max == 1024
        doc["family_params"]["n_max"] = 20_000  # 120,000 laws
        with pytest.raises(ValidationError, match="above the cap"):
            parse_preset(doc)

    def test_eps_rule_is_checked_at_load(self):
        doc = json.loads(
            resources.files("gexpect").joinpath("presets", "g-perturbed.json").read_text()
        )
        assert parse_preset(doc).eps_rule == {"kind": "alternating-harmonic", "offset": 4}
        with pytest.raises(ValidationError, match=r"^eps_rule must be an object, got \[\]$"):
            parse_preset({**doc, "eps_rule": []})
        with pytest.raises(ValidationError, match="^unknown eps_rule kind 'periodic'$"):
            parse_preset({**doc, "eps_rule": {"kind": "periodic"}})
        del doc["eps_rule"]  # only an absent rule means zero
        assert parse_preset(doc).eps_rule == {"kind": "zero"}

    def test_build_model_from_preset(self):
        pre = load_preset("g-perturbed")
        model = pre.build_model()
        assert len(model) == 256
        # perturbed: every step's atoms differ from the reference's, the iid step's
        assert all(not np.array_equal(s.points, model.reference.points) for s in model.steps)


class TestWriters:
    def test_convergence_csv_deterministic(self, tmp_path):
        report = ConvergenceReport(rows=[(2, 0.1, 0.15, 0.05), (4, 0.12, 0.15, 0.03)])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_convergence_csv(report, p1)
        write_convergence_csv(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "n,lhs,pde,e_n"
        assert lines[1].startswith("2,0.1,")

    def test_value_function_csv(self, tmp_path):
        from gexpect import GParams, SolverConfig, solve, stable_dt
        from gexpect.functions import cosine

        gp = GParams(0.0, 0.0, 1.0, 1.0)
        cfg = SolverConfig(-6.0, 6.0, 0.5, stable_dt(gp, 0.5, 1.0), 1.0)
        vf = solve(gp, cosine(), cfg)
        path = tmp_path / "vf.csv"
        write_value_function_csv(vf, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,v"
        assert len(lines) == vf.grid_values.size + 1

    def test_condition_report_json(self, tmp_path):
        from gexpect import GParams, build_iid_family

        model = build_iid_family(GParams(-0.5, 0.5, 1.0, 4.0), 2, 2, 4)
        report = check_conditions(model)
        path = tmp_path / "cond.json"
        write_condition_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["beta"] == 1.0
        assert loaded["third_moment_bound"] == pytest.approx(8.0)
        assert len(loaded["mean_residuals"]) == 4
