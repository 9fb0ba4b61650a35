"""One rule for a step count n and a schedule: the evaluators, ``run_clt`` and
a preset's ``n_schedule`` under both preset commands give the same verdict."""

import json

import numpy as np
import pytest

from gexpect import (
    GParams,
    SolverConfig,
    ValidationError,
    bruteforce_nested,
    build_iid_family,
    count_policies,
    nested_expect,
    run_clt,
    stable_dt,
)
from gexpect.cli import main
from gexpect.functions import cosine
from gexpect.nested import NestedEvalConfig

GP = GParams(0.0, 0.0, 1.0, 1.0)
MODEL = build_iid_family(GP, 1, 1, 8)  # eight fair-coin steps: every n is on a lattice
LATTICE = NestedEvalConfig(mode="exact_lattice")
PDE = SolverConfig(-6.0, 6.0, 0.5, stable_dt(GP, 0.5, 1.0), 1.0)
PRESET = {
    "name": "rule",
    "gp": {"mu": [0.0, 0.0], "sigma2": [1.0, 1.0]},
    "family": "iid",
    "family_params": {"n_max": 8, "sigma_levels": 1, "mean_levels": 1},
    "phi": "cos",
    "dp": {"num_points": 101},
    "pde": {"dx": 0.5},
    "tolerance": 0.1,
}

# one n each: an evaluator takes it as n, and a schedule holds it alone
STEP_COUNTS = [
    pytest.param(True, False, id="bool"),
    pytest.param(8.0, False, id="float"),
    pytest.param(0, False, id="zero"),
    pytest.param("8", False, id="string"),
    pytest.param(9, False, id="past-the-model"),
    pytest.param(np.int64(8), True, id="numpy-integer"),
]
# schedules: an evaluator takes each as n, and refuses it
SCHEDULES = [
    pytest.param([8, 4], id="decreasing"),
    pytest.param([8, 8], id="repeated"),
    pytest.param([], id="empty"),
]


EVALUATORS = [
    lambda n: nested_expect(cosine(), MODEL, n, LATTICE),
    lambda n: bruteforce_nested(cosine(), MODEL, n),
    lambda n: count_policies(MODEL, n),
]


def verdict(call) -> bool:
    try:
        call()
    except ValidationError:
        return False
    return True


def preset_verdicts(tmp_path, schedule) -> list[bool]:
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({**PRESET, "n_schedule": schedule}))
    codes = [
        main([command, "--config", str(path), "--out", str(tmp_path / command)])
        for command in ("clt", "check-conditions")
    ]
    assert set(codes) <= {0, 2}
    return [code == 0 for code in codes]


@pytest.mark.parametrize("n, accepted", STEP_COUNTS)
def test_one_verdict_for_a_step_count(tmp_path, capsys, n, accepted):
    verdicts = [verdict(lambda: evaluate(n)) for evaluate in EVALUATORS]
    verdicts.append(verdict(lambda: run_clt(MODEL, cosine(), [n], LATTICE, PDE)))
    # JSON has no numpy integer: the preset holds its value
    verdicts += preset_verdicts(tmp_path, [n.item() if isinstance(n, np.integer) else n])
    assert verdicts == [accepted] * 6


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_one_verdict_for_a_schedule(tmp_path, capsys, schedule):
    verdicts = [verdict(lambda: evaluate(schedule)) for evaluate in EVALUATORS]
    verdicts.append(verdict(lambda: run_clt(MODEL, cosine(), schedule, LATTICE, PDE)))
    verdicts += preset_verdicts(tmp_path, schedule)
    assert verdicts == [False] * 6


def test_a_schedule_past_n_max_is_refused_at_load(tmp_path, capsys):
    assert preset_verdicts(tmp_path, [4, 9]) == [False, False]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error: preset.n_schedule must be a nonempty, strictly increasing sequence of integers "
        "in [1, 8] (family_params.n_max), got [4, 9]"
    )


@pytest.mark.parametrize("schedule", [5, "48", {"8": 1}, None], ids=["number", "string", "object", "null"])
def test_a_schedule_that_is_no_sequence_is_refused(tmp_path, capsys, schedule):
    with pytest.raises(ValidationError, match="^n_schedule must be a nonempty, strictly increasing"):
        run_clt(MODEL, cosine(), schedule, LATTICE, PDE)
    assert preset_verdicts(tmp_path, schedule) == [False, False]
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "error: preset.n_schedule must be a nonempty, strictly increasing sequence of integers in [1, 8]"
    )


def test_accepted_schedules_keep_working():
    want = [row[:2] for row in run_clt(MODEL, cosine(), [2, 4, 8], LATTICE, PDE).rows]
    for schedule in (np.array([2, 4, 8]), (np.int64(2), 4, 8)):
        rows = run_clt(MODEL, cosine(), schedule, LATTICE, PDE).rows
        assert [row[:2] for row in rows] == want
        assert all(type(row[0]) is int for row in rows)
    assert [row[0] for row in run_clt(MODEL, cosine(), range(1, 9), LATTICE, PDE).rows] == list(range(1, 9))


def test_messages_name_the_field_the_range_and_the_value():
    with pytest.raises(ValidationError, match=r"^n must be an integer in \[1, 8\] \(the model's step count\), got 9$"):
        nested_expect(cosine(), MODEL, 9, LATTICE)
    with pytest.raises(ValidationError, match=r"^n must be an integer in \[1, 8\] \(the model's step count\), got 8\.0$"):
        bruteforce_nested(cosine(), MODEL, 8.0)
    with pytest.raises(
        ValidationError,
        match=(
            r"^n_schedule must be a nonempty, strictly increasing sequence of integers in \[1, 8\] "
            r"\(the model's step count\), got \[2, 16\]$"
        ),
    ):
        run_clt(MODEL, cosine(), [2, 16], LATTICE, PDE)
