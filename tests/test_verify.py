"""fork_map and the verify queue: input order, the largest cost first, fork
inheritance, worker errors, the inline path, the verify queue's submit order,
the semigroup suite's record order, and a CLI import that loads no pool
machinery. Costs of 1 s an item promise a saving, so such maps fork."""

import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import gexpect
from gexpect import parallel, verify
from gexpect.cli import main
from gexpect.errors import Report, ValidationError
from gexpect.parallel import fork_map
from gexpect.verify import run_suites, semigroup_suite

USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def test_results_keep_input_order():
    # earlier items sleep longer, so later items finish first
    assert fork_map(lambda x: time.sleep(0.02 * (4 - x)) or x, range(5), [1.0] * 5) == [0, 1, 2, 3, 4]


def test_closure_over_a_local_reaches_the_workers():
    offset = 10
    assert fork_map(lambda x: x + offset, [1, 2, 3], [1.0] * 3) == [11, 12, 13]


def test_worker_error_is_raised_with_its_type_and_message():
    def check(x):
        if x == 2:
            raise ValidationError(f"item {x} refused")
        return x

    with pytest.raises(ValidationError, match=r"^item 2 refused$"):
        fork_map(check, [0, 1, 2, 3], [1.0] * 4)


@pytest.mark.parametrize("platform", ["one-cpu", "no-affinity"])
def test_runs_inline_without_a_second_cpu(monkeypatch, platform):
    if platform == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fork_map(lambda _: os.getpid(), [0, 1, 2], [1.0] * 3) == [os.getpid()] * 3


def test_runs_inline_beside_another_thread(monkeypatch):
    # a fork taken while another thread runs can deadlock, whatever the CPU count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        assert fork_map(lambda _: os.getpid(), [0, 1, 2], [1.0] * 3) == [os.getpid()] * 3
    finally:
        parked.set()
        thread.join()


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
def test_runs_in_children_with_two_cpus():
    pids = fork_map(lambda _: os.getpid(), [0, 1, 2], [1.0] * 3)
    assert os.getpid() not in pids


def test_runs_inline_when_the_costs_promise_little(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # spread over two workers, these save 0.03 s: within MIN_FORK_SAVING_S
    assert fork_map(lambda _: os.getpid(), [0, 1, 2], [0.04, 0.02, 0.01]) == [os.getpid()] * 3


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs two usable CPUs")
def test_runs_in_children_when_the_costs_promise_a_saving(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # spread over two workers, these save 0.2 s
    pids = fork_map(lambda _: os.getpid(), [0, 1, 2], [0.3, 0.1, 0.1])
    assert os.getpid() not in pids


def test_the_largest_cost_is_submitted_first(monkeypatch):
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(pool, fn, index):
        submitted.append(index)
        return submit(pool, fn, index)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    assert fork_map(lambda x: 10 * x, [0, 1, 2, 3], [0.1, 0.3, 0.2, 0.3]) == [0, 10, 20, 30]
    assert submitted == [1, 3, 2, 0]  # the two 0.3 s items in input order


def test_verify_all_submits_the_largest_march_first_then_the_campaigns(monkeypatch):
    queue = {}
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording_fork_map(fn, items, costs):
        queue["items"] = items
        return parallel.fork_map(fn, items, costs)

    def recording_submit(pool, fn, index):
        task = queue["items"][index]
        submitted.append(task if isinstance(task, str) else (task[-1].n_steps, task[-1].n_intervals + 1))
        return submit(pool, fn, index)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    monkeypatch.setattr(verify, "fork_map", recording_fork_map)
    monkeypatch.setattr(verify, "semigroup_check", lambda *args: 0.0)  # keeps the run short
    for name in ("axioms", "gfunction", "holder", "oracle"):
        monkeypatch.setitem(verify.SUITES, name, lambda seed=0, name=name: Report(name))
    reports = run_suites(sorted(verify.SUITES), 20260801)
    assert [r.name for r in reports] == sorted(verify.SUITES)
    assert submitted == [
        (42316, 2601),  # ambiguous, fine
        (10528, 1401),  # degenerate, fine
        (10579, 1301),  # ambiguous, coarse
        (2632, 701),  # degenerate, coarse
        "axioms",
        "gfunction",
        "holder",
        "oracle",
    ]


def test_the_first_failure_in_input_order_is_raised(monkeypatch):
    # the costlier item 2 starts first and fails first, but item 0 comes first in the input
    def check(x):
        if x != 1:
            raise ValidationError(f"item {x} refused")
        return x

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(ValidationError, match=r"^item 0 refused$"):
        fork_map(check, [0, 1, 2], [0.1, 0.1, 0.5])


def test_inline_map_stops_at_the_first_failure(monkeypatch):
    calls = []

    def check(x):
        calls.append(x)
        if x == 1:
            raise ValidationError(f"item {x} refused")
        return x

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with pytest.raises(ValidationError, match=r"^item 1 refused$"):
        fork_map(check, [0, 1, 2, 3], [1.0] * 4)
    assert calls == [0, 1]


def test_cli_import_loads_no_pool_machinery():
    # fork_map imports them on its first pool, so a run in one process never pays for them
    src = os.path.dirname(os.path.dirname(gexpect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gexpect.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_semigroup_queue_keeps_the_record_order(monkeypatch):
    # a distinct value per config, growing with the march, so every
    # contraction check fails and its witness names the case and the values
    def fake(gp, phi, a, b, cfg):
        return cfg.n_steps * (cfg.n_intervals + 1) * 1e-12

    monkeypatch.setattr(verify, "semigroup_check", fake)
    want = semigroup_suite(3)
    assert want.failures == 2
    assert run_suites(["semigroup"], 3) == [want]


def test_campaign_error_in_a_worker_exits_2(monkeypatch, capsys):
    def broken(seed=0):
        raise ValidationError("holder campaign refused")

    monkeypatch.setitem(verify.SUITES, "holder", broken)
    monkeypatch.setattr(verify, "semigroup_check", lambda *args: 0.0)  # keeps the run short
    assert main(["verify", "all", "--seed", "1"]) == 2
    assert capsys.readouterr().out == "error: holder campaign refused\n"
