"""``fork_map``: a list comprehension spread over forked workers.

``verify.run_suites`` maps its semigroup checks and campaigns through it, and
``clt.run_clt`` its PDE value and nested rows, both with estimated costs from
which ``fork_map`` alone orders the queue and decides to fork; both get the
values, and the first error, of a run in one process.

A pool takes about 12 ms to start (median of 15 trivial maps on a 2-CPU
x86-64 machine, Python 3.11), and two numpy marches side by side slow each
other, so items that could save little gain nothing steady from a pool, and
their time then varies with what else runs on the machine. A map whose
``costs`` promise no more than ``MIN_FORK_SAVING_S`` runs inline: each shipped
``clt`` preset's rows, about 0.02 s beside a 0.13 s PDE march, stay in one process.
"""

from __future__ import annotations

import os
import threading

# the task function and items of the running ``fork_map``; set before the
# workers fork, so they inherit it and only indices and results are pickled
_FORKED = None

MIN_FORK_SAVING_S = 0.05


def _forked_task(index: int):
    fn, items = _FORKED
    return fn(items[index])


def fork_map(fn, items: list, costs: list[float]) -> list:
    """``[fn(x) for x in items]``, computed on one forked worker per usable CPU.

    Workers take the items from one queue, the largest of the estimated
    ``costs`` (seconds) first, ties in input order, so a long item does not
    start last and hold back the end. The results come back in input order,
    and the first failure in input order is raised here with its type and
    message; items not started by then never run. ``fn`` and ``items`` reach
    the workers by fork inheritance, so closures, lambdas and module
    attributes rebound at run time work there as in this process; only
    indices, results and exceptions are pickled. The map runs inline, in
    input order, with one usable CPU or one item, without
    ``os.sched_getaffinity`` (macOS and Windows, where fork is unsafe or
    missing), when the caller has other live threads (a threaded host such
    as a notebook kernel), since a fork taken while another thread holds a
    lock can deadlock, and when ``costs`` promise to save no more than
    ``MIN_FORK_SAVING_S``: the total less the larger of the longest item and
    the total's share per worker."""
    global _FORKED
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)
    if workers < 2 or threading.active_count() > 1:
        return [fn(x) for x in items]
    if sum(costs) - max(max(costs), sum(costs) / workers) <= MIN_FORK_SAVING_S:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _FORKED = (fn, items)  # the first submit forks every worker, then starts the pool's thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        queue = sorted(range(len(items)), key=lambda i: -costs[i])  # ties keep their order
        futures = {i: pool.submit(_forked_task, i) for i in queue}
        return [futures[i].result() for i in range(len(items))]
    finally:
        pool.shutdown(cancel_futures=True)
        _FORKED = None
