"""``fork_map``: a list comprehension spread over forked workers.

``verify.run_suites`` maps its campaigns and semigroup checks through it, and
``clt.run_clt`` its PDE value and nested rows; both keep the values a run in
one process computes.

A pool takes about 12 ms to start (median of 15 trivial maps on a 2-CPU
x86-64 machine, Python 3.11), and two numpy marches side by side slow each
other, so items that could save little gain nothing steady from a pool, and
their time then varies with what else runs on the machine. A map given
estimated ``costs`` that promise no more than ``MIN_FORK_SAVING_S`` runs
inline: each shipped ``clt`` preset's rows, about 0.02 s beside a 0.13 s
PDE march, stay in one process.
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


def fork_map(fn, items: list, costs: list[float] | None = None) -> list:
    """``[fn(x) for x in items]``, computed on one forked worker per usable CPU.

    Workers take items from one queue in input order, so a long task placed
    first does not hold back the rest, and the results come back in input
    order. ``fn`` and ``items`` reach the workers by fork inheritance, so
    closures, lambdas and module attributes rebound at run time work there as
    in this process; only indices, results and exceptions are pickled. A
    worker's exception is raised here with its type and message. The map runs
    inline in this process with one usable CPU or one item, without
    ``os.sched_getaffinity`` (macOS and Windows, where fork is unsafe or
    missing), and when the caller has other live threads (a threaded host
    such as a notebook kernel), since a fork taken while another thread holds
    a lock can deadlock; the pool forks every worker before it starts its own
    manager thread. With ``costs``, the estimated seconds of each item, the
    map also runs inline unless spreading the items over the workers could
    save more than ``MIN_FORK_SAVING_S``: the total less the larger of the
    longest item and the total's share per worker."""
    global _FORKED
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)
    if workers < 2 or threading.active_count() > 1:
        return [fn(x) for x in items]
    if costs is not None and sum(costs) - max(max(costs), sum(costs) / workers) <= MIN_FORK_SAVING_S:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _FORKED = (fn, items)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_forked_task, range(len(items))))
    finally:
        _FORKED = None
