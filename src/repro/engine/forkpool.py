"""Fork-based fan-out for the forced ``blocks`` driver.

The source-block driver (:mod:`repro.engine.partition`) ships
unpicklable state (graph label indexes, compiled automata) to workers
this way: a module-level global assigned under a lock, worker processes
forked so they inherit it by copy-on-write, and only small picklable
results crossing the process boundary.  :func:`run_forked` forks a pool,
evaluates ``worker(payload, i)`` for every task index and tears the pool
down.

The module lock serialises the *fork moment*: two concurrent fan-outs
would otherwise overwrite each other's payload global between assignment
and the workers' fork.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List

__all__ = ["fork_available", "run_forked"]

#: Worker state ``(worker, payload)`` inherited by forked children;
#: guarded by _LOCK.
_STATE = None
_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _invoke(index: int):
    worker, payload = _STATE
    return worker(payload, index)


def run_forked(payload: Any, worker: Callable[[Any, int], Any], count: int) -> List[Any]:
    """Evaluate ``worker(payload, i)`` for ``i in range(count)`` in forked workers.

    *worker* must be a module-level function (it is reached through the
    fork-inherited global, and referenced by name from the pool); each
    call's return value must be picklable for the trip back.  One worker
    process per task; results are returned in task order.
    """
    global _STATE
    if count == 0:
        # ProcessPoolExecutor rejects max_workers=0; an empty fan-out
        # needs no pool (and no lock) at all.
        return []
    context = multiprocessing.get_context("fork")
    with _LOCK:
        _STATE = (worker, payload)
        try:
            with ProcessPoolExecutor(max_workers=count, mp_context=context) as pool:
                return list(pool.map(_invoke, range(count)))
        finally:
            _STATE = None
