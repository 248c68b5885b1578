"""Shared fork-based fan-out used by the batch executor and the partition driver.

Both cross-query batches (:mod:`repro.api.executors`) and intra-query
shard rounds (:mod:`repro.engine.partition`) ship unpicklable state
(graphs, label indexes, compiled automata) to workers the same way: a
module-level global assigned under a lock, worker processes forked so
they inherit it by copy-on-write, and only small picklable messages
crossing the process boundary.  This module holds the one copy of that
subtle pattern, in two shapes:

* :func:`run_forked` — the historical one-shot fan-out: fork a pool,
  evaluate ``worker(payload, i)`` for every task index, tear the pool
  down.  Right for a single round of independent tasks.

* :class:`ForkPool` — a pool of **long-lived** forked workers driven by
  explicit message rounds.  Workers are forked once (inheriting the
  payload by copy-on-write), keep whatever per-process state they build
  between rounds, and exchange only small picklable messages with the
  parent over pipes.  This is what lets the sharded driver keep its
  per-shard mask tables inside the workers across frontier-exchange
  rounds instead of re-forking a fresh pool every round.

The module lock serialises the *fork moment* of every pool in the
process: two concurrent forks would otherwise overwrite each other's
payload global between assignment and the workers' fork.  Once a pool's
workers are forked they no longer read the global, so holding a
:class:`ForkPool` open does not block other fan-outs.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..exceptions import EvaluationError

__all__ = ["fork_available", "run_forked", "ForkPool"]

#: Worker state inherited by forked children; guarded by _LOCK.
#: One-shot pools store ``(worker, payload)``; ForkPool stores
#: ``(worker, payload)`` with a three-argument worker.
_STATE = None
_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _invoke(index: int):
    worker, payload = _STATE
    return worker(payload, index)


def run_forked(
    payload: Any,
    worker: Callable[[Any, int], Any],
    count: int,
    max_workers: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``worker(payload, i)`` for ``i in range(count)`` in forked workers.

    *worker* must be a module-level function (it is reached through the
    fork-inherited global, and referenced by name from the pool); each
    call's return value must be picklable for the trip back.  Results are
    returned in task order.
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
            workers = max_workers if max_workers is not None else count
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                return list(pool.map(_invoke, range(count)))
        finally:
            _STATE = None


# ----------------------------------------------------------------------
# Persistent pools
# ----------------------------------------------------------------------
def _pool_worker_main(conn, index: int) -> None:
    """Entry point of one long-lived forked worker.

    The worker function and payload arrive through the fork-inherited
    global (captured into locals immediately, before the parent clears
    it is irrelevant — the child owns a copy-on-write snapshot).  The
    loop answers one message at a time; per-process state the worker
    function keeps between messages (e.g. shard mask tables) lives in
    the worker module's own globals.
    """
    worker, payload = _STATE
    while True:
        try:
            kind, message = conn.recv()
        except EOFError:  # parent died or closed our pipe: exit quietly
            break
        if kind == "stop":
            break
        try:
            reply = (True, worker(payload, index, message))
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            reply = (False, error)
        try:
            conn.send(reply)
        except Exception as error:  # unpicklable result or exception
            conn.send((False, EvaluationError(f"fork-pool reply not picklable: {error}")))


class ForkPool:
    """A pool of long-lived forked workers driven by message rounds.

    Parameters
    ----------
    payload:
        Arbitrary (possibly unpicklable) state the workers inherit by
        copy-on-write at fork time.
    worker:
        A module-level function ``worker(payload, index, message)``
        evaluated in worker *index* for every message sent to it.  Its
        return value must be picklable.  Per-process state kept between
        messages belongs in the worker module's globals — each worker
        process owns a private copy.
    count:
        Number of worker processes.

    The pool is a context manager; :meth:`close` (or ``__exit__``) sends
    every worker a stop message and reaps the processes.  Workers are
    daemonic, so a crashed parent cannot leak them.
    """

    def __init__(self, payload: Any, worker: Callable[[Any, int, Any], Any], count: int):
        if count < 1:
            raise EvaluationError(f"a fork pool needs at least one worker, got {count}")
        if not fork_available():
            raise EvaluationError("ForkPool requires the 'fork' start method")
        global _STATE
        context = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        self.count = count
        with _LOCK:
            _STATE = (worker, payload)
            try:
                for index in range(count):
                    parent_end, child_end = context.Pipe()
                    process = context.Process(
                        target=_pool_worker_main, args=(child_end, index), daemon=True
                    )
                    process.start()
                    child_end.close()
                    self._conns.append(parent_end)
                    self._procs.append(process)
            finally:
                _STATE = None
        self._closed = False

    # ------------------------------------------------------------------
    def run(self, tasks: Mapping[int, Any]) -> Dict[int, Any]:
        """Send one message per worker index and collect the replies.

        Messages are sent to every addressed worker before any reply is
        awaited, so a round's tasks execute concurrently.  A worker
        exception is re-raised in the parent; a worker that died
        mid-task surfaces as an :class:`EvaluationError`.
        """
        if self._closed:
            raise EvaluationError("fork pool is closed")
        for index, message in tasks.items():
            self._conns[index].send(("task", message))
        results: Dict[int, Any] = {}
        failure: Optional[BaseException] = None
        for index in tasks:
            try:
                ok, value = self._conns[index].recv()
            except EOFError:
                failure = failure or EvaluationError(
                    f"fork-pool worker {index} died mid-task"
                )
                continue
            if ok:
                results[index] = value
            else:
                failure = failure or value
        if failure is not None:
            raise failure
        return results

    def broadcast(self, message: Any) -> List[Any]:
        """Send the same message to every worker; replies in worker order."""
        results = self.run({index: message for index in range(self.count)})
        return [results[index] for index in range(self.count)]

    def pids(self) -> List[int]:
        """The worker process ids (stable for the pool's lifetime)."""
        return [process.pid for process in self._procs]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass  # worker already gone
        for process in self._procs:
            process.join(timeout=timeout)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=timeout)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<ForkPool {self.count} workers ({state})>"
