"""Pluggable batch executors and the session execution policy.

A :class:`GraphSession` hands every ``run_many`` batch to an *executor*,
whose only job is the fan-out: turn ``(evaluate, queries)`` into one
answer set per query, where *evaluate* is the session's own dispatcher
bound to each query's already-resolved route.

* :class:`SequentialExecutor` — evaluate in order on the calling thread;
  the default, and the best choice for single queries and small batches.
* :class:`ParallelExecutor` — fan a batch out across workers.  The
  ``"thread"`` backend uses :class:`concurrent.futures.ThreadPoolExecutor`;
  the ``"process"`` backend forks worker processes that inherit the
  session, graph and compiled automata by copy-on-write, which is the
  backend that actually scales CPU-bound evaluation across cores under
  the GIL.  On platforms without ``fork`` the process backend degrades to
  threads.

Executors never touch the session's result cache — the session resolves
cache hits and routes first, warms the compilation caches, and only
ships the misses — so executors stay stateless and trivially pluggable
(anything with an ``execute_batch`` method works).

:class:`ExecutionPolicy` is the declarative knob the session is
constructed with: which executor to use, the worker budget, how the
versioned caches behave, and the two forced-route overrides.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..engine.forkpool import fork_available, run_forked
from ..exceptions import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query import Query

__all__ = [
    "ExecutionPolicy",
    "POLICY_PRESETS",
    "STORAGE_BACKENDS",
    "SequentialExecutor",
    "ParallelExecutor",
]

#: The session dispatcher an executor fans out: one query in, its answer
#: set out (the route is already resolved and bound by the session).
Evaluate = Callable[["Query"], frozenset]


class SequentialExecutor:
    """Evaluate a batch in order on the calling thread."""

    name = "sequential"

    def execute_batch(self, evaluate: Evaluate, queries: Sequence["Query"]) -> List[frozenset]:
        """One answer set per query, in query order."""
        return [evaluate(query) for query in queries]

    def __repr__(self) -> str:
        return "SequentialExecutor()"


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------
def _fork_worker(batch, index: int) -> frozenset:
    """Forked worker: one query of the batch (which arrives by copy-on-write
    through :func:`repro.engine.forkpool.run_forked`, fork being the only way
    to ship an unpicklable session and DataGraph to workers)."""
    evaluate, queries = batch
    return evaluate(queries[index])


class ParallelExecutor:
    """Evaluate a batch across a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8.
    backend:
        ``"thread"`` (default) or ``"process"``.  Threads add no
        interpreter-level parallelism for this pure-Python workload but
        keep results immediately shareable; processes (POSIX ``fork``)
        run truly concurrently and pay one pickle of each answer set on
        the way back.
    """

    def __init__(self, max_workers: Optional[int] = None, backend: str = "thread"):
        if backend not in {"thread", "process"}:
            raise EvaluationError(f"unknown parallel backend {backend!r}")
        if max_workers is not None and max_workers < 1:
            raise EvaluationError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self.backend = backend

    @property
    def name(self) -> str:
        return f"parallel-{self.backend}"

    def _workers_for(self, batch_size: int) -> int:
        limit = self.max_workers or min(os.cpu_count() or 1, 8)
        return max(1, min(limit, batch_size))

    def execute_batch(self, evaluate: Evaluate, queries: Sequence["Query"]) -> List[frozenset]:
        """One answer set per query, in query order."""
        if len(queries) <= 1:
            return [evaluate(query) for query in queries]
        workers = self._workers_for(len(queries))
        if self.backend == "process" and fork_available():
            return run_forked(
                (evaluate, tuple(queries)), _fork_worker, len(queries), max_workers=workers
            )
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate, queries))

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers}, backend={self.backend!r})"


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
#: Valid ``ExecutionPolicy.intra_query`` values: ``"off"`` leaves the
#: driver to the router, the others force it.
INTRA_QUERY_MODES = ("off", "blocks", "sharded")

#: Valid ``ExecutionPolicy.backend`` values: ``"auto"`` leaves the kernel
#: family to the router (compact), the others force it.
STORAGE_BACKENDS = ("auto", "compact", "dict", "sql")

#: Valid ``ExecutionPolicy.routing`` values; the router ignores both
#: (:func:`repro.planner.route_query`).
ROUTING_MODES = ("auto", "manual")

#: The named policy presets of :meth:`ExecutionPolicy.preset`.  Each
#: entry overrides the dataclass defaults; everything unnamed keeps the
#: default value.  No preset forces a route — that stays the router's.
POLICY_PRESETS = {
    # Sequential batches, full caching — single queries, small graphs,
    # notebooks, and the daemon (which already multiplexes clients).
    "local": {},
    # Saturate one machine: batches fork worker processes.
    "parallel": {"executor": "process"},
}


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a :class:`GraphSession` executes and caches queries.

    Seven fields say what a user actually chooses — the batch executor,
    the worker budget, the caches and the routing mode — and two
    (``backend``, ``intra_query``) force part of the route the router
    would otherwise resolve::

        ExecutionPolicy()                           # sequential, cached, routed
        ExecutionPolicy.auto()                      # batch executor for this host
        ExecutionPolicy(backend="sql")              # force the kernel family
        ExecutionPolicy(intra_query="blocks", max_workers=4)   # force the driver

    Attributes
    ----------
    executor:
        ``"sequential"``, ``"thread"`` or ``"process"`` — the executor
        ``run_many`` batches are handed to.
    max_workers:
        The one worker budget: the parallel executors' pool size and the
        intra-query drivers' worker and shard count (default: CPU count
        capped at 8).
    cache_results:
        Whether the session memoises answers keyed on
        ``(graph.version, query.key, null_semantics)``.
    result_cache_size:
        LRU bound on the number of cached answer sets.
    point_cache_size:
        LRU bound on the session's single-source (point-workload) cache
        of :meth:`GraphSession.targets` answers.
    delta_repair:
        Whether the session re-answers a cached full relation from its
        previous entry across journaled deltas
        (:func:`repro.deltas.repair.repair_full_relation`) instead of
        recomputing from scratch after every mutation.  Answers are
        identical either way; disable to force the full-recompute
        executable spec.
    routing:
        ``"auto"`` (the default) or ``"manual"``.  Either way the router
        (:func:`repro.planner.route_query`) resolves the ``compact``
        kernels, sequentially, unless ``backend`` or ``intra_query``
        force a route: the value is accepted and ignored.  Kept for
        callers that pass it; due for retirement.
    backend:
        Forced kernel family: ``"dict"`` keeps the hash-table
        :class:`~repro.datagraph.index.LabelIndex` kernels,
        ``"compact"`` the int-id CSR kernels over the graph's
        :class:`~repro.datagraph.compact.CompactLabelIndex`, ``"sql"``
        the compiled relational backend of :mod:`repro.sqlbackend`
        (recursive CTEs over the paper's ``D_G`` encoding in an embedded
        sqlite/duckdb database).  ``"auto"`` (the default) is
        ``compact``.  Answers are bit-identical in every mode.
    intra_query:
        Forced driver for a *single* full-relation query: ``"blocks"``
        (the phase-3 source propagation fanned out over worker
        processes) or ``"sharded"`` (the edge-cut scatter/gather
        driver), for every dialect with a product space.  ``"off"`` (the
        default) leaves the choice to the router.
    """

    executor: str = "sequential"
    max_workers: Optional[int] = None
    cache_results: bool = True
    result_cache_size: int = 1024
    point_cache_size: int = 1024
    delta_repair: bool = True
    routing: str = "auto"
    backend: str = "auto"
    intra_query: str = "off"

    def __post_init__(self) -> None:
        for name, value, valid in (
            ("executor", self.executor, ("sequential", "thread", "process")),
            ("routing mode", self.routing, ROUTING_MODES),
            ("storage backend", self.backend, STORAGE_BACKENDS),
            ("intra_query mode", self.intra_query, INTRA_QUERY_MODES),
        ):
            if value not in valid:
                raise EvaluationError(
                    f"unknown {name} {value!r}; expected one of {', '.join(valid)}"
                )

    @classmethod
    def preset(cls, name: str, **overrides) -> "ExecutionPolicy":
        """A named policy shape, optionally adjusted with field overrides.

        ``"local"`` — sequential batches, fully cached (the default
        policy).  ``"parallel"`` — process-pool batches.
        """
        base = POLICY_PRESETS.get(name)
        if base is None:
            raise EvaluationError(
                f"unknown policy preset {name!r}; "
                f"expected one of {', '.join(sorted(POLICY_PRESETS))}"
            )
        return cls(**{**base, **overrides})

    @classmethod
    def auto(cls, **overrides) -> "ExecutionPolicy":
        """Pick a preset for this host: ``"parallel"`` where forked worker
        pools can pay (POSIX fork, multiple cores), else ``"local"``.
        Only the batch executor differs — routing stays the router's."""
        name = "parallel" if fork_available() and (os.cpu_count() or 1) >= 2 else "local"
        return cls.preset(name, **overrides)

    def build_executor(self):
        """Instantiate the executor this policy names."""
        if self.executor == "sequential":
            return SequentialExecutor()
        return ParallelExecutor(max_workers=self.max_workers, backend=self.executor)
