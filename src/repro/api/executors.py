"""The session execution policy.

:class:`ExecutionPolicy` is the declarative knob a :class:`GraphSession`
is constructed with: how the versioned caches behave, and the two
forced-route overrides.  A ``run_many`` batch always runs in order on
the calling thread (:meth:`GraphSession.run_many`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..exceptions import EvaluationError

__all__ = ["ExecutionPolicy", "STORAGE_BACKENDS"]

#: Valid ``ExecutionPolicy.intra_query`` values: ``"off"`` leaves the
#: driver to the router, ``"blocks"`` forces the source-block driver.
INTRA_QUERY_MODES = ("off", "blocks")

#: Valid ``ExecutionPolicy.backend`` values: ``"auto"`` leaves the kernel
#: family to the router (compact), the others force it.
STORAGE_BACKENDS = ("auto", "compact", "dict", "sql")

#: Valid ``ExecutionPolicy.routing`` values; the router ignores both
#: (:func:`repro.planner.route_query`).
ROUTING_MODES = ("auto", "manual")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a :class:`GraphSession` executes and caches queries.

    Six fields say what a user actually chooses — the worker budget, the
    caches and the routing mode — and two (``backend``, ``intra_query``)
    force part of the route the router would otherwise resolve::

        ExecutionPolicy()                           # cached, routed
        ExecutionPolicy(backend="sql")              # force the kernel family
        ExecutionPolicy(intra_query="blocks", max_workers=4)   # force the driver

    Attributes
    ----------
    max_workers:
        The forced ``blocks`` driver's worker budget (default: CPU count
        capped at 8); ``None`` or a positive ``int``.
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
        ``"blocks"`` forces the source-block driver for a *single*
        full-relation query (the phase-3 source propagation fanned out
        over worker processes), for every dialect with a product space.
        ``"off"`` (the default) leaves the choice to the router.
    """

    max_workers: Optional[int] = None
    cache_results: bool = True
    result_cache_size: int = 1024
    point_cache_size: int = 1024
    delta_repair: bool = True
    routing: str = "auto"
    backend: str = "auto"
    intra_query: str = "off"

    def __post_init__(self) -> None:
        workers = self.max_workers
        if workers is not None and (type(workers) is not int or workers < 1):
            raise EvaluationError(
                f"max_workers must be None or a positive int, got {workers!r}"
            )
        for name, value, valid in (
            ("routing mode", self.routing, ROUTING_MODES),
            ("storage backend", self.backend, STORAGE_BACKENDS),
            ("intra_query mode", self.intra_query, INTRA_QUERY_MODES),
        ):
            if value not in valid:
                raise EvaluationError(
                    f"unknown {name} {value!r}; expected one of {', '.join(valid)}"
                )
