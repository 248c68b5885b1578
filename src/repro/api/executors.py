"""The session execution policy.

:class:`ExecutionPolicy` is the declarative knob a :class:`GraphSession`
is constructed with: how the versioned caches behave, and the one
forced-route override.  Every query runs sequentially, and a
``run_many`` batch runs in order on the calling thread
(:meth:`GraphSession.run_many`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import EvaluationError

__all__ = ["ExecutionPolicy", "STORAGE_BACKENDS"]

#: Valid ``ExecutionPolicy.backend`` values: ``"auto"`` leaves the kernel
#: family to the router (compact), the others force it.
STORAGE_BACKENDS = ("auto", "compact", "dict", "sql")

#: Valid ``ExecutionPolicy.routing`` values; the router ignores both
#: (:func:`repro.planner.route_query`).
ROUTING_MODES = ("auto", "manual")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a :class:`GraphSession` executes and caches queries.

    Four fields say how the session's caches behave, ``backend`` forces
    the kernel family the router would otherwise resolve, and
    ``routing`` is accepted and ignored::

        ExecutionPolicy()                           # cached, routed
        ExecutionPolicy(backend="sql")              # force the kernel family

    Attributes
    ----------
    cache_results:
        Whether the session memoises answers keyed on
        ``(graph.version, query.key, null_semantics)``; a ``bool``.
    result_cache_size:
        LRU bound on the number of cached answer sets; a positive ``int``.
    point_cache_size:
        LRU bound on the session's single-source (point-workload) cache
        of :meth:`GraphSession.targets` answers; a positive ``int``.
    delta_repair:
        Whether the session re-answers a cached full relation from its
        previous entry across journaled deltas
        (:func:`repro.deltas.repair.repair_full_relation`) instead of
        recomputing from scratch after every mutation.  Answers are
        identical either way; disable to force the full-recompute
        executable spec.  A ``bool``.
    routing:
        ``"auto"`` (the default) or ``"manual"``.  Either way the router
        (:func:`repro.planner.route_query`) resolves the ``compact``
        kernels unless ``backend`` forces a family: the value is
        accepted and ignored.  Kept for callers that pass it; due for
        retirement.
    backend:
        Forced kernel family: ``"dict"`` keeps the hash-table
        :class:`~repro.datagraph.index.LabelIndex` kernels,
        ``"compact"`` the int-id CSR kernels over the graph's
        :class:`~repro.datagraph.compact.CompactLabelIndex`, ``"sql"``
        the compiled relational backend of :mod:`repro.sqlbackend`
        (recursive CTEs over the paper's ``D_G`` encoding in an embedded
        sqlite/duckdb database).  ``"auto"`` (the default) is
        ``compact``.  Answers are bit-identical in every mode.
    """

    cache_results: bool = True
    result_cache_size: int = 1024
    point_cache_size: int = 1024
    delta_repair: bool = True
    routing: str = "auto"
    backend: str = "auto"

    def __post_init__(self) -> None:
        for name in ("cache_results", "delta_repair"):
            flag = getattr(self, name)
            if type(flag) is not bool:
                raise EvaluationError(f"{name} must be a bool, got {flag!r}")
        for name in ("result_cache_size", "point_cache_size"):
            size = getattr(self, name)
            if type(size) is not int or size < 1:
                raise EvaluationError(f"{name} must be a positive int, got {size!r}")
        for name, value, valid in (
            ("routing mode", self.routing, ROUTING_MODES),
            ("storage backend", self.backend, STORAGE_BACKENDS),
        ):
            if value not in valid:
                raise EvaluationError(
                    f"unknown {name} {value!r}; expected one of {', '.join(valid)}"
                )
