"""The one decision point for how a query executes.

Every strategy in this library is bit-identical to the naive evaluators,
so *how* a query runs is a pure cost decision — and it is made here,
once per evaluation.  :func:`route_query` returns a fully resolved
:class:`Route`: the kernel family (``dict`` / ``compact`` / ``sql``,
never ``"auto"``), the driver (``sequential`` / ``blocks`` /
``sharded``) and the worker budget.  Sessions, the engine facade, CRPQ
atom scans and GXPath evaluations all *consume* that object; none of
them asks the cost model again, so ``explain`` reports exactly what
runs.

GXPath has one route, decided before anything is estimated: the bit-row
algebra, sequential, on the ``compact`` or ``dict`` index (a forced
backend, else the graph-size rule below); a forced ``sql`` backend or
intra-query driver is declined and the route's reason says so.  For the
other dialects the decision table, in order (DESIGN.md, "How a query is
routed"):

* a forced ``ExecutionPolicy.intra_query`` driver, then a forced
  ``backend`` (or ``routing="manual"``, which switches the cost model
  off and keeps only the graph-size kernel rule);
* the **SQL** backend for a plain RPQ whose factored plan has a pivot
  selective enough to win (:func:`repro.sqlbackend.cost.rpq_pays` — the
  one shape where SQL still beats the compact kernels; CRPQs take
  ``sql`` only when the policy forces it);
* the **compact** CSR kernels when the graph clears their size floor
  (:func:`repro.engine.compact.resolve_backend`), else the **dict**
  kernels.

Only a forced ``intra_query`` resolves a partitioned driver: ``auto``
routing is always ``sequential`` (where the retired automatic rule
picked ``blocks``, the sequential compact algebra answered faster:
DESIGN.md §3.4).

:func:`route_point` resolves only the O(1) part (kernel by graph size)
for point queries and bare engine calls, which must not pay for
statistics or estimates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..engine.compact import COMPACT_AUTO_MIN_NODES, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.executors import ExecutionPolicy
    from ..api.query import Query
    from ..datagraph.graph import DataGraph
    from .stats import GraphStatistics

__all__ = ["Route", "route_query", "route_point"]

#: ``Route.strategy`` of a sequential route, by kernel family.
_SEQUENTIAL_STRATEGY = {"dict": "sequential", "compact": "compact", "sql": "sql"}


@dataclass(frozen=True)
class Route:
    """One resolved physical decision: how a query executes, and why.

    ``kernel`` is the kernel family that walks the graph (``"dict"``,
    ``"compact"`` or ``"sql"``); ``driver`` is ``"sequential"`` or one of
    the partitioned drivers of :mod:`repro.engine.partition`
    (``"blocks"`` / ``"sharded"``, always over the dict index their
    shard views are built on); ``workers`` is the driver's worker (and
    shard) budget, 1 for sequential routes.  ``estimate`` is the answer
    size the planner priced, when it priced one: only a CRPQ's join plan
    does (``None`` for every other dialect and for point routes).
    """

    kernel: str
    driver: str
    workers: int
    reason: str
    estimate: Optional[float] = None

    @property
    def strategy(self) -> str:
        """The headline shown by ``--explain``: ``sequential`` /
        ``compact`` / ``sql`` / ``blocks`` / ``sharded``."""
        if self.driver != "sequential":
            return self.driver
        return _SEQUENTIAL_STRATEGY[self.kernel]

    def describe(self) -> str:
        """The one-line route header of ``--explain``; the estimate is
        shown only when the planner produced one."""
        estimate = "" if self.estimate is None else f" (est ≈{self.estimate:.0f} pairs)"
        return f"route: {self.strategy}{estimate} — {self.reason}"


def _budget(policy: Optional["ExecutionPolicy"]) -> int:
    """The one worker budget: ``max_workers``, else the CPU count capped at 8."""
    if policy is not None and policy.max_workers:
        return policy.max_workers
    return min(os.cpu_count() or 1, 8)


def _kernel(backend: str, num_nodes: int) -> str:
    """The kernel family a storage *backend* value names on this graph
    (``"auto"`` resolves by graph size)."""
    if backend == "sql":
        return "sql"
    return "compact" if resolve_backend(backend, num_nodes) else "dict"


def route_point(graph: "DataGraph", policy: Optional["ExecutionPolicy"] = None) -> Route:
    """The O(1) part of a route: kernel by forced backend or graph size.

    Point queries (``targets`` / ``holds``) and bare engine calls resolve
    through here — a single-source frontier is exactly the shape the
    dict/compact kernels win, so no statistics, estimate or driver is
    consulted (an explicit ``backend="sql"`` still runs seeded CTEs).
    """
    backend = policy.backend if policy is not None else "auto"
    return Route(
        kernel=_kernel(backend, graph.num_nodes),
        driver="sequential",
        workers=1,
        reason="point query: kernel by graph size"
        if backend == "auto"
        else "policy override",
    )


def _gxpath_route(num_nodes: int, policy: Optional["ExecutionPolicy"]) -> Route:
    """GXPath's one route (module docstring); the reason names a decline."""
    backend = "auto" if policy is None else policy.backend
    reason, declined = "gxpath: the bit-row algebra, index by graph size", []
    if policy is not None:
        if backend == "sql":
            declined.append(f"backend={backend!r}")
        if policy.intra_query != "off":
            declined.append(f"intra_query={policy.intra_query!r}")
        if policy.routing == "manual" or backend != "auto" or declined:
            reason = "manual routing policy" if policy.routing == "manual" else "policy override"
    if declined:
        reason += f"; {' and '.join(declined)} declined: GXPath runs on the bit-row algebra only"
    kernel = _kernel("auto" if backend == "sql" else backend, num_nodes)
    return Route(kernel, "sequential", 1, reason)


def route_query(
    query: "Query",
    graph: "DataGraph",
    policy: Optional["ExecutionPolicy"] = None,
    stats: Optional["GraphStatistics"] = None,
    planned=None,
) -> Route:
    """Resolve how *query* executes on *graph*, once.

    *policy* contributes the forced overrides and the worker budget;
    *stats* sharpens a CRPQ plan's estimates.  Sessions pass their cached
    :class:`~repro.planner.planner.CrpqPlan` via *planned* so routing a
    CRPQ never re-plans it.  No other dialect is estimated: no decision
    below reads an estimate, and ``explain`` prints only what the
    planner priced.
    """
    from ..api.query import Query, QueryKind
    from ..sqlbackend.cost import rpq_pays
    from .planner import plan_crpq

    query = Query.of(query)
    num_nodes = graph.num_nodes
    kind = query.kind
    if kind in (QueryKind.GXPATH_NODE, QueryKind.GXPATH_PATH):
        return _gxpath_route(num_nodes, policy)
    index = graph.label_index()
    estimate = None
    if kind is QueryKind.CRPQ:
        if planned is None:
            planned = plan_crpq(query.plan, index, stats)
        estimate = max(planned.estimates) if planned.estimates else 0.0

    def sequential(kernel: str, reason: str) -> Route:
        if kernel == "sql" and kind is QueryKind.DATA_RPQ:
            kernel = "dict"
            reason += "; register valuations have no SQL encoding, dict mask pass"
        return Route(kernel, "sequential", 1, reason, estimate)

    # ------------------------------------------------------------------
    # Forced overrides: a driver, then a kernel; manual switches the cost
    # model off and keeps only the graph-size kernel rule.
    if policy is not None:
        manual = policy.routing == "manual"
        override = "manual routing policy" if manual else "policy override"
        if policy.intra_query != "off":
            # Shard views and source blocks are cut from the dict index.
            return Route("dict", policy.intra_query, _budget(policy), override, estimate)
        if manual or policy.backend != "auto":
            return sequential(_kernel(policy.backend, num_nodes), override)

    # ------------------------------------------------------------------
    # Cost decisions per dialect.
    if kind is QueryKind.RPQ and rpq_pays(query.plan.expression, index):
        return sequential(
            "sql",
            "a selective pivot in front of a closure; the factored plan "
            "grows the closure from the pivot's endpoints inside the embedded engine",
        )
    if resolve_backend("auto", num_nodes):
        return sequential(
            "compact",
            f"{kind.value} within sequential reach; "
            f"≥{COMPACT_AUTO_MIN_NODES} nodes favours the CSR kernels",
        )
    return sequential(
        "dict",
        f"{kind.value} within sequential reach; "
        "small graph favours the dict kernels' constants",
    )
