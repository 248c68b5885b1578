"""The one decision point for how a query executes.

Every strategy in this library is bit-identical to the naive evaluators,
so *how* a query runs is a pure performance decision — and it is made
here, once per evaluation.  :func:`route_query` returns a fully resolved
:class:`Route`: the kernel family (``dict`` / ``compact`` / ``sql``,
never ``"auto"``), the driver (``sequential`` or the forced
``blocks``) and the worker budget.  Sessions, the engine facade, CRPQ
atom scans and GXPath evaluations all *consume* that object; none of
them decides again, so ``explain`` reports exactly what runs.

The one rule, shared by :func:`route_query` and :func:`route_point`
(DESIGN.md §3.4, "How a query is routed"):

* a forced ``ExecutionPolicy.intra_query`` gives the ``blocks`` driver
  (always over the dict index its source blocks are cut from);
* a forced ``backend`` gives that kernel family — ``sql`` on a data RPQ
  resolves ``dict`` (register valuations have no SQL encoding), and
  GXPath declines ``sql`` and the ``blocks`` driver, naming the
  decline in the route's reason;
* otherwise the route is ``compact``: the CSR index and the bit-row
  algebra, sequentially, on every graph size.

``ExecutionPolicy.routing`` is accepted and ignored.  Only a CRPQ's
route carries an estimate — its join plan's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

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
    ``"compact"`` or ``"sql"``); ``driver`` is ``"sequential"`` or the
    forced ``"blocks"`` driver of :mod:`repro.engine.partition` (always
    over the dict index its source blocks are cut from); ``workers`` is
    the driver's worker budget, 1 for sequential routes.  ``estimate`` is the answer
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
        ``compact`` / ``sql`` / ``blocks``."""
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


def _kernel(policy: Optional["ExecutionPolicy"]) -> str:
    """The forced kernel family, else compact."""
    backend = "auto" if policy is None else policy.backend
    return "compact" if backend == "auto" else backend


def _reason(policy: Optional["ExecutionPolicy"], default: str) -> str:
    """*default*, unless the policy forces part of the route."""
    if policy is not None and (policy.backend != "auto" or policy.intra_query != "off"):
        return "policy override"
    return default


def route_point(graph: "DataGraph", policy: Optional["ExecutionPolicy"] = None) -> Route:
    """The route of a point query (``targets`` / ``holds``) or a bare
    engine call: the forced kernel, else compact — no statistics,
    estimate or driver is consulted (an explicit ``backend="sql"`` still
    runs seeded CTEs)."""
    return Route(_kernel(policy), "sequential", 1, _reason(policy, "point query: the CSR kernels"))


def _gxpath_route(policy: Optional["ExecutionPolicy"]) -> Route:
    """GXPath's one route (module docstring); the reason names a decline."""
    reason = _reason(policy, "gxpath: the bit-row algebra on the CSR index")
    kernel = _kernel(policy)
    declined = []
    if kernel == "sql":
        declined.append("backend='sql'")
        kernel = "compact"
    if policy is not None and policy.intra_query != "off":
        declined.append(f"intra_query={policy.intra_query!r}")
    if declined:
        reason += f"; {' and '.join(declined)} declined: GXPath runs on the bit-row algebra only"
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
    reads an estimate, and ``explain`` prints only what the planner
    priced.
    """
    from ..api.query import Query, QueryKind
    from .planner import plan_crpq

    query = Query.of(query)
    kind = query.kind
    if kind in (QueryKind.GXPATH_NODE, QueryKind.GXPATH_PATH):
        return _gxpath_route(policy)
    estimate = None
    if kind is QueryKind.CRPQ:
        if planned is None:
            planned = plan_crpq(query.plan, graph.label_index(), stats)
        estimate = max(planned.estimates) if planned.estimates else 0.0
    reason = _reason(policy, f"{kind.value}: the CSR kernels")
    if policy is not None and policy.intra_query != "off":
        # Source blocks are cut from the dict index.
        return Route("dict", policy.intra_query, _budget(policy), reason, estimate)
    kernel = _kernel(policy)
    if kernel == "sql" and kind is QueryKind.DATA_RPQ:
        kernel = "dict"
        reason += "; register valuations have no SQL encoding, dict mask pass"
    return Route(kernel, "sequential", 1, reason, estimate)
