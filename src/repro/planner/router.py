"""The one decision point for how a query executes.

Every strategy in this library is bit-identical to the naive evaluators,
so *how* a query runs is a pure performance decision — and it is made
here, once per evaluation.  :func:`route_query` returns a fully resolved
:class:`Route`: the kernel family (``dict`` / ``compact`` / ``sql``,
never ``"auto"``) and why.  Every route runs sequentially.  Sessions,
the engine facade, CRPQ atom scans and GXPath evaluations all *consume*
that object; none of them decides again, so ``explain`` reports exactly
what runs.

The one rule, shared by :func:`route_query` and :func:`route_point`
(DESIGN.md §3.4, "How a query is routed"):

* a forced ``backend`` gives that kernel family — ``sql`` on a data RPQ
  resolves ``dict`` (register valuations have no SQL encoding), and
  GXPath declines ``sql`` and ``dict``, naming the decline in the
  route's reason;
* otherwise the route is ``compact``: the CSR index and the bit-row
  algebra, on every graph size.

``ExecutionPolicy.routing`` is accepted and ignored.  Only a CRPQ's
route carries an estimate — its join plan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.executors import ExecutionPolicy
    from ..api.query import Query
    from ..datagraph.graph import DataGraph
    from .stats import GraphStatistics

__all__ = ["Route", "route_query", "route_point"]


@dataclass(frozen=True)
class Route:
    """One resolved physical decision: how a query executes, and why.

    ``kernel`` is the kernel family that walks the graph (``"dict"``,
    ``"compact"`` or ``"sql"``).  ``estimate`` is the answer size the
    planner priced, when it priced one: only a CRPQ's join plan does
    (``None`` for every other dialect and for point routes).
    """

    kernel: str
    reason: str
    estimate: Optional[float] = None

    @property
    def strategy(self) -> str:
        """The headline shown by ``--explain``: ``sequential`` for the
        dict kernels, else the kernel family (``compact`` / ``sql``)."""
        return "sequential" if self.kernel == "dict" else self.kernel

    def describe(self) -> str:
        """The one-line route header of ``--explain``; the estimate is
        shown only when the planner produced one."""
        estimate = "" if self.estimate is None else f" (est ≈{self.estimate:.0f} pairs)"
        return f"route: {self.strategy}{estimate} — {self.reason}"


def _kernel(policy: Optional["ExecutionPolicy"]) -> str:
    """The forced kernel family, else compact."""
    backend = "auto" if policy is None else policy.backend
    return "compact" if backend == "auto" else backend


def _reason(policy: Optional["ExecutionPolicy"], default: str) -> str:
    """*default*, unless the policy forces the kernel family."""
    if policy is not None and policy.backend != "auto":
        return "policy override"
    return default


def route_point(graph: "DataGraph", policy: Optional["ExecutionPolicy"] = None) -> Route:
    """The route of a point query (``targets`` / ``holds``) or a bare
    engine call: the forced kernel, else compact — no statistics or
    estimate is consulted (an explicit ``backend="sql"`` still runs
    seeded CTEs)."""
    return Route(_kernel(policy), _reason(policy, "point query: the CSR kernels"))


def _gxpath_route(policy: Optional["ExecutionPolicy"]) -> Route:
    """GXPath's one route (module docstring); the reason names a decline."""
    reason = _reason(policy, "gxpath: the bit-row algebra on the CSR index")
    kernel = _kernel(policy)
    if kernel != "compact":
        reason += f"; backend={kernel!r} declined: GXPath runs on the CSR index only"
    return Route("compact", reason)


def route_query(
    query: "Query",
    graph: "DataGraph",
    policy: Optional["ExecutionPolicy"] = None,
    stats: Optional["GraphStatistics"] = None,
    planned=None,
) -> Route:
    """Resolve how *query* executes on *graph*, once.

    *policy* contributes the forced kernel family; *stats* sharpens a
    CRPQ plan's estimates.  Sessions pass their cached
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
    kernel = _kernel(policy)
    if kernel == "sql" and kind is QueryKind.DATA_RPQ:
        kernel = "dict"
        reason += "; register valuations have no SQL encoding, dict mask pass"
    return Route(kernel, reason, estimate)
