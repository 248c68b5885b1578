"""Execution of logical CRPQ plans against a graph and an engine.

Relations flow between operators as ``(columns, rows)`` pairs in raw
node-id space — :class:`~repro.datagraph.node.Node` objects are only
materialised once, by the final projection.  Scans run with the plan's
one resolved :class:`~repro.planner.router.Route`, so every atom runs on
the kernel family and driver the router chose for the whole query: a
sequential compact route hands back the kernel's bit rows
(:meth:`repro.engine.engine.EvaluationEngine.atom_bits`) and the scan
reads its live columns straight off them — both endpoints decode to id
pairs, one endpoint is the OR of the row masks or the row keys, none is
an emptiness test — while every other route decodes
:meth:`~repro.engine.engine.EvaluationEngine.evaluate_atom_ids` pairs.
A plan that is one scan emitting exactly the head never enters id space:
its bit rows decode once to ``Node`` pairs, as ``evaluate_rpq`` does.

Hash joins build their table on the smaller input and probe with the
larger one (a right side that adds no column is a filter); seeded scans
receive the distinct surviving values of their seed variables from the
join's left side, so each engine call explores only the part of the
product that can still contribute (semijoin reduction).  An empty
intermediate relation short-circuits the rest of the plan.

Execution is **adaptive** by default (the v2 planner): the left-deep
plan is unrolled into its join sequence, the actual cardinality of every
intermediate relation is compared against the planner's estimate, and
when an estimate is off by :data:`ADAPTIVE_REPLAN_RATIO` or more the
remaining joins are re-ordered around the observed sizes
(:func:`repro.planner.planner.reorder_remaining`).  The re-plan only
ever changes join *order* — scans, semijoin seeding, self-loop filters
and the projection are rebuilt with the planner's own operator
constructor — so answers stay bit-identical to the static plan.  A
:class:`PlanTrace` passed via ``trace=`` records estimate-vs-observed
per join for ``--explain``.

One further v2 hook rides on the executor: ``relation_cache``, a
callable answering an atom scan (the atom plus its live seed bindings)
from a previously materialised full relation (the session's versioned
result cache) as bit rows or id pairs, or declining with ``None``; scans
it answers do not re-walk the graph.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..engine.bitrelation import BitRelation
from ..engine.data import RowMemo
from ..engine.engine import EvaluationEngine, default_engine
from ..exceptions import EvaluationError
from ..query.crpq import Atom
from ..query.data_rpq import DataRPQ
from .logical import AtomScan, Filter, HashJoin, PlanOp, Project, SeededScan
from .planner import CrpqPlan, _scan, reorder_remaining

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .router import Route

__all__ = ["execute_plan", "PlanTrace", "ADAPTIVE_REPLAN_RATIO"]

#: The rows of a relation: id tuples, or — for a two-column scan of a
#: compact route that nothing has had to decode yet — the kernel's bit
#: rows over ``(source, target)``.  Never mutated in place: operators
#: build fresh sets, so scans hand the engine's frozenset through.
Rows = Union[AbstractSet[Tuple[NodeId, ...]], BitRelation]

#: An intermediate relation: ordered column names and their rows.
Relation = Tuple[Tuple[str, ...], Rows]

#: A cached-relation lookup: ``(atom, sources, targets)`` -> the atom's
#: relation restricted to the bound endpoint sets (``None`` = unbound),
#: or ``None`` when the cache has nothing for it (or nothing cheaper
#: than the seeded scan).
RelationCache = Callable[
    [Atom, Optional[Set[NodeId]], Optional[Set[NodeId]]], Optional[Rows]
]

#: Re-plan the remaining joins when an intermediate cardinality differs
#: from its estimate by at least this factor (in either direction).
ADAPTIVE_REPLAN_RATIO = 8.0


class PlanTrace:
    """Estimate-vs-observed record of one plan execution (``--explain``).

    Filled in by :func:`execute_plan` when passed via ``trace=``; one
    entry per executed scan/join plus counters for the adaptive
    machinery.  Atom indexes are positions in the plan's *eliminated*
    atoms; ``atom_order`` is the order actually executed, which differs
    from the plan's whenever a mid-join re-plan fired.
    """

    __slots__ = ("steps", "replans", "cache_hits", "atom_order")

    def __init__(self) -> None:
        #: ``(atom index, estimated rows, observed rows, replanned after)``
        self.steps: List[Tuple[int, float, int, bool]] = []
        self.replans = 0
        self.cache_hits = 0
        self.atom_order: Tuple[int, ...] = ()

    def describe(self) -> str:
        """Human-readable estimate-vs-observed lines for ``--explain``."""
        lines = []
        for position, (index, estimate, observed, replanned) in enumerate(self.steps):
            kind = "scan" if position == 0 else "join"
            note = "  → re-planned remaining joins" if replanned else ""
            lines.append(
                f"{kind} atom #{index}: estimated ≈{estimate:.0f} rows, "
                f"observed {observed}{note}"
            )
        lines.append(
            f"adaptive: {self.replans} re-plan(s), {self.cache_hits} cached relation(s) reused"
        )
        return "\n".join(lines)


class _Context:
    """Everything one plan execution needs, bundled for the recursion."""

    __slots__ = ("graph", "engine", "null_semantics", "route", "relation_cache", "trace", "memo")

    def __init__(
        self,
        graph: DataGraph,
        engine: EvaluationEngine,
        null_semantics: bool,
        route: "Route",
        relation_cache: Optional[RelationCache] = None,
        trace: Optional[PlanTrace] = None,
        memo: Optional[RowMemo] = None,
    ):
        self.graph = graph
        self.engine = engine
        self.null_semantics = null_semantics
        self.route = route
        self.relation_cache = relation_cache
        self.trace = trace
        self.memo = memo

    def fetch(
        self,
        atom: Atom,
        sources: Optional[Set[NodeId]],
        targets: Optional[Set[NodeId]],
    ) -> Rows:
        """One atom's (seeded) relation over ``(source, target)``: from the
        relation cache, as the route's bit rows, or as id pairs."""
        lookup = self.relation_cache
        if lookup is not None:
            cached = lookup(atom, sources, targets)
            if cached is not None:
                if self.trace is not None:
                    self.trace.cache_hits += 1
                return cached
        null_semantics = self.null_semantics if isinstance(atom.query, DataRPQ) else False
        bits = self.engine.atom_bits(
            self.graph, atom.query, self.route, sources, targets, null_semantics, self.memo
        )
        if bits is not None:
            return bits
        return self.engine.evaluate_atom_ids(
            self.graph,
            atom.query,
            sources=sources,
            targets=targets,
            null_semantics=null_semantics,
            route=self.route,
        )

    def scan(
        self,
        node: "AtomScan | SeededScan",
        sources: Optional[Set[NodeId]],
        targets: Optional[Set[NodeId]],
    ) -> Relation:
        emits = node.emits
        return emits, _live_rows(self.fetch(node.atom, sources, targets), node.atom, emits)


def _live_rows(fetched: Rows, atom: Atom, emits: Tuple[str, ...]) -> Rows:
    """The rows of a fetched atom relation over its live columns."""
    if len(emits) == 2:
        return fetched
    if not emits:
        return {()} if fetched else set()
    # One endpoint (never a self-loop atom: its filter reads both).
    return set(zip(_column_values(((atom.source, atom.target), fetched), emits[0])))


def _tuples(rows: Rows) -> AbstractSet[Tuple[NodeId, ...]]:
    return rows.id_pairs() if isinstance(rows, BitRelation) else rows


def _column_values(relation: Relation, column: str) -> Set[NodeId]:
    """The distinct values of one column (off bit rows: the OR of the
    row masks for the source column, the row keys for the target)."""
    columns, rows = relation
    position = columns.index(column)
    if isinstance(rows, BitRelation):
        return set(rows.target_ids() if position else rows.source_ids())
    return {row[position] for row in rows}


def _evaluate(
    node: PlanOp, context: _Context, bindings: Optional[Dict[str, Set[NodeId]]] = None
) -> Relation:
    if isinstance(node, AtomScan):
        return context.scan(node, None, None)
    if isinstance(node, SeededScan):
        bindings = bindings or {}
        sources = bindings.get(node.seed_sources) if node.seed_sources is not None else None
        targets = bindings.get(node.seed_targets) if node.seed_targets is not None else None
        return context.scan(node, sources, targets)
    if isinstance(node, Filter):
        columns, rows = _evaluate(node.child, context, bindings)
        rows = _tuples(rows)
        left = columns.index(node.left)
        right = columns.index(node.right)
        keep = tuple(i for i in range(len(columns)) if i != right)
        return (
            tuple(columns[i] for i in keep),
            {tuple(row[i] for i in keep) for row in rows if row[left] == row[right]},
        )
    if isinstance(node, HashJoin):
        return _hash_join(node, context)
    if isinstance(node, Project):
        columns, rows = _evaluate(node.child, context)
        return _project(node.head, (columns, rows))
    raise EvaluationError(f"unknown plan operator {node!r}")  # pragma: no cover - defensive


def _project(head: Tuple[str, ...], relation: Relation) -> Relation:
    columns, rows = relation
    if not rows:
        return head, set()
    if not head:
        return (), {()}
    if head == columns:
        return relation
    positions = tuple(columns.index(variable) for variable in head)
    return head, {tuple(row[i] for i in positions) for row in _tuples(rows)}


def _seed_bindings(
    right: PlanOp, left_relation: Relation
) -> Dict[str, Set[NodeId]]:
    """Semijoin pushdown: the surviving bindings of the right-hand
    scan's seed variables (possibly under a Filter)."""
    scan = right.child if isinstance(right, Filter) else right
    bindings: Dict[str, Set[NodeId]] = {}
    if isinstance(scan, SeededScan):
        for variable in {scan.seed_sources, scan.seed_targets} - {None}:
            bindings[variable] = _column_values(left_relation, variable)
    return bindings


def _join_rows(
    left_relation: Relation,
    right_relation: Relation,
    keys: Tuple[str, ...],
) -> Relation:
    """Join two materialised relations on *keys* (cartesian when empty).

    A side all of whose columns are join keys binds nothing new: the join
    is a filter on the other side, which keeps its columns — and, filtered
    on one endpoint, its bit rows.  Everything else decodes to tuples and
    yields the left columns followed by the right-only ones.
    """
    left_columns, left_rows = left_relation
    right_columns, right_rows = right_relation
    if keys and len(keys) == len(right_columns):
        return _filtered(left_relation, right_relation, keys)
    if keys and len(keys) == len(left_columns):
        return _filtered(right_relation, left_relation, keys)
    out_columns = left_columns + tuple(
        column for column in right_columns if column not in left_columns
    )
    if not left_rows or not right_rows:
        return out_columns, set()
    left_rows, right_rows = _tuples(left_rows), _tuples(right_rows)
    right_only = tuple(
        columns_index
        for columns_index, column in enumerate(right_columns)
        if column not in left_columns
    )
    if not keys:  # cartesian component
        rows = {
            left + tuple(right[i] for i in right_only)
            for left in left_rows
            for right in right_rows
        }
        return out_columns, rows

    left_key = tuple(left_columns.index(k) for k in keys)
    right_key = tuple(right_columns.index(k) for k in keys)

    # Build on the smaller side, probe with the larger one.
    rows: Set[Tuple[NodeId, ...]] = set()
    if len(left_rows) <= len(right_rows):
        table: Dict[Tuple[NodeId, ...], List[Tuple[NodeId, ...]]] = {}
        for row in left_rows:
            table.setdefault(tuple(row[i] for i in left_key), []).append(row)
        for right in right_rows:
            for left in table.get(tuple(right[i] for i in right_key), ()):
                rows.add(left + tuple(right[i] for i in right_only))
    else:
        table = {}
        for row in right_rows:
            table.setdefault(tuple(row[i] for i in right_key), []).append(row)
        for left in left_rows:
            for right in table.get(tuple(left[i] for i in left_key), ()):
                rows.add(left + tuple(right[i] for i in right_only))
    return out_columns, rows


def _filtered(kept: Relation, by: Relation, keys: Tuple[str, ...]) -> Relation:
    """The rows of *kept* whose *keys* occur in *by* (whose columns are
    exactly those keys, in any order)."""
    columns, rows = kept
    if not rows or not by[1]:
        return columns, set()
    if len(keys) == 1:
        values = _column_values(by, keys[0])
        at = columns.index(keys[0])
        if isinstance(rows, BitRelation):
            return columns, (
                rows.restrict(targets=values) if at else rows.restrict(sources=values)
            )
        return columns, {row for row in rows if row[at] in values}
    by_columns, by_rows = by
    order = tuple(by_columns.index(key) for key in keys)
    wanted = {tuple(row[i] for i in order) for row in _tuples(by_rows)}
    at = tuple(columns.index(key) for key in keys)
    return columns, {row for row in _tuples(rows) if tuple(row[i] for i in at) in wanted}


def _hash_join(node: HashJoin, context: _Context) -> Relation:
    left_relation = _evaluate(node.left, context)
    if not left_relation[1]:
        return node.columns, set()
    bindings = _seed_bindings(node.right, left_relation)
    right_relation = _evaluate(node.right, context, bindings)
    return _join_rows(left_relation, right_relation, node.keys)


# ----------------------------------------------------------------------
# Adaptive execution
# ----------------------------------------------------------------------

def _misestimate(expected: float, observed: int) -> float:
    """How far off an estimate was, as a ratio ≥ 1 in either direction."""
    expected = max(expected, 1.0)
    actual = max(float(observed), 1.0)
    return max(expected / actual, actual / expected)


def _execute_adaptive(plan: CrpqPlan, context: _Context) -> Relation:
    """Run the plan's join sequence, observing and re-planning.

    The left-deep tree is unrolled into its ``atom_order``; after every
    scan/join the observed cardinality replaces the running estimate
    (feedback), and a misestimate of :data:`ADAPTIVE_REPLAN_RATIO` or
    more re-orders the not-yet-executed atoms around the observation.
    Operators are rebuilt with the planner's :func:`_scan` constructor,
    so seeding, self-loop filters and join keys are exactly what
    :func:`plan_crpq` would have emitted for the adapted order.
    """
    atoms, estimates, emits = plan.eliminated.atoms, plan.estimates, plan.emits
    trace = context.trace
    num_nodes = max(1, context.graph.num_nodes)

    order = list(plan.atom_order)
    first, remaining = order[0], order[1:]
    bound: Set[str] = set()
    anchor = _scan(atoms[first], first, estimates[first], bound, emits[first])
    relation = _evaluate(anchor, context)
    bound.update({atoms[first].source, atoms[first].target})
    running = float(len(relation[1]))
    executed = [first]

    if trace is not None:
        trace.steps.append((first, estimates[first], len(relation[1]), False))
    if (
        remaining
        and len(remaining) >= 2
        and _misestimate(estimates[first], len(relation[1])) >= ADAPTIVE_REPLAN_RATIO
    ):
        remaining = reorder_remaining(
            atoms, estimates, remaining, bound, running, num_nodes
        )
        if trace is not None:
            trace.replans += 1
            trace.steps[-1] = trace.steps[-1][:3] + (True,)

    while remaining:
        if not relation[1]:
            # Empty intermediate: the conjunction is empty.
            executed.extend(remaining)
            break
        index = remaining.pop(0)
        atom = atoms[index]
        scan = _scan(atom, index, estimates[index], bound, emits[index])
        keys = tuple(
            variable
            for variable in dict.fromkeys((atom.source, atom.target))
            if variable in bound
        )
        bindings = _seed_bindings(scan, relation)
        right_relation = _evaluate(scan, context, bindings)
        expected = running * estimates[index]
        for _ in keys:
            expected /= num_nodes
        relation = _join_rows(relation, right_relation, keys)
        observed = len(relation[1])
        bound.update({atom.source, atom.target})
        executed.append(index)
        running = float(observed)

        replanned = False
        if (
            len(remaining) >= 2
            and _misestimate(expected, observed) >= ADAPTIVE_REPLAN_RATIO
        ):
            remaining = reorder_remaining(
                atoms, estimates, remaining, bound, running, num_nodes
            )
            replanned = True
            if trace is not None:
                trace.replans += 1
        if trace is not None:
            trace.steps.append((index, expected, observed, replanned))

    if trace is not None:
        trace.atom_order = tuple(executed)
    return _project(plan.query.head, relation)


def execute_plan(
    plan: CrpqPlan,
    graph: DataGraph,
    engine: Optional[EvaluationEngine] = None,
    null_semantics: bool = False,
    route: Optional["Route"] = None,
    *,
    adaptive: bool = True,
    relation_cache: Optional[RelationCache] = None,
    trace: Optional[PlanTrace] = None,
    decode: bool = True,
    memo: Optional[RowMemo] = None,
) -> Union[FrozenSet[Tuple[Node, ...]], BitRelation]:
    """Evaluate a planned CRPQ on *graph*, returning head-variable tuples.

    The answer shape matches the historical evaluators: a frozenset of
    node tuples, ``{()}`` / ``frozenset()`` for Boolean queries.  With
    *decode* false, a binary answer that ends on bit rows over the
    graph's current compact snapshot is returned as that
    :class:`~repro.engine.bitrelation.BitRelation` instead — a caching
    session decodes it, or patches its previous answer by the
    difference — and every other answer is decoded as usual.  *route*
    is the query's resolved :class:`~repro.planner.router.Route`
    (sessions pass theirs; a bare call asks
    :func:`~repro.planner.router.route_query`): every atom scan runs on
    its kernel family and driver.

    A ``sql`` route lowers the **whole plan** — scans, semijoin
    pushdown, joins, filters and the projection — into one SQL statement
    over the graph's ``D_G`` database (:mod:`repro.sqlbackend`), instead
    of calling the engine per atom.

    Keyword-only v2 hooks: *adaptive* (on by default; a one-atom plan has
    nothing to adapt) observes intermediate cardinalities and re-plans on
    misestimates;
    *relation_cache* answers scans from previously materialised full
    relations; *memo* (a session's :class:`~repro.engine.data.RowMemo`)
    carries the algebra's sub-expression rows of unseeded scans across
    runs and graph versions; *trace* collects the estimate-vs-observed
    record for ``--explain``.
    """
    if engine is None:
        engine = default_engine()
    if route is None:
        from .router import route_query

        route = route_query(plan.query, graph, planned=plan)
    if route.kernel == "sql":
        from ..sqlbackend import backend as sql_backend

        rows = sql_backend.evaluate_plan_rows(plan.root, graph, engine, null_semantics)
        return _node_rows(rows, graph, route, decode)
    context = _Context(graph, engine, null_semantics, route, relation_cache, trace, memo)
    if len(plan.atom_order) == 1:
        rows = _execute_single(plan, context)
    elif adaptive:
        _, rows = _execute_adaptive(plan, context)
    else:
        _, rows = _evaluate(plan.root, context)
        if trace is not None:
            trace.atom_order = plan.atom_order
    return _node_rows(rows, graph, route, decode)


def _execute_single(plan: CrpqPlan, context: _Context) -> Rows:
    """A plan that eliminated to one atom: there is nothing to join (and
    a scan that emits exactly the head keeps its bit rows, to be decoded
    once, as ``evaluate_rpq`` would)."""
    _, rows = _evaluate(plan.root.child, context)
    trace = context.trace
    if trace is not None:
        trace.steps.append((0, plan.estimates[0], len(rows), False))
        trace.atom_order = plan.atom_order
    _, rows = _project(plan.root.head, (plan.root.child.columns, rows))
    return rows


def _node_rows(
    rows: Rows, graph: DataGraph, route: "Route", decode: bool = True
) -> Union[FrozenSet[Tuple[Node, ...]], BitRelation]:
    """The one place id rows become ``Node`` rows.

    Bit rows decode straight to ``Node`` pairs against the snapshot they
    were computed on (or, without *decode*, are handed back as they are).
    For tuples on a compact route the lookup is that snapshot's
    ``node_objects`` column behind a C-level getter, so a row costs no
    Python frame.
    """
    compact = graph.compact_index() if route.kernel == "compact" else None
    if isinstance(rows, BitRelation):
        if compact is not None and compact.nodes is rows.nodes:
            return rows.node_pairs(compact.node_objects) if decode else rows
        rows = rows.id_pairs()
    if compact is not None:
        node_of = dict(zip(compact.nodes, compact.node_objects)).__getitem__
    else:
        node_of = graph.node
    return frozenset(tuple(map(node_of, row)) for row in rows)
