"""Semantics of GXPath-core with data comparisons (Figure 1 of the paper).

Given a data graph ``G = <V, E>``:

* the semantics of a path expression α is a binary relation
  ``[[α]]_G ⊆ V × V``;
* the semantics of a node expression φ is a set ``[[φ]]_G ⊆ V``.

All cases of Figure 1 are implemented directly by set computations; the
transitive closure ``a*`` — the hot path on reachability-heavy
expressions — runs through the shared product kernels of
:mod:`repro.engine.product` over a
:class:`~repro.engine.spaces.ClosureSpace` (one mask-propagation pass
for the whole closure instead of one BFS per start node), so it can also
take the partitioned drivers: the resolved
:class:`~repro.planner.router.Route` the evaluation entry points receive
names the kernel family and the driver every axis-star closure of the
expression runs on.  The SQL-null mode (used when GXPath queries are
posed over exchanged graphs with null nodes) makes the ``α=`` / ``α≠``
comparisons false when either endpoint carries the null value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..datagraph.values import values_differ, values_equal
from ..engine import partition as partition_kernels
from ..engine import product as product_kernels
from ..engine.spaces import ClosureSpace
from ..exceptions import EvaluationError
from .ast import (
    Axis,
    AxisStar,
    NodeAnd,
    NodeExists,
    NodeExpression,
    NodeNot,
    NodeOr,
    NodeTest,
    PathConcat,
    PathEpsilon,
    PathEqual,
    PathExpression,
    PathNotEqual,
    PathUnion,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.router import Route

__all__ = ["evaluate_path", "evaluate_node", "node_holds", "path_holds"]

IdPair = Tuple[NodeId, NodeId]


class _Evaluator:
    """One evaluation pass over a fixed graph, with memoisation per sub-expression.

    Axis relations and per-label transitive closures are read off the
    graph's :meth:`~repro.datagraph.graph.DataGraph.label_index`, so a
    pass never materialises :class:`~repro.datagraph.node.Node` objects
    or scans edges of irrelevant labels.
    """

    def __init__(
        self, graph: DataGraph, null_semantics: bool, route: Optional["Route"] = None
    ):
        if route is None:
            # A bare call: the router's O(1) part — kernel family by
            # graph size, sequential driver.
            from ..planner.router import route_point

            route = route_point(graph)
        self.graph = graph
        self.index = graph.label_index()
        self.null_semantics = null_semantics
        self.route = route
        self._path_cache: Dict[int, FrozenSet[IdPair]] = {}
        self._node_cache: Dict[int, FrozenSet[NodeId]] = {}

    # ------------------------------------------------------------------
    def path(self, expression: PathExpression) -> FrozenSet[IdPair]:
        key = id(expression)
        if key in self._path_cache:
            return self._path_cache[key]
        result = self._path(expression)
        self._path_cache[key] = result
        return result

    def _path(self, expression: PathExpression) -> FrozenSet[IdPair]:
        graph = self.graph
        if isinstance(expression, PathEpsilon):
            return frozenset((node_id, node_id) for node_id in graph.node_ids)
        if isinstance(expression, Axis):
            pairs = self.index.pairs(expression.label)
            if expression.inverse:
                return frozenset((target, source) for source, target in pairs)
            return frozenset(pairs)
        if isinstance(expression, AxisStar):
            return self._axis_star(expression.label, expression.inverse)
        if isinstance(expression, PathConcat):
            return self._compose(self.path(expression.left), self.path(expression.right))
        if isinstance(expression, PathUnion):
            return self.path(expression.left) | self.path(expression.right)
        if isinstance(expression, (PathEqual, PathNotEqual)):
            inner = self.path(expression.inner)
            want_equal = isinstance(expression, PathEqual)
            values = self.index.values
            kept = set()
            for source, target in inner:
                first = values[source]
                last = values[target]
                if self.null_semantics:
                    ok = values_equal(first, last) if want_equal else values_differ(first, last)
                else:
                    ok = (first == last) if want_equal else (first != last)
                if ok:
                    kept.add((source, target))
            return frozenset(kept)
        if isinstance(expression, NodeTest):
            selected = self.node(expression.condition)
            return frozenset((node_id, node_id) for node_id in selected)
        raise EvaluationError(f"unknown GXPath path expression {expression!r}")  # pragma: no cover

    def _axis_star(self, label: str, inverse: bool) -> FrozenSet[IdPair]:
        """The reflexive-transitive closure of one axis, on the route's kernels.

        Computed in the forward direction over a :class:`ClosureSpace`
        (the inverse axis closure is its transpose) by the sequential
        dict or compact kernels or a partitioned driver.  A ``sql`` route
        runs the degenerate one-state recursive CTE instead — which
        traverses the transposed edge table directly for inverse axes,
        so its result needs no flip.
        """
        route = self.route
        if route.kernel == "sql":
            from ..sqlbackend import backend as sql_backend

            return sql_backend.closure_pairs(self.graph, label, inverse)
        space = ClosureSpace(self.index, label)
        if route.driver == "sequential":
            # seeded_product_relation with no restriction is
            # product_relation; the compact twin runs the int-id closure
            # kernel instead of the dict mask pass.
            compact = self.graph.compact_index() if route.kernel == "compact" else None
            pairs = product_kernels.seeded_product_relation(space, compact=compact)
        else:
            pairs = partition_kernels.partitioned_product_relation(
                space, route.driver, workers=route.workers, num_shards=route.workers
            )
        if inverse:
            return frozenset((target, source) for source, target in pairs)
        return frozenset(pairs)

    @staticmethod
    def _compose(left: FrozenSet[IdPair], right: FrozenSet[IdPair]) -> FrozenSet[IdPair]:
        index: Dict[NodeId, Set[NodeId]] = {}
        for middle, target in right:
            index.setdefault(middle, set()).add(target)
        result: Set[IdPair] = set()
        for source, middle in left:
            for target in index.get(middle, ()):
                result.add((source, target))
        return frozenset(result)

    # ------------------------------------------------------------------
    def node(self, expression: NodeExpression) -> FrozenSet[NodeId]:
        key = id(expression)
        if key in self._node_cache:
            return self._node_cache[key]
        result = self._node(expression)
        self._node_cache[key] = result
        return result

    def _node(self, expression: NodeExpression) -> FrozenSet[NodeId]:
        graph = self.graph
        if isinstance(expression, NodeNot):
            return frozenset(graph.node_ids) - self.node(expression.inner)
        if isinstance(expression, NodeAnd):
            return self.node(expression.left) & self.node(expression.right)
        if isinstance(expression, NodeOr):
            return self.node(expression.left) | self.node(expression.right)
        if isinstance(expression, NodeExists):
            return frozenset(source for source, _ in self.path(expression.path))
        raise EvaluationError(f"unknown GXPath node expression {expression!r}")  # pragma: no cover


def evaluate_path(
    graph: DataGraph,
    expression: PathExpression,
    null_semantics: bool = False,
    *,
    route: Optional["Route"] = None,
) -> FrozenSet[Tuple[Node, Node]]:
    """The binary relation ``[[α]]_G`` as pairs of nodes.

    *route* is the resolved :class:`~repro.planner.router.Route` the
    axis-star closures run on (sessions pass theirs; a bare call takes
    the router's graph-size rule).  Answers are identical on every route.
    """
    evaluator = _Evaluator(graph, null_semantics, route)
    return frozenset(
        (graph.node(source), graph.node(target)) for source, target in evaluator.path(expression)
    )


def evaluate_node(
    graph: DataGraph,
    expression: NodeExpression,
    null_semantics: bool = False,
    *,
    route: Optional["Route"] = None,
) -> FrozenSet[Node]:
    """The node set ``[[φ]]_G`` (*route* as in :func:`evaluate_path`)."""
    evaluator = _Evaluator(graph, null_semantics, route)
    return frozenset(graph.node(node_id) for node_id in evaluator.node(expression))


def node_holds(
    graph: DataGraph, expression: NodeExpression, node_id: NodeId, null_semantics: bool = False
) -> bool:
    """Whether ``v ∈ [[φ]]_G`` for the node with the given id."""
    evaluator = _Evaluator(graph, null_semantics)
    return node_id in evaluator.node(expression)


def path_holds(
    graph: DataGraph,
    expression: PathExpression,
    source: NodeId,
    target: NodeId,
    null_semantics: bool = False,
) -> bool:
    """Whether ``(source, target) ∈ [[α]]_G``."""
    evaluator = _Evaluator(graph, null_semantics)
    return (source, target) in evaluator.path(expression)
