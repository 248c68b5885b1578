"""Semantics of GXPath-core with data comparisons (Figure 1 of the paper).

Given a data graph ``G = <V, E>``:

* the semantics of a path expression α is a binary relation
  ``[[α]]_G ⊆ V × V``;
* the semantics of a node expression φ is a set ``[[φ]]_G ⊆ V``.

Both run on the bit rows of :mod:`repro.engine.data` over the graph's CSR
index — GXPath has no other index or kernel: a path is ``{target position
→ source bitmask}`` rows, a node expression one position mask.
An axis pushes rows along forward or transposed edges, ``a*`` is the
algebra's swept closure, ``α·β`` pushes α's rows through β, ``[φ]`` keeps
the rows at φ's positions, ``⟨α⟩`` ORs α's rows, and ``α=`` / ``α≠`` AND
each row with its target's value class — false at the null under the
SQL-null mode used over exchanged graphs with null nodes.

:func:`evaluate_path_naive` / :func:`evaluate_node_naive` are the
executable specification the row evaluator is tested against: Figure 1
case by case, as sets of nodes, on the graph API alone.
"""

from __future__ import annotations

import operator
from typing import Dict, FrozenSet, Set, Tuple, Union

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..datagraph.values import values_differ, values_equal
from ..engine.bitrelation import BitRelation
from ..engine.data import Pusher, Rows, _closure, _comparison, _compose, _letter_pusher, _union
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

__all__ = [
    "evaluate_path",
    "evaluate_node",
    "node_holds",
    "evaluate_path_naive",
    "evaluate_node_naive",
]


class _RowEvaluator:
    """One evaluation over a fixed index: paths as bit rows (closed, or
    as pushers of arrived rows), node expressions as position masks."""

    def __init__(self, index, null_semantics: bool):
        self.index = index
        self.null_semantics = null_semantics
        self.positions = range(len(index.nodes))
        self.all = (1 << len(index.nodes)) - 1
        self.identity: Rows = {v: 1 << v for v in self.positions}
        self.keys: Dict[int, int] = {}
        self.shapes: Dict[tuple, int] = {}
        self.relations: Dict[int, Rows] = {}
        self.pushers: Dict[int, Pusher] = {}
        self.masks: Dict[int, int] = {}

    def _key(self, expr) -> int:
        """The memo key: one int per structurally equal sub-expression,
        interned bottom-up so no lookup hashes a whole subtree (Theorem
        7's formulas run to thousands of nodes)."""
        key = self.keys.get(id(expr))
        if key is None:
            shape = (type(expr),) + tuple(
                self._key(part) if isinstance(part, (PathExpression, NodeExpression)) else part
                for part in vars(expr).values()
            )
            key = self.keys[id(expr)] = self.shapes.setdefault(shape, len(self.shapes))
        return key

    def path(self, expr: PathExpression) -> Rows:
        """``[[expr]]`` as ``{target position: source bitmask}`` rows."""
        key = self._key(expr)
        rows = self.relations.get(key)
        if rows is not None:
            return rows
        if isinstance(expr, PathConcat):
            rows = self.pusher(expr.right)(self.path(expr.left))
        elif isinstance(expr, PathUnion):
            rows = _union(self.path(expr.left), self.path(expr.right))
        elif isinstance(expr, (PathEqual, PathNotEqual)):
            allowed = _comparison(self.index, isinstance(expr, PathEqual), self.null_semantics)
            rows = {
                v: kept for v, mask in self.path(expr.inner).items() if (kept := mask & allowed(v))
            }
        else:  # ε, an axis, a*, [φ]: pushed from the identity
            rows = self.pusher(expr)(self.identity)
        self.relations[key] = rows
        return rows

    def pusher(self, expr: PathExpression) -> Pusher:
        """*expr* as a function from arrived rows to the rows after it."""
        key = self._key(expr)
        push = self.pushers.get(key)
        if push is None:
            push = self.pushers[key] = self._build(expr)
        return push

    def _build(self, expr: PathExpression) -> Pusher:
        if isinstance(expr, PathEpsilon):
            return lambda arrived: arrived
        if isinstance(expr, Axis):
            return _letter_pusher(self.index, expr.label, expr.inverse)
        if isinstance(expr, AxisStar):
            # One label's successors are a graph fact: memoised across pushes.
            step, successors = _letter_pusher(self.index, expr.label, expr.inverse), {}
            return lambda arrived: _union(arrived, _closure(step, step(arrived), successors))
        if isinstance(expr, NodeTest):
            keep = frozenset(BitRelation.members(self.node(expr.condition), self.positions))
            return lambda arrived: {v: mask for v, mask in arrived.items() if v in keep}
        if isinstance(expr, (PathEqual, PathNotEqual)):
            # compares the inner path's own endpoints: compose with its rows
            positions = self.positions
            return lambda arrived: _compose(arrived, self.path(expr), positions)
        if not isinstance(expr, (PathConcat, PathUnion)):  # pragma: no cover - defensive
            raise EvaluationError(f"unknown GXPath path expression {expr!r}")
        left, right = self.pusher(expr.left), self.pusher(expr.right)
        if isinstance(expr, PathConcat):
            return lambda arrived: right(left(arrived))
        return lambda arrived: _union(left(arrived), right(arrived))

    def node(self, expr: NodeExpression) -> int:
        """``[[expr]]`` as a mask over positions."""
        key = self._key(expr)
        mask = self.masks.get(key)
        if mask is not None:
            return mask
        if isinstance(expr, NodeNot):
            mask = self.all & ~self.node(expr.inner)
        elif isinstance(expr, NodeAnd):
            mask = self.node(expr.left) & self.node(expr.right)
        elif isinstance(expr, NodeOr):
            mask = self.node(expr.left) | self.node(expr.right)
        elif isinstance(expr, NodeExists):
            mask = 0
            for row in self.path(expr.path).values():
                mask |= row
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unknown GXPath node expression {expr!r}")
        self.masks[key] = mask
        return mask


def evaluate_path(
    graph: DataGraph,
    expression: PathExpression,
    null_semantics: bool = False,
    *,
    decode: bool = True,
) -> Union[FrozenSet[Tuple[Node, Node]], BitRelation]:
    """The binary relation ``[[α]]_G`` as pairs of nodes — or, without
    *decode*, as its :class:`~repro.engine.bitrelation.BitRelation` over
    the CSR index's ordering (what a session caches and reads points from)."""
    evaluator = _RowEvaluator(graph.compact_index(), null_semantics)
    index = evaluator.index
    relation = BitRelation(index.nodes, index.position, evaluator.path(expression))
    return relation.node_pairs(index.node_objects) if decode else relation


def evaluate_node(
    graph: DataGraph, expression: NodeExpression, null_semantics: bool = False
) -> FrozenSet[Node]:
    """The node set ``[[φ]]_G``."""
    evaluator = _RowEvaluator(graph.compact_index(), null_semantics)
    mask = evaluator.node(expression)
    return frozenset(BitRelation.members(mask, evaluator.index.node_objects))


def node_holds(
    graph: DataGraph, expression: NodeExpression, node_id: NodeId, null_semantics: bool = False
) -> bool:
    """Whether ``v ∈ [[φ]]_G`` for the node with the given id."""
    evaluator = _RowEvaluator(graph.compact_index(), null_semantics)
    at = evaluator.index.position.get(node_id)
    return at is not None and bool(evaluator.node(expression) >> at & 1)


# ----------------------------------------------------------------------
# Reference implementation (Figure 1, case by case)
# ----------------------------------------------------------------------
def evaluate_path_naive(
    graph: DataGraph, expression: PathExpression, null_semantics: bool = False
) -> FrozenSet[Tuple[Node, Node]]:
    """``[[α]]_G`` case by case from Figure 1, on the graph API alone.

    The executable specification :func:`evaluate_path` is tested
    against: relations are sets of node pairs, ``α·β`` joins them and
    ``a*`` runs one search per node.
    """
    if isinstance(expression, PathEpsilon):
        return frozenset((node, node) for node in graph.nodes)
    if isinstance(expression, Axis):
        pairs = graph.edge_relation(expression.label)
        return frozenset((t, s) for s, t in pairs) if expression.inverse else pairs
    if isinstance(expression, AxisStar):
        step = graph.predecessors if expression.inverse else graph.successors
        result: Set[Tuple[Node, Node]] = set()
        for start in graph.nodes:
            seen = {start.id}
            stack = [start]
            while stack:
                current = stack.pop()
                result.add((start, current))
                for _, neighbour in step(current.id, expression.label):
                    if neighbour.id not in seen:
                        seen.add(neighbour.id)
                        stack.append(neighbour)
        return frozenset(result)
    if isinstance(expression, PathConcat):
        after: Dict[NodeId, Set[Node]] = {}
        for middle, target in evaluate_path_naive(graph, expression.right, null_semantics):
            after.setdefault(middle.id, set()).add(target)
        left = evaluate_path_naive(graph, expression.left, null_semantics)
        return frozenset((s, t) for s, middle in left for t in after.get(middle.id, ()))
    if isinstance(expression, PathUnion):
        return evaluate_path_naive(graph, expression.left, null_semantics) | evaluate_path_naive(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, (PathEqual, PathNotEqual)):
        if isinstance(expression, PathEqual):
            holds = values_equal if null_semantics else operator.eq
        else:
            holds = values_differ if null_semantics else operator.ne
        inner = evaluate_path_naive(graph, expression.inner, null_semantics)
        return frozenset((s, t) for s, t in inner if holds(s.value, t.value))
    if isinstance(expression, NodeTest):
        return frozenset(
            (v, v) for v in evaluate_node_naive(graph, expression.condition, null_semantics)
        )
    raise EvaluationError(f"unknown GXPath path expression {expression!r}")


def evaluate_node_naive(
    graph: DataGraph, expression: NodeExpression, null_semantics: bool = False
) -> FrozenSet[Node]:
    """``[[φ]]_G`` case by case from Figure 1 (the specification of
    :func:`evaluate_node`)."""
    if isinstance(expression, NodeNot):
        return frozenset(graph.nodes) - evaluate_node_naive(graph, expression.inner, null_semantics)
    if isinstance(expression, NodeAnd):
        return evaluate_node_naive(graph, expression.left, null_semantics) & evaluate_node_naive(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, NodeOr):
        return evaluate_node_naive(graph, expression.left, null_semantics) | evaluate_node_naive(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, NodeExists):
        return frozenset(s for s, _ in evaluate_path_naive(graph, expression.path, null_semantics))
    raise EvaluationError(f"unknown GXPath node expression {expression!r}")
