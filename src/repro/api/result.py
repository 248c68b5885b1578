"""Uniform lazy query results.

Every language used to return a different shape — pair sets for RPQs and
data RPQs, node sets for GXPath node expressions, head tuples for CRPQs,
bools from the ``*_holds`` helpers.  :class:`Result` wraps all of them
behind one small accessor surface:

* :meth:`Result.rows` — the answers as a frozenset of node tuples
  (1-tuples for node queries), always available;
* :meth:`Result.pairs` / :meth:`Result.nodes` — shape-checked views for
  binary relations and node sets;
* :meth:`Result.holds` — membership test by node ids or nodes;
* :meth:`Result.count` / ``len`` / ``bool`` / iteration;
* :meth:`Result.to_json` — a deterministic JSON document.

Results are **lazy** twice over.  The evaluation thunk passed by the
session runs on first access and at most once: it returns the session's
result-cache entry (a :class:`~repro.engine.bitrelation.CachedRelation`:
bit rows, or the answer of a route without them), so ``session.run(q)``
is free until something needs the answer.  The answer set is decoded
from that entry only when an accessor reads it, once per entry — the
daemon sends the entry's wire document and decodes nothing
(:meth:`GraphSession._document <repro.api.session.GraphSession._document>`).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, FrozenSet, Iterator, Optional, Tuple

from ..datagraph.node import Node, index_rows
from ..datagraph.values import is_null
from ..engine.bitrelation import CachedRelation
from ..exceptions import EvaluationError
from .query import Query, QueryKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph

__all__ = ["Result"]

NodeTuple = Tuple[Node, ...]


def _json_value(value: object) -> object:
    """A JSON-representable rendering of a data value."""
    if is_null(value):
        return None
    if isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


class Result:
    """A lazy, shape-normalising view of one query's answers on one graph.

    Built by :meth:`GraphSession.run` / :meth:`GraphSession.run_many`;
    not constructed directly by users.
    """

    __slots__ = ("query", "graph", "_evaluate", "_relation", "_by_id")

    def __init__(
        self,
        query: Query,
        graph: Optional["DataGraph"],
        evaluate: Callable[[], CachedRelation],
    ):
        self.query = query
        self.graph = graph
        self._evaluate = evaluate
        self._relation: Optional[CachedRelation] = None
        # Lazily-built id → Node table for graph-less (remote) results,
        # so .holds() can resolve bare node ids without a graph.
        self._by_id: Optional[dict] = None

    # ------------------------------------------------------------------
    # Evaluation and decoding
    # ------------------------------------------------------------------
    def _entry(self) -> CachedRelation:
        """The evaluated answer: the thunk runs once, on the first call."""
        relation = self._relation
        if relation is None:
            relation = self._relation = self._evaluate()
        return relation

    def _force(self) -> frozenset:
        """The answer set, decoded from the entry on the first read."""
        return self._entry().pairs()

    @property
    def is_materialised(self) -> bool:
        """Whether the answers have been computed yet (evaluation is
        one-shot; decoding waits for the first read)."""
        return self._relation is not None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def rows(self) -> FrozenSet[NodeTuple]:
        """All answers as node tuples (node-set answers become 1-tuples)."""
        answers = self._force()
        if self.query.kind is QueryKind.GXPATH_NODE:
            return frozenset((node,) for node in answers)
        return answers

    def pairs(self) -> FrozenSet[Tuple[Node, Node]]:
        """The binary answer relation; raises for non-binary queries."""
        if self.query.arity != 2:
            raise EvaluationError(
                f"{self.query} has arity {self.query.arity}; .pairs() needs a binary query"
            )
        return self._force()

    def nodes(self) -> FrozenSet[Node]:
        """The answer node set; raises for queries of arity other than 1."""
        if self.query.arity != 1:
            raise EvaluationError(
                f"{self.query} has arity {self.query.arity}; .nodes() needs a unary query"
            )
        answers = self._force()
        if self.query.kind is QueryKind.GXPATH_NODE:
            return answers
        return frozenset(row[0] for row in answers)  # unary CRPQ heads

    def holds(self, *nodes: object) -> bool:
        """Whether the given answer tuple belongs to the result.

        Arguments may be :class:`~repro.datagraph.node.Node` objects or
        node ids (resolved against the session's graph); their number
        must match the query arity, e.g. ``result.holds(u, v)`` for a
        binary query.
        """
        if len(nodes) != self.query.arity:
            raise EvaluationError(
                f"{self.query} has arity {self.query.arity}, got {len(nodes)} argument(s)"
            )
        resolved = []
        for node in nodes:
            node = node if isinstance(node, Node) else self._resolve_id(node)
            if node is None:
                return False  # id appears in no answer: not a member
            resolved.append(node)
        if self.query.kind is QueryKind.GXPATH_NODE:
            return resolved[0] in self._force()
        return tuple(resolved) in self._force()

    def _resolve_id(self, node_id: object) -> Optional[Node]:
        """A bare id as a :class:`Node` — via the graph when the result has
        one, else against the answers themselves (remote results carry no
        graph; an id no answer mentions resolves to ``None``, which can
        only mean non-membership)."""
        if self.graph is not None:
            return self.graph.node(node_id)
        by_id = self._by_id
        if by_id is None:
            by_id = {}
            for row in self.rows():
                for node in row:
                    by_id[node.id] = node
            self._by_id = by_id
        return by_id.get(node_id)

    def count(self) -> int:
        """Number of answers."""
        return len(self._force())

    def to_json(self, indent: Optional[int] = None) -> str:
        """A deterministic JSON document describing the result."""
        column, rows = index_rows(self.rows(), self.query.arity)
        cells = [
            {"id": _json_value(node.id), "value": _json_value(node.value)} for node in column
        ]
        payload = {
            "query": str(self.query.plan),
            "kind": self.query.kind.value,
            "arity": self.query.arity,
            "count": len(rows),
            "rows": [[cells[at] for at in row] for row in rows],
        }
        return json.dumps(payload, indent=indent, sort_keys=False)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[NodeTuple]:
        return iter(self.rows())

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return bool(self._force())

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Node):
            return self.holds(item) if self.query.arity == 1 else False
        if isinstance(item, tuple):
            return item in self.rows()
        return False

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Result):
            return self.query == other.query and self.rows() == other.rows()
        if isinstance(other, (set, frozenset)):
            return self._force() == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - results are not meant as keys
        return hash((self.query, self._force()))

    def __repr__(self) -> str:
        relation = self._relation
        if relation is None:
            state = "lazy"
        else:  # a repr never decodes
            state = "evaluated" if relation.answer is None else f"{len(relation.answer)} answers"
        return f"<Result {self.query} ({state})>"
