"""The unified query IR: one tagged, hashable plan for every language.

The paper studies one semantic family — RPQs, data RPQs (REE/REM), data
path queries, conjunctive RPQs and GXPath — but the library historically
exposed each language through its own ad-hoc entry point with its own
return shape.  :class:`Query` normalises all of them into a single
immutable value:

* :meth:`Query.rpq`, :meth:`Query.data_rpq`, :meth:`Query.crpq` and
  :meth:`Query.gxpath` wrap the language-specific ASTs;
* :meth:`Query.parse` builds a query from text in any supported dialect;
* :meth:`Query.of` coerces "whatever the caller already has" (a wrapper,
  an AST, a string, or another :class:`Query`) into the IR.

A :class:`Query` is a frozen dataclass over structurally hashable plans,
so it can key caches: two queries parsed from different texts but with
equal ASTs share one :attr:`key`, one compiled automaton and one cached
result.  :meth:`Query._evaluate` is the per-language switch onto the
shared :class:`~repro.engine.engine.EvaluationEngine`; sessions call it
from their dispatcher with the query's resolved route.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from ..datapaths import RegexWithEquality, RegexWithMemory, parse_ree, parse_rem
from ..datapaths.fragments import scope_violation
from ..exceptions import EvaluationError, ParseError, UnsupportedQueryError
from ..gxpath.ast import NodeExpression, PathExpression
from ..gxpath.parser import parse_gxpath_node, parse_gxpath_path
from ..query.crpq import Atom, ConjunctiveRPQ, parse_crpq
from ..query.data_rpq import DataRPQ
from ..query.rpq import RPQ
from ..regular import Regex, parse_regex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph
    from ..engine.engine import EvaluationEngine
    from ..planner.router import Route

__all__ = ["QueryKind", "Query", "QueryLike"]


class QueryKind(enum.Enum):
    """The language a :class:`Query` plan belongs to."""

    RPQ = "rpq"
    DATA_RPQ = "data_rpq"
    CRPQ = "crpq"
    GXPATH_NODE = "gxpath_node"
    GXPATH_PATH = "gxpath_path"


#: Plans are the existing per-language wrappers / ASTs; all are frozen,
#: structurally hashable dataclasses.
QueryPlan = Union[RPQ, DataRPQ, ConjunctiveRPQ, NodeExpression, PathExpression]

#: Anything :meth:`Query.of` can coerce into the IR.
QueryLike = Union["Query", QueryPlan, Regex, RegexWithEquality, RegexWithMemory, str]

#: Textual dialects understood by :meth:`Query.parse`.
DIALECTS = ("rpq", "ree", "rem", "crpq", "gxpath-node", "gxpath-path")


@dataclass(frozen=True)
class Query:
    """A tagged, hashable query plan consumed by :class:`GraphSession`.

    Attributes
    ----------
    kind:
        The :class:`QueryKind` tag identifying the language.
    plan:
        The underlying wrapper/AST (an :class:`~repro.query.rpq.RPQ`,
        :class:`~repro.query.data_rpq.DataRPQ`,
        :class:`~repro.query.crpq.ConjunctiveRPQ`, or a GXPath node/path
        expression).
    """

    kind: QueryKind
    plan: QueryPlan

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def rpq(cls, expression: Union[RPQ, Regex, str]) -> "Query":
        """An ordinary regular path query (Section 2)."""
        if isinstance(expression, str):
            expression = parse_regex(expression)
        if isinstance(expression, Regex):
            expression = RPQ(expression)
        if not isinstance(expression, RPQ):
            raise UnsupportedQueryError(f"cannot build an RPQ plan from {expression!r}")
        return cls(QueryKind.RPQ, expression)

    @classmethod
    def data_rpq(
        cls, expression: Union[DataRPQ, RegexWithEquality, RegexWithMemory, str]
    ) -> "Query":
        """A data RPQ over a REE or REM expression (Section 3).

        Textual input is parsed as REE first and as REM on failure; use
        :meth:`parse` with an explicit ``"ree"`` / ``"rem"`` dialect to
        pin the sub-language.
        """
        if isinstance(expression, str):
            try:
                expression = parse_ree(expression)
            except ParseError:
                expression = parse_rem(expression)
        if isinstance(expression, (RegexWithEquality, RegexWithMemory)):
            expression = DataRPQ(expression)
        if not isinstance(expression, DataRPQ):
            raise UnsupportedQueryError(f"cannot build a data RPQ plan from {expression!r}")
        return cls(QueryKind.DATA_RPQ, expression)

    @classmethod
    def crpq(
        cls,
        query_or_head: Union[ConjunctiveRPQ, Sequence[str]],
        atoms: Optional[Iterable[Union[Atom, Tuple[str, object, str]]]] = None,
    ) -> "Query":
        """A conjunctive (data) RPQ (Section 5).

        Accepts an existing :class:`~repro.query.crpq.ConjunctiveRPQ`, or
        a head (sequence of output variables) plus atoms given either as
        :class:`~repro.query.crpq.Atom` objects or ``(source, query,
        target)`` triples whose query part may be an RPQ/data-RPQ wrapper
        or RPQ text.
        """
        if isinstance(query_or_head, ConjunctiveRPQ):
            return cls(QueryKind.CRPQ, query_or_head)
        if atoms is None:
            raise UnsupportedQueryError("Query.crpq needs a ConjunctiveRPQ or a head plus atoms")
        built = []
        for atom in atoms:
            if isinstance(atom, Atom):
                built.append(atom)
                continue
            source, inner, target = atom
            if isinstance(inner, str):
                inner = RPQ(parse_regex(inner))
            elif isinstance(inner, Regex):
                inner = RPQ(inner)
            elif isinstance(inner, (RegexWithEquality, RegexWithMemory)):
                inner = DataRPQ(inner)
            if not isinstance(inner, (RPQ, DataRPQ)):
                raise UnsupportedQueryError(f"unsupported CRPQ atom query {inner!r}")
            built.append(Atom(source, inner, target))
        return cls(QueryKind.CRPQ, ConjunctiveRPQ(tuple(query_or_head), tuple(built)))

    @classmethod
    def gxpath(
        cls, expression: Union[NodeExpression, PathExpression, str], kind: str = "auto"
    ) -> "Query":
        """A GXPath-core node or path expression (Section 9).

        ``kind`` is ``"node"``, ``"path"``, or ``"auto"`` — for ASTs the
        shape is detected; textual input is parsed as a node expression
        first and as a path expression on failure.
        """
        if kind not in {"auto", "node", "path"}:
            raise UnsupportedQueryError(f"unknown GXPath expression kind {kind!r}")
        if isinstance(expression, str):
            if kind == "node":
                expression = parse_gxpath_node(expression)
            elif kind == "path":
                expression = parse_gxpath_path(expression)
            else:
                try:
                    expression = parse_gxpath_node(expression)
                except ParseError:
                    expression = parse_gxpath_path(expression)
        if isinstance(expression, NodeExpression):
            if kind == "path":
                raise UnsupportedQueryError(f"{expression} is a GXPath node expression, not a path")
            return cls(QueryKind.GXPATH_NODE, expression)
        if isinstance(expression, PathExpression):
            if kind == "node":
                raise UnsupportedQueryError(f"{expression} is a GXPath path expression, not a node")
            return cls(QueryKind.GXPATH_PATH, expression)
        raise UnsupportedQueryError(f"cannot build a GXPath plan from {expression!r}")

    @classmethod
    def parse(cls, text: str, dialect: str = "rpq") -> "Query":
        """Parse *text* in the given dialect into a :class:`Query`.

        Supported dialects: ``"rpq"`` (plain regular expressions),
        ``"ree"`` (regular expressions with equality), ``"rem"`` (regular
        expressions with memory), ``"crpq"`` (conjunctions, e.g.
        ``"x,y :- (x, a.b, z), (z, ree:(c)=, y)"``), ``"gxpath-node"``
        and ``"gxpath-path"``.
        """
        if dialect == "rpq":
            return cls.rpq(text)
        if dialect == "ree":
            return cls.data_rpq(parse_ree(text))
        if dialect == "rem":
            return cls.data_rpq(parse_rem(text))
        if dialect == "crpq":
            return cls(QueryKind.CRPQ, parse_crpq(text))
        if dialect == "gxpath-node":
            return cls.gxpath(text, kind="node")
        if dialect == "gxpath-path":
            return cls.gxpath(text, kind="path")
        raise UnsupportedQueryError(
            f"unknown query dialect {dialect!r}; expected one of {', '.join(DIALECTS)}"
        )

    @classmethod
    def of(cls, query: QueryLike) -> "Query":
        """Coerce *query* into the IR.

        Accepts an existing :class:`Query` (returned unchanged), any
        per-language wrapper or AST, or a string (treated as RPQ text —
        use :meth:`parse` for other dialects).
        """
        if isinstance(query, Query):
            return query
        if isinstance(query, (RPQ, Regex, str)):
            return cls.rpq(query)
        if isinstance(query, (DataRPQ, RegexWithEquality, RegexWithMemory)):
            return cls.data_rpq(query)
        if isinstance(query, ConjunctiveRPQ):
            return cls(QueryKind.CRPQ, query)
        if isinstance(query, (NodeExpression, PathExpression)):
            return cls.gxpath(query)
        raise UnsupportedQueryError(f"cannot interpret {query!r} as a query")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[str, QueryPlan]:
        """A hashable cache key identifying the plan across construction paths."""
        return (self.kind.value, self.plan)

    @property
    def arity(self) -> int:
        """Number of output positions: 1 for node sets, 2 for relations, the head arity for CRPQs."""
        if self.kind is QueryKind.GXPATH_NODE:
            return 1
        if self.kind is QueryKind.CRPQ:
            return self.plan.arity
        return 2

    def labels(self) -> FrozenSet[str]:
        """Edge labels mentioned by the plan."""
        if self.kind is QueryKind.RPQ:
            return self.plan.letters()
        if self.kind is QueryKind.CRPQ:
            result: FrozenSet[str] = frozenset()
            for atom in self.plan.atoms:
                result |= (
                    atom.query.letters() if isinstance(atom.query, RPQ) else atom.query.labels()
                )
            return result
        return self.plan.labels()

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.plan}"

    def explain(self, graph: Optional["DataGraph"] = None) -> str:
        """A human-readable account of how this query will be evaluated.

        For CRPQs this is the planner's chosen plan — join order,
        seeded scans, hash joins and cardinality estimates — costed
        against *graph*'s statistics catalogue, as a session plans it,
        when a graph is given (without one, estimates collapse and the
        plan follows the written atom order).  The other kinds have a
        fixed execution strategy and explain to a one-line description.
        Sessions expose the same text (with plan caching) via
        :meth:`~repro.api.session.GraphSession.explain`; the CLI prints
        it under ``--explain``.
        """
        kind = self.kind
        if kind is QueryKind.CRPQ:
            from ..planner import graph_statistics, plan_crpq

            if graph is None:
                return plan_crpq(self.plan).explain()
            return plan_crpq(self.plan, graph.label_index(), graph_statistics(graph)).explain()
        if kind is QueryKind.RPQ:
            return (
                "rpq: bit-row algebra, the regex as a register-free REM (concatenations "
                "push their left factor's rows; point queries run the compiled "
                "ε-free NFA × graph product)"
            )
        if kind is QueryKind.DATA_RPQ:
            # The fragment test the engine dispatches on, so this is what runs.
            violation = scope_violation(self.plan.expression)
            if violation is None:
                return "data_rpq: bit-row algebra, registers as origin masks"
            return (
                "data_rpq: register product (register-automaton × graph, one full-relation "
                f"mask pass) — outside the scoped fragment: {violation}"
            )
        return (
            f"{kind.value}: bit-row algebra over the route's index (axes push rows along "
            "forward or transposed edges, a* is the swept closure, concatenations push "
            "their left factor's rows; node expressions are position masks)"
        )

    # ------------------------------------------------------------------
    # Execution seam (driven by GraphSession's dispatcher)
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        engine: "EvaluationEngine",
        graph: "DataGraph",
        null_semantics: bool,
        route: Optional["Route"] = None,
    ):
        """Evaluate the plan on *graph* through *engine*.

        Returns the raw answer set in the plan's natural shape: a
        frozenset of node pairs for binary queries, of nodes for GXPath
        node expressions, and of head tuples for CRPQs.  The
        :class:`~repro.api.result.Result` wrapper normalises access.
        *route* is the resolved :class:`~repro.planner.router.Route` the
        kernels run on; bare callers pass none and the entry points ask
        the router.  Answers are bit-identical on every route.
        """
        kind = self.kind
        if kind is QueryKind.RPQ:
            return engine.evaluate_rpq(graph, self.plan, route)
        if kind is QueryKind.DATA_RPQ:
            return engine.evaluate_data_rpq(
                graph, self.plan, null_semantics=null_semantics, route=route
            )
        if kind is QueryKind.CRPQ:
            from ..query.crpq import evaluate_crpq_with_engine

            return evaluate_crpq_with_engine(
                graph, self.plan, null_semantics=null_semantics, engine=engine, route=route
            )
        from ..gxpath import evaluation as gxpath_evaluation

        if kind is QueryKind.GXPATH_NODE:
            return gxpath_evaluation.evaluate_node(graph, self.plan, null_semantics, route=route)
        if kind is QueryKind.GXPATH_PATH:
            return gxpath_evaluation.evaluate_path(graph, self.plan, null_semantics, route=route)
        raise EvaluationError(f"unknown query kind {kind!r}")  # pragma: no cover - defensive
