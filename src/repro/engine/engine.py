"""The shared query-evaluation engine facade.

:class:`EvaluationEngine` is the one seam every evaluator in the project
routes through.  It owns:

* **compiled-automaton caches** (LRU-bounded, keyed on the structural
  query AST) — parsed regexes, Thompson NFAs compiled to ε-free tables,
  and register automata for memory RPQs;
* **the kernels**, driven by each graph's lazily built
  :class:`~repro.datagraph.index.LabelIndex` (or its CSR twin): the
  bit-row algebra of :mod:`repro.engine.data` answers every full or
  seeded RPQ and scoped data RPQ; the NFA and register products
  of :mod:`repro.engine.product` keep point queries and cross-scope
  REMs;
* **a batched entry point** (:meth:`evaluate_many`) that amortises
  compilation and index construction across a workload.

Every evaluation entry point takes the resolved
:class:`~repro.planner.router.Route` of its query and merely *consumes*
it (the kernel family); a bare call that passes none
gets its route from the same router function sessions use, so there is
no second copy of the selection rule here.

A process-wide default instance (:func:`default_engine`) backs the
certain-answer algorithms and the reductions, so any two call sites
evaluating the same query share one compiled automaton.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..datapaths import (
    RegexWithEquality,
    RegexWithMemory,
    RegisterAutomaton,
    compile_rem,
    ree_to_rem,
)
from ..datapaths.fragments import regex_to_rem, scope_violation
from ..exceptions import EvaluationError
from ..regular import Regex, parse_regex, thompson
from . import compact as compact_kernels
from . import data as data_kernels
from . import product
from . import spaces
from .bitrelation import BitRelation
from .cache import CacheStats, LRUCache
from .compiled import CompiledAutomaton

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a query<->engine cycle
    from ..planner.router import Route
    from ..query.data_rpq import DataRPQ
    from ..query.rpq import RPQ

__all__ = ["EvaluationEngine", "default_engine"]

#: Queries are accepted as RPQ wrappers, regex ASTs, or textual expressions.
#: (The RPQ type is only referenced structurally — via its ``expression``
#: attribute — so this module never imports :mod:`repro.query` at runtime.)
RPQLike = Union["RPQ", Regex, str]
NodePair = Tuple[Node, Node]


def _bare_route(graph: DataGraph) -> "Route":
    """The route of an engine call no session resolved one for."""
    from ..planner import router

    return router.route_point(graph)


class EvaluationEngine:
    """Shared, cached evaluation of RPQs, data RPQs and word queries.

    Parameters
    ----------
    automaton_cache_size:
        Bound on the number of compiled NFAs kept (LRU eviction).
    register_cache_size:
        Bound on the number of compiled register automata kept.
    parse_cache_size:
        Bound on the number of parsed textual regular expressions kept.
    """

    def __init__(
        self,
        automaton_cache_size: int = 256,
        register_cache_size: int = 128,
        parse_cache_size: int = 512,
    ):
        self._automata: LRUCache[CompiledAutomaton] = LRUCache(automaton_cache_size)
        self._register_automata: LRUCache[RegisterAutomaton] = LRUCache(register_cache_size)
        self._parses: LRUCache[Regex] = LRUCache(parse_cache_size)

    # ------------------------------------------------------------------
    # Compilation (cached)
    # ------------------------------------------------------------------
    def parse(self, text: str) -> Regex:
        """Parse a textual regular expression (cached by the literal text)."""
        return self._parses.get_or_build(text, lambda: parse_regex(text))

    def _expression_of(self, query: RPQLike) -> Regex:
        if isinstance(query, str):
            return self.parse(query)
        if isinstance(query, Regex):
            return query
        return query.expression  # RPQ wrapper (structural, avoids import cycle)

    def compile_rpq(self, query: RPQLike) -> CompiledAutomaton:
        """The compiled ε-free automaton of an RPQ (cached on the regex AST)."""
        expression = self._expression_of(query)
        return self._automata.get_or_build(
            expression, lambda: CompiledAutomaton(thompson(expression))
        )

    def compile_data_rpq(
        self, expression: Union[RegexWithEquality, RegexWithMemory]
    ) -> RegisterAutomaton:
        """The register automaton of a REM (or translated REE) expression."""

        def build() -> RegisterAutomaton:
            rem = ree_to_rem(expression) if isinstance(expression, RegexWithEquality) else expression
            return compile_rem(rem)

        return self._register_automata.get_or_build(expression, build)

    # ------------------------------------------------------------------
    # RPQ evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _index(graph: DataGraph, route: "Route"):
        """The index *route*'s kernel family walks: the CSR twin for
        ``compact``, else the dict label index."""
        return graph.compact_index() if route.kernel == "compact" else graph.label_index()

    def evaluate_rpq(
        self, graph: DataGraph, query: RPQLike, route: Optional["Route"] = None
    ) -> FrozenSet[NodePair]:
        """The full binary relation ``e(G)`` of an RPQ on a data graph.

        The algebra's bit rows (see :meth:`_scoped_bits`) are decoded
        straight to ``Node`` pairs; the sql kernel decodes its id pairs.
        """
        if route is None:
            route = _bare_route(graph)
        if route.kernel != "sql":  # plain regexes have a recursive-CTE twin
            relation = self._scoped_bits(graph, query, route)
            if relation is not None:
                return self._node_pairs(graph, relation, route)
        node = graph.node
        return frozenset(
            (node(source), node(target))
            for source, target in self.evaluate_rpq_ids(graph, query, route)
        )

    def evaluate_rpq_ids(
        self, graph: DataGraph, query: RPQLike, route: Optional["Route"] = None
    ) -> FrozenSet[Tuple[NodeId, NodeId]]:
        """``e(G)`` as raw id pairs (no Node materialisation): the
        unseeded :meth:`evaluate_atom_ids`."""
        if route is None:
            route = _bare_route(graph)
        return self.evaluate_atom_ids(graph, query, route=route)

    def evaluate_rpq_from(
        self,
        graph: DataGraph,
        query: RPQLike,
        source: NodeId,
        route: Optional["Route"] = None,
    ) -> FrozenSet[Node]:
        """All nodes ``v`` with ``(source, v) ∈ e(G)``.

        A ``sql`` route runs a source-seeded CTE; point routes only name
        it when the policy forces it — a single-source frontier is
        exactly the shape the dict/compact kernels win.
        """
        graph.node(source)  # raise UnknownNodeError early, mirroring the seed API
        if route is None:
            route = _bare_route(graph)
        if route.kernel == "sql":
            from ..sqlbackend import backend as sql_backend

            pairs = sql_backend.evaluate_rpq_pairs(
                graph, query, engine=self, sources=(source,)
            )
            return frozenset(graph.node(target) for _, target in pairs)
        targets = product.reachable_targets(
            self._index(graph, route), self.compile_rpq(query), source
        )
        return frozenset(graph.node(target) for target in targets)

    def witness_path_labels(
        self, graph: DataGraph, query: RPQLike, source: NodeId, target: NodeId
    ) -> Optional[Tuple[str, ...]]:
        """The label sequence of a shortest witnessing path, or ``None``."""
        graph.node(source)
        return product.witness_labels(graph.label_index(), self.compile_rpq(query), source, target)

    # ------------------------------------------------------------------
    # Batched entry points
    # ------------------------------------------------------------------
    def evaluate_many(
        self, graph: DataGraph, queries: Sequence[RPQLike]
    ) -> Tuple[FrozenSet[NodePair], ...]:
        """Evaluate several RPQs over one graph, sharing its label index.

        Returns one answer relation per query, in query order.  Duplicate
        queries are evaluated once.
        """
        # Keyed on the structural regex AST, so every spelling of one
        # query is evaluated once.
        memo: Dict[Regex, FrozenSet[NodePair]] = {}
        results: List[FrozenSet[NodePair]] = []
        for query in queries:
            expression = self._expression_of(query)
            answer = memo.get(expression)
            if answer is None:
                answer = memo[expression] = self.evaluate_rpq(graph, expression)
            results.append(answer)
        return tuple(results)

    # ------------------------------------------------------------------
    # Data RPQ evaluation
    # ------------------------------------------------------------------
    def evaluate_data_rpq(
        self,
        graph: DataGraph,
        query: DataRPQ,
        null_semantics: bool = False,
        engine: str = "auto",
        route: Optional["Route"] = None,
    ) -> FrozenSet[NodePair]:
        """Evaluate a data RPQ: the bit-row algebra for a scoped expression
        (every REE, and each REM passing
        :func:`~repro.datapaths.fragments.scope_violation`), the register
        product for a cross-scope one.

        Both honour the route's kernel family — the algebra computes its
        bit rows over whichever index the route names, the register mask
        pass has an int-id CSR twin — and rows are decoded straight to
        ``Node`` pairs as in :meth:`evaluate_rpq`.  ``engine="algebraic"``
        refuses a cross-scope expression (naming the violation),
        ``"automaton"`` forces the register product on any.
        """
        expression = query.expression
        if engine not in {"auto", "algebraic", "automaton"}:
            raise EvaluationError(f"unknown data RPQ engine {engine!r}")
        if route is None:
            route = _bare_route(graph)
        relation = None
        if engine != "automaton":
            relation = self._scoped_bits(graph, expression, route, null_semantics=null_semantics)
        if relation is not None:
            return self._node_pairs(graph, relation, route)
        if engine == "algebraic":
            raise EvaluationError(
                f"the algebraic engine declines this expression: {scope_violation(expression)}"
            )
        automaton = self.compile_data_rpq(expression)
        if route.kernel == "compact":
            compact = graph.compact_index()
            relation = compact_kernels.register_relation(compact, automaton, null_semantics)
            return relation.node_pairs(compact.node_objects)
        id_pairs = data_kernels.register_automaton_relation(
            graph.label_index(), automaton, null_semantics
        )
        node = graph.node
        return frozenset((node(source), node(target)) for source, target in id_pairs)

    # ------------------------------------------------------------------
    # Seeded (semijoin) atom evaluation — the CRPQ planner's kernel seam
    # ------------------------------------------------------------------
    def space_for_atom(
        self, graph: DataGraph, query, null_semantics: bool = False
    ) -> spaces.ProductSpace:
        """The :class:`~repro.engine.spaces.ProductSpace` of one CRPQ atom.

        *query* is an RPQ or data-RPQ wrapper (or a bare regex / REE /
        REM expression): data expressions compile to the register
        product, everything else to the NFA product.  The distinction is
        structural — on the expression type, not the wrapper — so this
        module still never imports :mod:`repro.query` at runtime.
        """
        index = graph.label_index()
        expression = getattr(query, "expression", query)
        if isinstance(expression, (RegexWithEquality, RegexWithMemory)):
            automaton = self.compile_data_rpq(expression)
            return spaces.RegisterProductSpace(index, automaton, null_semantics)
        return spaces.NfaProductSpace(index, self.compile_rpq(query))

    @staticmethod
    def _node_pairs(graph: DataGraph, relation: BitRelation, route: "Route") -> FrozenSet[NodePair]:
        """*relation*'s rows, over the index *route* names, as ``Node`` pairs."""
        if route.kernel == "compact":
            return relation.node_pairs(graph.compact_index().node_objects)
        return relation.node_pairs(tuple(map(graph.node, relation.nodes)))

    def _scoped_bits(
        self,
        graph: DataGraph,
        query,
        route: "Route",
        sources: Optional[Iterable[NodeId]] = None,
        targets: Optional[Iterable[NodeId]] = None,
        null_semantics: bool = False,
        memo: Optional[data_kernels.RowMemo] = None,
    ) -> Optional[BitRelation]:
        """A scoped expression's (seeded) relation by the bit-row algebra,
        over the index *route* names — the one place an RPQ
        or a data RPQ is sent to it; a plain regex goes as the REM with no
        registers (:func:`~repro.datapaths.fragments.regex_to_rem`).  Its
        closed sub-expression rows are carried in *memo* when one is given.
        ``None`` for a cross-scope REM."""
        expression = getattr(query, "expression", query)
        if not isinstance(expression, (RegexWithEquality, RegexWithMemory)):
            expression = regex_to_rem(self._expression_of(expression))
        elif scope_violation(expression) is not None:
            return None
        relation = data_kernels.ree_relation(
            self._index(graph, route), expression, null_semantics, sources, memo=memo
        )
        return relation if targets is None else relation.restrict(targets=targets)

    def atom_bits(
        self,
        graph: DataGraph,
        query,
        route: "Route",
        sources: Optional[Iterable[NodeId]] = None,
        targets: Optional[Iterable[NodeId]] = None,
        null_semantics: bool = False,
        memo: Optional[data_kernels.RowMemo] = None,
    ) -> Optional[BitRelation]:
        """One atom's (seeded) relation as the bit rows of *route*'s
        kernel — what :meth:`evaluate_atom_ids` decodes — or ``None`` when
        that route yields id pairs (dict / sql kernels).  CRPQ scans read
        live columns straight off the rows.
        An RPQ or scoped data expression takes the bit-row algebra —
        bound *sources* seed it, bound *targets* select rows, and an
        unseeded run takes and leaves its sub-expression rows in *memo* —
        and a cross-scope REM the register kernel.
        """
        if route.kernel != "compact":
            return None
        bits = self._scoped_bits(graph, query, route, sources, targets, null_semantics, memo)
        if bits is not None:
            return bits
        return compact_kernels.register_relation(
            graph.compact_index(),
            self.compile_data_rpq(getattr(query, "expression", query)),
            null_semantics,
            sources=sources,
            targets=targets,
        )

    def evaluate_atom_ids(
        self,
        graph: DataGraph,
        query,
        sources: Optional[Iterable[NodeId]] = None,
        targets: Optional[Iterable[NodeId]] = None,
        null_semantics: bool = False,
        route: Optional["Route"] = None,
    ) -> FrozenSet[Tuple[NodeId, NodeId]]:
        """One atom's relation as raw id pairs, optionally seeded.

        This is the entry point the planner's scans call — the bit-row
        algebra for a scoped expression (:meth:`_scoped_bits`), else the
        seeded register product of a cross-scope REM: *sources* /
        *targets* restrict the relation to the node sets already bound
        by earlier joins (``None`` means unrestricted), so a later atom
        is evaluated only from the bindings that can still contribute to
        the join.  *route* names the kernel family.  Answers are
        identical on every route.
        """
        if route is None:
            route = _bare_route(graph)
        expression = getattr(query, "expression", query)
        if route.kernel == "sql" and not isinstance(
            expression, (RegexWithEquality, RegexWithMemory)
        ):
            # Plain-regex atoms have a seeded CTE twin; register atoms
            # stay on the dict kernels.
            from ..sqlbackend import backend as sql_backend

            return sql_backend.evaluate_rpq_pairs(
                graph, query, engine=self, sources=sources, targets=targets
            )
        bits = self.atom_bits(graph, query, route, sources, targets, null_semantics)
        if bits is None:  # off the compact kernels the algebra still runs, on the dict index
            bits = self._scoped_bits(graph, query, route, sources, targets, null_semantics)
        if bits is not None:
            return bits.id_pairs()
        space = self.space_for_atom(graph, query, null_semantics)
        index = space.index
        if sources is not None:
            # Deterministic seed order regardless of
            # the set iteration order the bindings arrived in; ids the
            # index does not know contribute nothing and are dropped.
            position = index.position
            sources = tuple(
                sorted((node for node in set(sources) if node in position), key=position.__getitem__)
            )
        if targets is not None and not isinstance(targets, set):
            targets = set(targets)
        return frozenset(product.seeded_product_relation(space, sources=sources, targets=targets))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Mapping[str, CacheStats]:
        """Hit/miss snapshots of every cache, keyed by cache name."""
        return {
            "automata": self._automata.stats(),
            "register_automata": self._register_automata.stats(),
            "parses": self._parses.stats(),
        }

    def clear_caches(self) -> None:
        """Drop all cached compilation artefacts."""
        self._automata.clear()
        self._register_automata.clear()
        self._parses.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        parts = ", ".join(
            f"{name}={snapshot.size}/{snapshot.maxsize} ({snapshot.hits} hits)"
            for name, snapshot in stats.items()
        )
        return f"<EvaluationEngine {parts}>"


#: The process-wide engine behind sessions built without one.
_DEFAULT_ENGINE = EvaluationEngine()


def default_engine() -> EvaluationEngine:
    """The process-wide shared engine instance."""
    return _DEFAULT_ENGINE

