"""Evaluation of data RPQs over data graphs.

Two engines are provided:

* **Relational-algebra engine for equality RPQs** — REE expressions are
  evaluated bottom-up: each sub-expression denotes a binary relation over
  the graph's nodes (pairs connected by a path whose data path matches the
  sub-expression), held as per-target source bitmasks and built by
  composition, union, transitive closure and endpoint data-value
  filtering for the ``e=`` / ``e≠`` subscripts.  This
  is sound because an REE subscript only ever compares the *first* and
  *last* data value of the sub-path it annotates, which are exactly the
  endpoint node values of the corresponding sub-relation.  Data complexity
  is polynomial (the NLogspace bound of [Libkin, Martens, Vrgoč]).

* **Register-automaton product engine** — REM (and, via the REE→REM
  translation, also REE) expressions are compiled to register automata and
  evaluated by reachability in the product of the automaton with the
  graph; configurations are ``(node, state, register valuation)`` where
  register contents range over the graph's data values.  This is the
  general-purpose engine for memory RPQs.

Both engines accept the SQL-null semantics flag of Section 7, under which
no comparison involving a null node's value is true.

The public functions route through the shared
:class:`~repro.engine.engine.EvaluationEngine`: register automata are
compiled once per query (LRU-cached on the expression AST) and both
strategies run over the index the router picks for the graph (the dict
label index, or its CSR twin on larger graphs).  The seed evaluators are
kept as :func:`evaluate_data_rpq_naive` for equivalence testing and
benchmarking.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Set, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..datapaths import (
    RegexWithEquality,
    RegexWithMemory,
    RegisterAutomaton,
    Valuation,
    compile_rem,
    ree_to_rem,
)
from ..engine import default_engine
from .data_rpq import DataRPQ

__all__ = [
    "evaluate_ree_algebraic",
    "evaluate_via_register_automaton",
    "data_rpq_holds",
    "evaluate_data_rpq_naive",
]

NodePair = Tuple[Node, Node]


def data_rpq_holds(
    graph: DataGraph,
    query: DataRPQ,
    source: NodeId,
    target: NodeId,
    null_semantics: bool = False,
) -> bool:
    """Whether ``(source, target)`` belongs to the query answer."""
    return default_engine().data_rpq_holds(graph, query, source, target, null_semantics)


def evaluate_ree_algebraic(
    graph: DataGraph, expression: RegexWithEquality, null_semantics: bool = False
) -> FrozenSet[NodePair]:
    """Evaluate an equality RPQ by bottom-up relation construction."""
    return default_engine().evaluate_data_rpq(
        graph, DataRPQ(expression), null_semantics, engine="algebraic"
    )


def evaluate_via_register_automaton(
    graph: DataGraph,
    expression: RegexWithMemory | RegisterAutomaton,
    null_semantics: bool = False,
) -> FrozenSet[NodePair]:
    """Evaluate a memory RPQ by product reachability with its register automaton."""
    from ..engine.data import register_automaton_relation

    if isinstance(expression, RegisterAutomaton):
        automaton = expression
    else:
        automaton = default_engine().compile_data_rpq(expression)
    id_pairs = register_automaton_relation(graph.label_index(), automaton, null_semantics)
    return frozenset((graph.node(source), graph.node(target)) for source, target in id_pairs)


# ----------------------------------------------------------------------
# Reference implementation (the seed evaluator)
# ----------------------------------------------------------------------
def evaluate_data_rpq_naive(
    graph: DataGraph,
    query: DataRPQ,
    null_semantics: bool = False,
) -> FrozenSet[NodePair]:
    """The seed data-RPQ evaluator: per-call compilation, per-source BFS.

    Kept as the executable specification for the engine's equivalence
    tests and as the benchmark baseline; production call sites use
    :meth:`repro.api.GraphSession.run`.
    """
    expression = query.expression
    if isinstance(expression, RegexWithEquality):
        expression = ree_to_rem(expression)
    automaton = compile_rem(expression)
    pairs: Set[NodePair] = set()
    for source in graph.nodes:
        for target_id in _ra_reachable_naive(graph, automaton, source.id, null_semantics):
            pairs.add((source, graph.node(target_id)))
    return frozenset(pairs)


def _ra_reachable_naive(
    graph: DataGraph, automaton: RegisterAutomaton, source: NodeId, null_semantics: bool
) -> Set[NodeId]:
    start_value = graph.value_of(source)
    initial = automaton.silent_closure(
        {(automaton.initial, Valuation())}, start_value, null_semantics
    )
    seen: Set[Tuple[NodeId, int, Valuation]] = {
        (source, state, valuation) for state, valuation in initial
    }
    queue: deque = deque(seen)
    targets: Set[NodeId] = set()
    for node_id, state, _ in seen:
        if state in automaton.accepting:
            targets.add(node_id)
    while queue:
        node_id, state, valuation = queue.popleft()
        for label, neighbour in graph.successors(node_id):
            stepped = automaton.letter_step(
                {(state, valuation)}, label, neighbour.value, null_semantics
            )
            for next_state, next_valuation in stepped:
                config = (neighbour.id, next_state, next_valuation)
                if config in seen:
                    continue
                seen.add(config)
                if next_state in automaton.accepting:
                    targets.add(neighbour.id)
                queue.append(config)
    return targets
