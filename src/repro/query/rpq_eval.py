"""Evaluation of RPQs over data graphs by a product construction.

The textbook NLogspace procedure: compile the regular expression into an
ε-NFA, form the product with the graph (states are pairs of a graph node
and an automaton state) and compute reachability.  ``e(G)`` is the set of
pairs ``(v, v')`` such that some accepting product state ``(v', q_f)`` is
reachable from an initial product state ``(v, q_0)``.

The public functions here delegate to the shared
:class:`~repro.engine.engine.EvaluationEngine`, which caches one compiled
ε-free automaton per query across *all* entry points
(``evaluate_rpq_from``, ``rpq_holds``, ``witness_path_labels``; full
relations run through :class:`repro.api.GraphSession`) and runs a
single multi-source product pass over the graph's label index instead of
one BFS per source node.  The seed per-source evaluator is kept as
:func:`evaluate_rpq_naive`: it is the executable specification the engine
is validated against, and the baseline the benchmark suite measures
speedups over.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..engine import default_engine
from ..regular import NFA, Regex, to_nfa
from .rpq import RPQ

__all__ = [
    "evaluate_rpq_from",
    "rpq_holds",
    "evaluate_word",
    "witness_path_labels",
    "evaluate_rpq_naive",
]


def evaluate_rpq_from(graph: DataGraph, query: RPQ | Regex | str, source: NodeId) -> FrozenSet[Node]:
    """All nodes ``v'`` with ``(source, v') ∈ e(G)``."""
    return default_engine().evaluate_rpq_from(graph, query, source)


def rpq_holds(graph: DataGraph, query: RPQ | Regex | str, source: NodeId, target: NodeId) -> bool:
    """Whether ``(source, target) ∈ e(G)``."""
    return default_engine().rpq_holds(graph, query, source, target)


def witness_path_labels(
    graph: DataGraph, query: RPQ | Regex | str, source: NodeId, target: NodeId
) -> Optional[Tuple[str, ...]]:
    """The label sequence of a shortest witnessing path, or ``None``.

    Useful for explanations in examples and for tests that need to check
    that the product construction found a genuine path.
    """
    return default_engine().witness_path_labels(graph, query, source, target)


def evaluate_word(graph: DataGraph, labels: Sequence[str]) -> FrozenSet[Tuple[Node, Node]]:
    """Evaluate a word RPQ directly by composing edge relations.

    This avoids the automaton machinery for the common case of relational
    mapping rules (right-hand sides are words, Definition 3).
    """
    labels = tuple(labels)
    if not labels:
        return frozenset((node, node) for node in graph.nodes)
    index = graph.label_index()
    # frontier maps: for each start node, the set of nodes reached so far
    reached: Dict[NodeId, Set[NodeId]] = {node_id: {node_id} for node_id in index.nodes}
    for label in labels:
        successors = index.successors(label)
        next_reached: Dict[NodeId, Set[NodeId]] = {}
        for start, current in reached.items():
            bucket: Set[NodeId] = set()
            for node_id in current:
                bucket.update(successors.get(node_id, ()))
            if bucket:
                next_reached[start] = bucket
        reached = next_reached
        if not reached:
            return frozenset()
    pairs: Set[Tuple[Node, Node]] = set()
    for start, finals in reached.items():
        for final in finals:
            pairs.add((graph.node(start), graph.node(final)))
    return frozenset(pairs)


# ----------------------------------------------------------------------
# Reference implementation (the seed evaluator)
# ----------------------------------------------------------------------
def evaluate_rpq_naive(graph: DataGraph, query: RPQ | Regex | str) -> FrozenSet[Tuple[Node, Node]]:
    """``e(G)`` by the seed per-source product BFS (reference implementation).

    Recompiles the automaton on every call and runs one BFS per source
    node.  Kept as the executable specification for the engine's
    equivalence tests and as the baseline of the benchmark suite; all
    production call sites use :meth:`repro.api.GraphSession.run`.
    """
    nfa = _coerce_nfa(query)
    pairs: Set[Tuple[Node, Node]] = set()
    for source in graph.nodes:
        for target_id in _reachable_targets(graph, nfa, source.id):
            pairs.add((source, graph.node(target_id)))
    return frozenset(pairs)


def _coerce_nfa(query: RPQ | Regex | str) -> NFA:
    if isinstance(query, RPQ):
        return to_nfa(query.expression)
    return to_nfa(query)


def _reachable_targets(
    graph: DataGraph, nfa: NFA, source: NodeId, stop_at: Optional[NodeId] = None
) -> Set[NodeId]:
    """Graph nodes reachable from *source* along a path accepted by *nfa*."""
    initial_states = nfa.initial_closure()
    start_configs = {(source, state) for state in initial_states}
    seen: Set[Tuple[NodeId, int]] = set(start_configs)
    queue: deque = deque(start_configs)
    targets: Set[NodeId] = set()
    accepting = nfa.accepting

    def _note(node_id: NodeId, state: int) -> None:
        if state in accepting:
            targets.add(node_id)

    for node_id, state in start_configs:
        _note(node_id, state)
    if stop_at is not None and stop_at in targets:
        return targets

    while queue:
        node_id, state = queue.popleft()
        for label, neighbour in graph.successors(node_id):
            for next_state in nfa.step({state}, label):
                config = (neighbour.id, next_state)
                if config in seen:
                    continue
                seen.add(config)
                _note(neighbour.id, next_state)
                if stop_at is not None and stop_at in targets:
                    return targets
                queue.append(config)
    return targets
