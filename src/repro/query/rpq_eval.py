"""Evaluation of RPQs over data graphs by a product construction.

The textbook NLogspace procedure: compile the regular expression into an
ε-NFA, form the product with the graph (states are pairs of a graph node
and an automaton state) and compute reachability.  ``e(G)`` is the set of
pairs ``(v, v')`` such that some accepting product state ``(v', q_f)`` is
reachable from an initial product state ``(v, q_0)``.

Queries are answered through :class:`repro.api.GraphSession`;
:func:`witness_path_labels` delegates to the shared
:class:`~repro.engine.engine.EvaluationEngine`, which caches one compiled
ε-free automaton per query.  The seed per-source evaluator is kept as
:func:`evaluate_rpq_naive`: it is the executable specification the engine
is validated against, and the baseline the benchmark suite measures
speedups over.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Optional, Set, Tuple

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..engine import default_engine
from ..regular import NFA, Regex, to_nfa
from .rpq import RPQ

__all__ = [
    "witness_path_labels",
    "evaluate_rpq_naive",
]


def witness_path_labels(
    graph: DataGraph, query: RPQ | Regex | str, source: NodeId, target: NodeId
) -> Optional[Tuple[str, ...]]:
    """The label sequence of a shortest witnessing path, or ``None``.

    Useful for explanations in examples and for tests that need to check
    that the product construction found a genuine path.
    """
    return default_engine().witness_path_labels(graph, query, source, target)


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
