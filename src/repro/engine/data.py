"""Index-driven evaluation kernels for data RPQs (REE and REM).

These are the engine-side counterparts of the two evaluation strategies
described in :mod:`repro.query.data_rpq_eval`:

* the bottom-up relational algebra for equality RPQs (REE), and
* the register-automaton × graph product for memory RPQs (REM).

Both work over a :class:`~repro.datagraph.index.LabelIndex` and on plain
node ids; the public wrappers in :mod:`repro.query.data_rpq_eval`
translate to :class:`~repro.datagraph.node.Node` pairs at the boundary.
Automaton compilation (``compile_rem``, the REE→REM translation) is
cached by the :class:`~repro.engine.engine.EvaluationEngine`, so repeated
evaluation of one query over many graphs — the shape of the adversarial
certain-answer loops — compiles exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..datagraph.values import values_differ, values_equal
from ..datapaths import RegisterAutomaton, Valuation
from ..datapaths.ree import (
    ReeConcat,
    ReeEpsilon,
    ReeEqualTest,
    ReeLetter,
    ReeNotEqualTest,
    ReePlus,
    ReeUnion,
    RegexWithEquality,
)
from ..exceptions import EvaluationError
from . import product
from .spaces import RegisterProductSpace

__all__ = [
    "ree_relation",
    "register_automaton_relation",
    "register_automaton_relation_per_source",
]

IdPair = Tuple[NodeId, NodeId]


# ----------------------------------------------------------------------
# Bottom-up relational algebra for REE, over the label index
# ----------------------------------------------------------------------
def ree_relation(
    index: LabelIndex, expression: RegexWithEquality, null_semantics: bool = False
) -> FrozenSet[IdPair]:
    """The id-pair relation of an equality RPQ, computed bottom-up."""
    memo: Dict[int, FrozenSet[IdPair]] = {}
    return _ree_relation(index, expression, null_semantics, memo)


def _ree_relation(
    index: LabelIndex,
    expression: RegexWithEquality,
    null_semantics: bool,
    memo: Dict[int, FrozenSet[IdPair]],
) -> FrozenSet[IdPair]:
    key = id(expression)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(expression, ReeEpsilon):
        result = frozenset((node_id, node_id) for node_id in index.nodes)
    elif isinstance(expression, ReeLetter):
        result = frozenset(index.pairs(expression.symbol))
    elif isinstance(expression, ReeConcat):
        left = _ree_relation(index, expression.left, null_semantics, memo)
        right = _ree_relation(index, expression.right, null_semantics, memo)
        result = compose_relations(left, right)
    elif isinstance(expression, ReeUnion):
        result = _ree_relation(index, expression.left, null_semantics, memo) | _ree_relation(
            index, expression.right, null_semantics, memo
        )
    elif isinstance(expression, ReePlus):
        result = transitive_closure(_ree_relation(index, expression.inner, null_semantics, memo))
    elif isinstance(expression, (ReeEqualTest, ReeNotEqualTest)):
        inner = _ree_relation(index, expression.inner, null_semantics, memo)
        values = index.values
        want_equal = isinstance(expression, ReeEqualTest)
        kept = set()
        for source, target in inner:
            first = values[source]
            last = values[target]
            if null_semantics:
                ok = values_equal(first, last) if want_equal else values_differ(first, last)
            else:
                ok = (first == last) if want_equal else (first != last)
            if ok:
                kept.add((source, target))
        result = frozenset(kept)
    else:  # pragma: no cover - defensive
        raise EvaluationError(f"unknown REE node {expression!r}")
    memo[key] = result
    return result


def compose_relations(left: Iterable[IdPair], right: Iterable[IdPair]) -> FrozenSet[IdPair]:
    """Relational composition ``left ∘ right`` on id pairs."""
    right_index: Dict[NodeId, Set[NodeId]] = {}
    for middle, target in right:
        right_index.setdefault(middle, set()).add(target)
    result: Set[IdPair] = set()
    for source, middle in left:
        targets = right_index.get(middle)
        if targets:
            for target in targets:
                result.add((source, target))
    return frozenset(result)


def transitive_closure(relation: Iterable[IdPair]) -> FrozenSet[IdPair]:
    """The transitive closure of a binary relation on id pairs."""
    successors: Dict[NodeId, Set[NodeId]] = {}
    for source, target in relation:
        successors.setdefault(source, set()).add(target)
    closure: Set[IdPair] = set()
    for start in list(successors):
        seen: Set[NodeId] = set()
        queue = deque(successors.get(start, ()))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            closure.add((start, current))
            queue.extend(successors.get(current, ()))
    return frozenset(closure)


# ----------------------------------------------------------------------
# Register-automaton × graph product for REM, over the label index
# ----------------------------------------------------------------------
def register_automaton_relation(
    index: LabelIndex, automaton: RegisterAutomaton, null_semantics: bool = False
) -> FrozenSet[IdPair]:
    """The id-pair relation computed by product reachability with *automaton*.

    Configurations are ``(node, state, register valuation)``, evaluated
    as **one** full-relation mask-propagation pass over the
    :class:`~repro.engine.spaces.RegisterProductSpace`: every source
    seeds its initial silent closure with its own bit, and the shared
    phase-3 fixpoint annotates each configuration with the bitmask of
    sources reaching it.  Sources whose runs meet in the same
    ``(node, state, valuation)`` configuration — common when register
    contents range over a bounded value domain — share all downstream
    expansion, which the historical per-source search (kept as
    :func:`register_automaton_relation_per_source`) repeated once per
    source.
    """
    space = RegisterProductSpace(index, automaton, null_semantics)
    return frozenset(product.product_relation(space))


def register_automaton_relation_per_source(
    index: LabelIndex, automaton: RegisterAutomaton, null_semantics: bool = False
) -> FrozenSet[IdPair]:
    """The per-source register-automaton search (executable baseline).

    One BFS over the register product per source node.  Superseded by the
    mask-propagation pass of :func:`register_automaton_relation`; kept as
    the equivalence spec and as the baseline the
    ``bench_datarpq_kernels`` CI gate measures against.
    """
    pairs: Set[IdPair] = set()
    for source in index.nodes:
        for target in _register_reachable(index, automaton, source, null_semantics):
            pairs.add((source, target))
    return frozenset(pairs)


def _register_reachable(
    index: LabelIndex, automaton: RegisterAutomaton, source: NodeId, null_semantics: bool
) -> Set[NodeId]:
    values = index.values
    initial = automaton.silent_closure(
        {(automaton.initial, Valuation())}, values[source], null_semantics
    )
    seen: Set[Tuple[NodeId, int, Valuation]] = {
        (source, state, valuation) for state, valuation in initial
    }
    queue: deque = deque(seen)
    targets: Set[NodeId] = set()
    accepting = automaton.accepting
    for _, state, _ in seen:
        if state in accepting:
            targets.add(source)
            break
    while queue:
        node, state, valuation = queue.popleft()
        for symbol, target_state in automaton.letters_from(state):
            for neighbour in index.targets(symbol, node):
                stepped = automaton.silent_closure(
                    {(target_state, valuation)}, values[neighbour], null_semantics
                )
                for next_state, next_valuation in stepped:
                    config = (neighbour, next_state, next_valuation)
                    if config in seen:
                        continue
                    seen.add(config)
                    if next_state in accepting:
                        targets.add(neighbour)
                    queue.append(config)
    return targets
