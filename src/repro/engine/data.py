"""Index-driven evaluation kernels for data RPQs (REE and REM).

These are the engine-side counterparts of the two evaluation strategies
described in :mod:`repro.query.data_rpq_eval`:

* the bottom-up relational algebra for equality RPQs (REE), and
* the register-automaton × graph product for memory RPQs (REM).

The REE algebra produces bit rows over either index type
(:class:`~repro.datagraph.index.LabelIndex` or its CSR twin) and hands
back a :class:`~repro.engine.bitrelation.BitRelation`; the register
entry points here work over a ``LabelIndex`` on plain node ids (int-id
twin: :func:`repro.engine.compact.register_relation`).  The
:class:`~repro.engine.engine.EvaluationEngine` translates to
:class:`~repro.datagraph.node.Node` pairs at the boundary.
Automaton compilation (``compile_rem``, the REE→REM translation) is
cached by the :class:`~repro.engine.engine.EvaluationEngine`, so repeated
evaluation of one query over many graphs — the shape of the adversarial
certain-answer loops — compiles exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Set, Tuple, Union

from ..datagraph.compact import CompactLabelIndex
from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
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
from .bitrelation import BitRelation
from .spaces import RegisterProductSpace

__all__ = [
    "ree_relation",
    "register_automaton_relation",
    "register_automaton_relation_per_source",
]

IdPair = Tuple[NodeId, NodeId]
#: One sub-expression's relation: ``target position -> source bitmask``.
Rows = Dict[int, int]


# ----------------------------------------------------------------------
# Bottom-up relational algebra for REE, on bit rows
# ----------------------------------------------------------------------
def ree_relation(
    index: Union[LabelIndex, CompactLabelIndex],
    expression: RegexWithEquality,
    null_semantics: bool = False,
) -> BitRelation:
    """The relation of an equality RPQ, computed bottom-up on bit rows.

    Every sub-expression denotes ``{target position: source bitmask}``
    rows over *index*'s dense ordering (either index type: the algebra
    reads only the ordering, the value classes and per-label predecessor
    lists), evaluated once per *structurally* distinct sub-expression.
    """
    same, nulls = index.value_classes
    dead = nulls if null_semantics else 0  # positions no comparison is true at
    positions = range(len(index.nodes))
    memo: Dict[RegexWithEquality, Rows] = {}

    def relation(rows: Rows) -> BitRelation:
        return BitRelation(index.nodes, index.position, rows)

    def evaluate(expr: RegexWithEquality) -> Rows:
        rows = memo.get(expr)
        if rows is not None:
            return rows
        if isinstance(expr, ReeEpsilon):
            rows = {v: 1 << v for v in positions}
        elif isinstance(expr, ReeLetter):
            rows = _letter_rows(index, expr.symbol)
        elif isinstance(expr, ReeConcat):
            rows = _compose(evaluate(expr.left), evaluate(expr.right), positions)
        elif isinstance(expr, ReeUnion):
            rows = relation(evaluate(expr.left)).union(relation(evaluate(expr.right))).rows
        elif isinstance(expr, ReePlus):
            rows = _closure(evaluate(expr.inner), positions)
        elif isinstance(expr, (ReeEqualTest, ReeNotEqualTest)):
            # One AND per row with the class of the target's value (a
            # target holding the null compares with nothing).
            want_equal = isinstance(expr, ReeEqualTest)
            rows = {}
            for v, mask in evaluate(expr.inner).items():
                equal = same[v]
                mask &= equal if want_equal else ~(equal | dead)
                if mask and not equal & dead:
                    rows[v] = mask
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unknown REE node {expr!r}")
        memo[expr] = rows
        return rows

    return relation(evaluate(expression))


def _letter_rows(index: Union[LabelIndex, CompactLabelIndex], label: str) -> Rows:
    """One label's edges: per target, the OR of its predecessors' bits —
    off the transposed CSR rows, or the dict index's predecessor map
    sent through ``position``."""
    if isinstance(index, CompactLabelIndex):
        row = index.csr_t(label)
        if row is None:
            return {}
        offsets, neighbors = row
        lists = ((v, neighbors[offsets[v] : offsets[v + 1]]) for v in range(index.num_nodes))
    else:
        at = index.position.__getitem__
        lists = ((at(v), map(at, sources)) for v, sources in index.predecessors(label).items())
    rows: Rows = {}
    for v, sources in lists:
        mask = 0
        for u in sources:
            mask |= 1 << u
        if mask:
            rows[v] = mask
    return rows


def _compose(left: Rows, right: Rows, positions: range) -> Rows:
    """``(u, v)`` whenever ``(u, m)`` is in *left* and ``(m, v)`` in
    *right*: OR *left*'s rows over the members of each *right* row, once
    per distinct row."""
    by_middles: Dict[int, int] = {}
    rows: Rows = {}
    for v, middles in right.items():
        mask = by_middles.get(middles)
        if mask is None:
            mask = 0
            for m in BitRelation.members(middles, positions):
                mask |= left.get(m, 0)
            by_middles[middles] = mask
        if mask:
            rows[v] = mask
    return rows


def _closure(inner: Rows, positions: range) -> Rows:
    """The transitive closure of *inner*: the FIFO mask propagation of
    :func:`repro.engine.compact.closure_relation` along *inner*'s own
    pairs, started from its rows (one or more steps), not the identity."""
    successors: Dict[int, List[int]] = {}
    for v, mask in inner.items():
        for u in BitRelation.members(mask, positions):
            if u in inner:  # only a node with sources has any to pass on
                successors.setdefault(u, []).append(v)
    rows = dict(inner)
    pending = list(successors)
    in_queue = set(pending)
    head = 0
    while head < len(pending):
        u = pending[head]
        head += 1
        in_queue.discard(u)
        mask = rows[u]
        for v in successors[u]:
            merged = rows[v] | mask
            if merged != rows[v]:
                rows[v] = merged
                if v in successors and v not in in_queue:
                    in_queue.add(v)
                    pending.append(v)
    return rows


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
