"""Int-id evaluation kernels over the compact CSR storage backend.

These are the :mod:`repro.engine.product` phase kernels re-expressed on
a :class:`~repro.datagraph.compact.CompactLabelIndex`: a product
configuration is the single integer ``node_int * S + state`` instead of
a hashed ``(NodeId, state)`` tuple, visited/useful sets are
``bytearray``s indexed by that integer, frontiers are plain lists, and
adjacency expansion walks ``array('q')`` CSR rows.  Source bitmasks keep
the exact semantics of the dict kernels (bit ``i`` is the node at index
``i`` of the shared dense ordering), so the two backends produce
bit-identical answer sets; mask tables are flat lists indexed by
configuration with a ``touched`` journal.  Every relation kernel hands
back a :class:`~repro.engine.bitrelation.BitRelation` — the accepting
configurations' masks folded per target node, target restriction
included — and leaves decoding to its caller, so an answer is
materialised once, in the shape (ids or ``Node`` objects) it is needed.

The per-state transition **plans** — ``plans[state]`` is a list of
``(offsets, neighbors, next_states)`` triples, one per symbol the state
can read that actually has edges — are the compact analogue of binding
``space.successors`` to an adjacency: the inner loop is pure array
indexing with no per-edge symbol lookup.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datagraph.compact import CompactLabelIndex
from ..datagraph.node import NodeId
from ..datapaths.register_automata import RegisterAutomaton, RegisterStepper
from .bitrelation import BitRelation
from .compiled import CompiledAutomaton

__all__ = [
    "nfa_relation",
    "nfa_reachable_targets",
    "closure_relation",
    "register_relation",
]

# ----------------------------------------------------------------------
# Plan construction: automaton moves bound to CSR rows
# ----------------------------------------------------------------------
def _forward_plans(
    compact: CompactLabelIndex, automaton: CompiledAutomaton
) -> List[List[Tuple[Sequence[int], Sequence[int], Tuple[int, ...]]]]:
    plans: List[List[Tuple[Sequence[int], Sequence[int], Tuple[int, ...]]]] = []
    for by_symbol in automaton.moves:
        entries = []
        for symbol, next_states in by_symbol:
            row = compact.csr(symbol)
            if row is not None:
                entries.append((row[0], row[1], next_states))
        plans.append(entries)
    return plans


def _backward_plans(
    compact: CompactLabelIndex, automaton: CompiledAutomaton
) -> List[List[Tuple[Sequence[int], Sequence[int], Tuple[int, ...]]]]:
    plans: List[List[Tuple[Sequence[int], Sequence[int], Tuple[int, ...]]]] = []
    for by_symbol in automaton.backward_moves:
        entries = []
        for symbol, previous_states in by_symbol:
            row = compact.csr_t(symbol)
            if row is not None:
                entries.append((row[0], row[1], previous_states))
        plans.append(entries)
    return plans


def _relation(compact: CompactLabelIndex, rows: Dict[int, int]) -> BitRelation:
    return BitRelation(compact.nodes, compact.position, rows)


def _state_flags(S: int, states: Iterable[int]) -> bytearray:
    """One flag per automaton state: whether it is among *states*."""
    flags = bytearray(S)
    for state in states:
        flags[state] = 1
    return flags


def _accepting_rows(
    masks: Iterable[Tuple[int, int]], S: int, accepting: bytearray
) -> Dict[int, int]:
    """Fold ``(node * S + state, mask)`` entries into per-node rows,
    keeping the accepting states' masks only."""
    rows: Dict[int, int] = {}
    for config, mask in masks:
        if accepting[config % S]:
            node = config // S
            rows[node] = rows.get(node, 0) | mask
    return rows


def _source_ints(
    compact: CompactLabelIndex, sources: Optional[Sequence[NodeId]]
) -> Sequence[int]:
    if sources is None:
        return range(compact.num_nodes)
    position = compact.position
    out = []
    for node_id in sources:
        u = position.get(node_id)
        if u is not None:
            out.append(u)
    return out


def _target_flags(compact: CompactLabelIndex, targets: Iterable[NodeId]) -> bytearray:
    """One flag per int node: whether it is among *targets*."""
    flags = bytearray(compact.num_nodes)
    position = compact.position
    for node_id in targets:
        u = position.get(node_id)
        if u is not None:
            flags[u] = 1
    return flags


# ----------------------------------------------------------------------
# The NFA product kernel (plain RPQs): full and seeded
# ----------------------------------------------------------------------
def nfa_relation(
    compact: CompactLabelIndex,
    automaton: CompiledAutomaton,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Iterable[NodeId]] = None,
) -> BitRelation:
    """All ``(u, v)`` pairs accepted by *automaton*, on int-id arrays.

    The same three phases as the dict kernel — forward reach, backward
    prune (with a *targets* restriction folded into the useful set),
    bitmask propagation — each over flat arrays.  Decodes bit-identical
    to ``seeded_product_relation(NfaProductSpace(index, automaton), ...)``.
    No route runs it: the bit-row algebra
    (:func:`repro.engine.data.ree_relation`) answers every sequential
    RPQ.  Kept as the baseline the ``bench_compact_rpq_nfa_kernel`` CI
    gate measures the algebra against, and as the rows the tests hold the
    algebra's to.
    """
    n = compact.num_nodes
    empty = _relation(compact, {})
    if n == 0:
        return empty
    src_ints = _source_ints(compact, sources)
    if not src_ints:
        return empty
    target_flags: Optional[bytearray] = None
    if targets is not None:
        target_flags = _target_flags(compact, targets)
        if not any(target_flags):
            return empty
    S = automaton.num_states
    initial = automaton.initial
    accepting = _state_flags(S, automaton.accepting)
    forward = _forward_plans(compact, automaton)

    # Phase 1: forward reachability over the product, LIFO order (the
    # set of reached configurations is order-independent).
    visited = bytearray(n * S)
    stack: List[int] = []
    for u in src_ints:
        for state in initial:
            config = u * S + state
            if not visited[config]:
                visited[config] = 1
                stack.append(config)
    while stack:
        config = stack.pop()
        u, state = divmod(config, S)
        for offsets, neighbors, next_states in forward[state]:
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                base = v * S
                for next_state in next_states:
                    successor = base + next_state
                    if not visited[successor]:
                        visited[successor] = 1
                        stack.append(successor)

    # Phase 2: keep only configurations that can still reach acceptance
    # (at a restricted target node, when given).
    backward = _backward_plans(compact, automaton)
    useful = bytearray(n * S)
    stack = []
    for config in range(n * S):
        if visited[config] and accepting[config % S]:
            if target_flags is None or target_flags[config // S]:
                useful[config] = 1
                stack.append(config)
    if not stack:
        return empty
    while stack:
        config = stack.pop()
        u, state = divmod(config, S)
        for offsets, neighbors, previous_states in backward[state]:
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                base = v * S
                for previous_state in previous_states:
                    predecessor = base + previous_state
                    if visited[predecessor] and not useful[predecessor]:
                        useful[predecessor] = 1
                        stack.append(predecessor)

    # Phase 3: propagate source bitmasks to a fixpoint over the useful
    # configurations.  FIFO order converges in near-level-order rounds
    # (LIFO chases long chains with partial masks and revisits far more
    # on dense closures), and each configuration's useful successors are
    # memoised on first pop so revisits are pure big-int ORs.
    masks: List[int] = [0] * (n * S)
    touched: List[int] = []
    in_queue = bytearray(n * S)
    pending: List[int] = []
    expansions: List[Optional[Tuple[int, ...]]] = [None] * (n * S)
    for u in src_ints:
        bit = 1 << u
        for state in initial:
            config = u * S + state
            if useful[config]:
                if not masks[config]:
                    touched.append(config)
                masks[config] |= bit
                if not in_queue[config]:
                    in_queue[config] = 1
                    pending.append(config)
    head = 0
    while head < len(pending):
        config = pending[head]
        head += 1
        in_queue[config] = 0
        mask = masks[config]
        expanded = expansions[config]
        if expanded is None:
            u, state = divmod(config, S)
            out: List[int] = []
            for offsets, neighbors, next_states in forward[state]:
                for v in neighbors[offsets[u] : offsets[u + 1]]:
                    base = v * S
                    for next_state in next_states:
                        successor = base + next_state
                        if useful[successor]:
                            out.append(successor)
            expanded = expansions[config] = tuple(out)
        for successor in expanded:
            known = masks[successor]
            merged = known | mask
            if merged != known:
                if not known:
                    touched.append(successor)
                masks[successor] = merged
                if not in_queue[successor]:
                    in_queue[successor] = 1
                    pending.append(successor)

    # Accepting configurations' masks name the sources; the target
    # restriction was already folded into the useful set.
    reached = zip(touched, map(masks.__getitem__, touched))
    return _relation(compact, _accepting_rows(reached, S, accepting))


def nfa_reachable_targets(
    compact: CompactLabelIndex,
    automaton: CompiledAutomaton,
    source: NodeId,
    stop_at: Optional[NodeId] = None,
) -> Set[NodeId]:
    """Nodes ``v`` with ``(source, v)`` accepted (early exit on *stop_at*).

    The CSR twin of :func:`repro.engine.product.reachable_targets`.  No
    route runs it (an RPQ point is the seeded bit-row algebra); kept only
    because the frozen e2e tracer resolves it by name, it goes with that
    tracer row — once ``engine.compact.point_ms`` is bound to
    ``GraphSession.targets`` instead, where point time now lands in
    ``engine.data.ree_ms``.
    """
    position = compact.position
    start = position.get(source)
    if start is None:
        return set()
    stop = position.get(stop_at) if stop_at is not None else None
    n = compact.num_nodes
    S = automaton.num_states
    accepting = _state_flags(S, automaton.accepting)
    forward = _forward_plans(compact, automaton)
    nodes = compact.nodes
    visited = bytearray(n * S)
    found = bytearray(n)
    targets: Set[NodeId] = set()
    queue: List[int] = []
    for state in automaton.initial:
        config = start * S + state
        if not visited[config]:
            visited[config] = 1
            queue.append(config)
        if accepting[state] and not found[start]:
            found[start] = 1
            targets.add(source)
            if stop is not None and start == stop:
                return targets
    head = 0
    while head < len(queue):
        config = queue[head]
        head += 1
        u, state = divmod(config, S)
        for offsets, neighbors, next_states in forward[state]:
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                base = v * S
                for next_state in next_states:
                    successor = base + next_state
                    if visited[successor]:
                        continue
                    visited[successor] = 1
                    if accepting[next_state] and not found[v]:
                        found[v] = 1
                        targets.add(nodes[v])
                        if stop is not None and v == stop:
                            return targets
                    queue.append(successor)
    return targets


# ----------------------------------------------------------------------
# The closure kernel (one label's a* / a-*)
# ----------------------------------------------------------------------
def closure_relation(compact: CompactLabelIndex, label: str, inverse: bool = False) -> BitRelation:
    """The reflexive-transitive closure of one label's edge relation.

    Configurations degenerate to bare int nodes (``S = 1``): the mask
    list over nodes *is* the row table and every configuration accepts,
    so ``(u, u)`` pairs are included.  No route runs it (GXPath's ``a*``
    is the bit-row algebra's closure); kept only because the frozen e2e
    tracer resolves it by name, it goes with that tracer row.
    """
    n = compact.num_nodes
    masks = [1 << u for u in range(n)]
    row = compact.csr_t(label) if inverse else compact.csr(label)
    if row is not None:
        offsets, neighbors = row
        pending, in_queue = list(range(n)), bytearray(b"\x01" * n)
        head = 0
        while head < len(pending):
            u = pending[head]
            head += 1
            in_queue[u] = 0
            mask = masks[u]
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                merged = masks[v] | mask
                if merged != masks[v]:
                    masks[v] = merged
                    if not in_queue[v]:
                        in_queue[v] = 1
                        pending.append(v)
    return _relation(compact, dict(enumerate(masks)))


# ----------------------------------------------------------------------
# The register-automaton kernel (memory RPQs / translated REEs)
# ----------------------------------------------------------------------
def register_relation(
    compact: CompactLabelIndex,
    automaton: RegisterAutomaton,
    null_semantics: bool = False,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Iterable[NodeId]] = None,
) -> BitRelation:
    """The data-RPQ relation by mask propagation over int configurations.

    A :class:`~repro.datapaths.register_automata.RegisterStepper` built
    for this call interns each ``(state, valuation)`` pair to a dense int
    ``sv`` and memoises silent closures per data value, so a
    configuration is the single int ``sv * n + node``: mask, expansion
    and queue tables are int-keyed, adjacency expansion walks CSR rows
    grouped per state and symbol, and the value a step lands on is named
    by the index's value-id column instead of being hashed.  Pruning is
    unavailable (valuations do not reverse), matching the dict-backed
    :class:`~repro.engine.spaces.RegisterProductSpace`.
    """
    n = compact.num_nodes
    if n == 0:
        return _relation(compact, {})
    src_ints = _source_ints(compact, sources)
    if not src_ints:
        return _relation(compact, {})
    values = compact.values
    value_ids = compact.value_ids
    stepper = RegisterStepper(automaton, null_semantics)
    states = stepper.states
    step = stepper.step
    # Letter transitions bound to CSR rows, indexed by source state.
    letters: List[List[Tuple[Sequence[int], Sequence[int], int]]] = []
    for state in range(automaton.num_states):
        rows = []
        for symbol, target_state in automaton.letters_from(state):
            row = compact.csr(symbol)
            if row is not None:
                rows.append((row[0], row[1], target_state))
        letters.append(rows)
    masks: Dict[int, int] = {}
    pending: List[int] = []
    in_queue: Set[int] = set()
    for u in src_ints:
        bit = 1 << u
        for sv in stepper.initial(values[u], value_ids[u]):
            config = sv * n + u
            masks[config] = masks.get(config, 0) | bit
            if config not in in_queue:
                in_queue.add(config)
                pending.append(config)
    expansions: Dict[int, Tuple[int, ...]] = {}
    head = 0
    while head < len(pending):
        config = pending[head]
        head += 1
        in_queue.discard(config)
        mask = masks[config]
        expanded = expansions.get(config)
        if expanded is None:
            sv, u = divmod(config, n)
            out = []
            for offsets, neighbors, target_state in letters[states[sv]]:
                for v in neighbors[offsets[u] : offsets[u + 1]]:
                    for next_sv in step(sv, target_state, values[v], value_ids[v]):
                        out.append(next_sv * n + v)
            expanded = expansions[config] = tuple(out)
        for successor in expanded:
            known = masks.get(successor, 0)
            merged = known | mask
            if merged != known:
                masks[successor] = merged
                if successor not in in_queue:
                    in_queue.add(successor)
                    pending.append(successor)
    target_flags = None if targets is None else _target_flags(compact, targets)
    accepting = automaton.accepting
    accepting_sv = [state in accepting for state in states]
    rows: Dict[int, int] = {}
    for config, mask in masks.items():
        sv, u = divmod(config, n)
        if accepting_sv[sv] and (target_flags is None or target_flags[u]):
            rows[u] = rows.get(u, 0) | mask
    return _relation(compact, rows)

