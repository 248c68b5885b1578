"""Dialect-generic phase kernels over product configuration spaces.

The seed evaluator ran one BFS over the (graph × automaton) product per
source node, re-deriving ε-closures and scanning every outgoing edge of a
node regardless of label.  This module replaces it with a three-phase
pass that is run **once** for the whole binary relation ``e(G)`` — and,
since PR 4, the phases are generic over any
:class:`~repro.engine.spaces.ProductSpace` (NFA product, register-
automaton product), so both automaton dialects share one kernel stack:

1. **Forward multi-source reachability** (:func:`forward_expand`) — one
   BFS from *all* seed configurations at once, over the label-indexed
   adjacency (only labels the control can actually read are followed).
2. **Backward pruning from accepting states** (:func:`backward_prune`) —
   a BFS over the reversed product from every reachable accepting
   configuration; configurations that cannot reach acceptance are
   *useless* and dropped before the expensive phase.  Only spaces with
   ``prune = True`` (the NFA product) support this; the others run
   phase 3 unpruned.
3. **Source-set propagation** (:func:`propagate_masks`) — a worklist
   fixpoint that annotates every useful configuration with the bitmask of
   source nodes that reach it.  Masks are Python integers, so unioning
   the source sets of thousands of configurations is a handful of
   word-parallel big-int ORs rather than per-source set manipulation.

The answer is read off the accepting configurations: ``(u, v) ∈ e(G)``
iff bit ``u`` is set on some accepting configuration sitting at ``v``
(:func:`decode_pairs` folds those masks per target node into a
:class:`~repro.engine.bitrelation.BitRelation` and decodes it once).

Each phase is exposed as a standalone kernel so the source-block
driver in :mod:`repro.engine.partition` can recompose them: the
propagation fixpoint is *linear* in its seeds (the mask reaching a
configuration is the union of the contributions of the individual
sources), so phase 3 can be split into independent source blocks
(:func:`source_block_relation`) and fanned out across worker pools.

:func:`full_relation` keeps the historical ``(index, automaton)``
signature for plain RPQs; :func:`product_relation` is the dialect-generic
composition.  No route runs the single-source BFS
(:func:`reachable_targets`): an RPQ point seeds the bit-row algebra at
its source (:meth:`repro.engine.engine.EvaluationEngine.evaluate_rpq_from`);
only :func:`witness_labels` still walks the NFA product from one source.

**Seeded evaluation** (:func:`seeded_product_relation`) is the semijoin
contract the CRPQ planner relies on: the same phases, but seeded only
from a restricted set of source nodes and/or pruned to a restricted set
of target nodes, so a later join atom explores only the part of the
product the already-bound variables can reach.  Restricting *sources*
shrinks phase 1 and the seed bits of phase 3; restricting *targets*
shrinks the accepting set phase 2 prunes back from (and, for
non-pruning spaces, the accepting configurations phase 4 decodes).
``seeded_product_relation(space)`` with no restriction *is*
:func:`product_relation`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..datagraph.compact import CompactLabelIndex
from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from . import compact as compact_kernels
from .bitrelation import BitRelation
from .compiled import CompiledAutomaton
from .spaces import NfaProductSpace, ProductSpace

__all__ = [
    "full_relation",
    "product_relation",
    "seeded_product_relation",
    "reachable_targets",
    "witness_labels",
    "initial_configs",
    "forward_expand",
    "backward_prune",
    "seed_masks",
    "propagate_masks",
    "decode_pairs",
    "source_block_relation",
]

Config = Tuple[NodeId, int]
Pair = Tuple[NodeId, NodeId]


# ----------------------------------------------------------------------
# Phase kernels (generic over a ProductSpace)
# ----------------------------------------------------------------------
def initial_configs(space: ProductSpace, nodes: Optional[Sequence[NodeId]] = None) -> Set:
    """The seed configurations of the given nodes (all index nodes by default)."""
    seeds: Set = set()
    for node in space.index.nodes if nodes is None else nodes:
        seeds.update(space.seed_configs(node))
    return seeds


def forward_expand(space: ProductSpace, seeds, adjacency=None) -> Set:
    """Phase 1: forward BFS over the product from *seeds* (which are included)."""
    if adjacency is None:
        adjacency = space.index
    successors = space.successors
    reachable: Set = set(seeds)
    queue: deque = deque(reachable)
    while queue:
        config = queue.popleft()
        for successor in successors(adjacency, config):
            if successor not in reachable:
                reachable.add(successor)
                queue.append(successor)
    return reachable


def backward_prune(
    space: ProductSpace, reachable: Set, adjacency=None, targets: Optional[Set[NodeId]] = None
) -> Set:
    """Phase 2: the subset of *reachable* that can still reach acceptance.

    Requires a space with ``prune = True`` (reversible expansion); the
    drivers skip this phase — and pass ``useful=None`` downstream — for
    spaces that only run forward.  With *targets* given, only acceptance
    at one of those nodes counts (the seeded-scan restriction), so every
    configuration that merely accepts elsewhere is pruned too.
    """
    if adjacency is None:
        adjacency = space.index
    predecessors = space.predecessors
    is_accepting = space.is_accepting
    node_of = space.node_of
    useful: Set = {
        config
        for config in reachable
        if is_accepting(config) and (targets is None or node_of(config) in targets)
    }
    queue: deque = deque(useful)
    while queue:
        config = queue.popleft()
        for predecessor in predecessors(adjacency, config):
            if predecessor in reachable and predecessor not in useful:
                useful.add(predecessor)
                queue.append(predecessor)
    return useful


def seed_masks(
    space: ProductSpace,
    useful: Optional[Set] = None,
    sources: Optional[Sequence[NodeId]] = None,
) -> Dict:
    """Initial ``config -> source bitmask`` seeds for phase 3.

    Bits are assigned under the *global* node ordering of the space's
    index, so masks produced from different source blocks can be
    OR-merged directly.  With *sources* given, only that block of source
    nodes contributes seed bits; with *useful* given, seeds at pruned
    configurations are dropped.
    """
    position = space.index.position
    seed_configs = space.seed_configs
    seeds: Dict = {}
    for node in space.index.nodes if sources is None else sources:
        bit = 1 << position[node]
        for config in seed_configs(node):
            if useful is not None and config not in useful:
                continue
            seeds[config] = seeds.get(config, 0) | bit
    return seeds


def propagate_masks(space: ProductSpace, seeds: Dict, useful: Optional[Set] = None) -> Dict:
    """Phase 3: propagate source bitmasks to a fixpoint.

    Starts from *seeds* and runs the worklist until no mask grows;
    restricting propagation to the *useful* set skips dead
    configurations.  Returns the ``config -> source bitmask`` table.
    """
    index = space.index
    successors = space.successors
    masks = dict(seeds)
    pending: deque = deque(masks)
    enqueued: Set = set(masks)
    # A configuration re-enters the worklist every time its mask grows;
    # memoising its successor list keeps re-pops to pure mask ORs (the
    # register product's expansion recomputes silent closures otherwise).
    expansions: Dict = {}
    while pending:
        config = pending.popleft()
        enqueued.discard(config)
        mask = masks[config]
        expanded = expansions.get(config)
        if expanded is None:
            expanded = expansions[config] = tuple(successors(index, config))
        for successor in expanded:
            if useful is not None and successor not in useful:
                continue
            known = masks.get(successor, 0)
            merged = known | mask
            if merged != known:
                masks[successor] = merged
                if successor not in enqueued:
                    enqueued.add(successor)
                    pending.append(successor)
    return masks


def decode_pairs(
    space: ProductSpace, masks: Dict, targets: Optional[Set[NodeId]] = None
) -> FrozenSet[Pair]:
    """Read the answer relation off the accepting configurations' masks.

    The masks are folded per target node and decoded by the one
    :class:`~repro.engine.bitrelation.BitRelation` decoder.  With
    *targets* given, only accepting configurations at those nodes count
    — how non-pruning spaces honour a seeded scan's target restriction.
    """
    index = space.index
    position = index.position
    is_accepting = space.is_accepting
    node_of = space.node_of
    rows: Dict[int, int] = {}
    for config, mask in masks.items():
        if not is_accepting(config):
            continue
        target = node_of(config)
        if targets is not None and target not in targets:
            continue
        at = position[target]
        rows[at] = rows.get(at, 0) | mask
    return BitRelation(index.nodes, position, rows).id_pairs()


def source_block_relation(
    space: ProductSpace,
    useful: Optional[Set],
    block: Sequence[NodeId],
    targets: Optional[Set[NodeId]] = None,
) -> FrozenSet[Pair]:
    """The answer pairs contributed by one block of source nodes.

    Runs the phase-3 fixpoint with seeds restricted to *block*; because
    propagation is linear in its seeds, the union of the block relations
    over any source partition equals :func:`product_relation`'s answer.
    Phases 1–2 are shared: the caller computes *useful* once (``None``
    for non-pruning spaces) and hands it to every block.  A seeded
    scan's *targets* restriction is applied at decode time (pruning
    spaces already folded it into *useful*).
    """
    seeds = seed_masks(space, useful=useful, sources=block)
    masks = propagate_masks(space, seeds, useful=useful)
    return decode_pairs(space, masks, targets=targets)


# ----------------------------------------------------------------------
# The sequential compositions
# ----------------------------------------------------------------------
def product_relation(space: ProductSpace) -> FrozenSet[Pair]:
    """All pairs ``(u, v)`` the product space connects — any dialect.

    Runs phases 1–2 only on spaces that support pruning; otherwise the
    propagation fixpoint explores exactly the forward-reachable
    configurations, which is what the per-source searches explored in
    total (shared, here, across all sources at once).
    """
    return seeded_product_relation(space)


def seeded_product_relation(
    space: ProductSpace,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> FrozenSet[Pair]:
    """The pairs of :func:`product_relation` restricted to bound endpoints.

    The semijoin kernel behind the CRPQ planner's seeded scans: with
    *sources* given, only those nodes are seeded, so phase 1 explores
    just the product reachable from the bound left-hand values and phase
    3 propagates only their bits; with *targets* given, pruning spaces
    restrict the phase-2 accepting set to those nodes and non-pruning
    spaces filter at decode time.  Equivalent to (but much cheaper than)
    ``{(u, v) ∈ product_relation(space) | u ∈ sources, v ∈ targets}``.
    """
    if not space.index.nodes:
        return frozenset()
    if sources is not None and not sources:
        return frozenset()
    if targets is not None and not targets:
        return frozenset()
    useful: Optional[Set] = None
    if space.prune:
        reachable = forward_expand(space, initial_configs(space, sources))
        useful = backward_prune(space, reachable, targets=targets)
        if not useful:
            return frozenset()
    seeds = seed_masks(space, useful=useful, sources=sources)
    masks = propagate_masks(space, seeds, useful=useful)
    return decode_pairs(space, masks, targets=targets)


def full_relation(
    index: Union[LabelIndex, CompactLabelIndex], automaton: CompiledAutomaton
) -> FrozenSet[Pair]:
    """All pairs ``(u, v)`` connected by a path accepted by *automaton*.

    The plain-RPQ entry point: :func:`product_relation` over the
    :class:`~repro.engine.spaces.NfaProductSpace`, or — handed the CSR
    :class:`~repro.datagraph.compact.CompactLabelIndex` twin — the
    int-id kernel directly.
    """
    if isinstance(index, CompactLabelIndex):
        return compact_kernels.nfa_relation(index, automaton).id_pairs()
    return product_relation(NfaProductSpace(index, automaton))


def reachable_targets(
    index: Union[LabelIndex, CompactLabelIndex],
    automaton: CompiledAutomaton,
    source: NodeId,
    stop_at: Optional[NodeId] = None,
) -> Set[NodeId]:
    """Nodes ``v`` with ``(source, v)`` in the relation (early exit on *stop_at*).

    No route runs it (an RPQ point is the seeded bit-row algebra); kept
    only because the frozen e2e tracer resolves it by name, it goes with
    that tracer row.
    """
    if isinstance(index, CompactLabelIndex):
        return compact_kernels.nfa_reachable_targets(index, automaton, source, stop_at)
    accepting = automaton.accepting
    moves = automaton.moves
    seen: Set[Config] = set()
    queue: deque = deque()
    targets: Set[NodeId] = set()
    for state in automaton.initial:
        config = (source, state)
        seen.add(config)
        queue.append(config)
        if state in accepting:
            targets.add(source)
            if stop_at is not None and source == stop_at:
                return targets
    while queue:
        node, state = queue.popleft()
        for symbol, next_states in moves[state]:
            neighbours = index.targets(symbol, node)
            for neighbour in neighbours:
                for next_state in next_states:
                    config = (neighbour, next_state)
                    if config in seen:
                        continue
                    seen.add(config)
                    if next_state in accepting:
                        targets.add(neighbour)
                        if stop_at is not None and neighbour == stop_at:
                            return targets
                    queue.append(config)
    return targets


def witness_labels(
    index: LabelIndex, automaton: CompiledAutomaton, source: NodeId, target: NodeId
) -> Optional[Tuple[str, ...]]:
    """The label sequence of a shortest witnessing path, or ``None``.

    BFS over the product with parent pointers; used for explanations and
    for tests that need the product construction to exhibit a real path.
    """
    accepting = automaton.accepting
    moves = automaton.moves
    parents: Dict[Config, Tuple[Optional[Config], Optional[str]]] = {}
    queue: deque = deque()
    for state in automaton.initial:
        config = (source, state)
        parents[config] = (None, None)
        queue.append(config)
        if source == target and state in accepting:
            return ()

    def reconstruct(config: Config) -> Tuple[str, ...]:
        labels: List[str] = []
        cursor: Optional[Config] = config
        while cursor is not None:
            parent, label = parents[cursor]
            if label is not None:
                labels.append(label)
            cursor = parent
        return tuple(reversed(labels))

    while queue:
        node, state = queue.popleft()
        for symbol, next_states in moves[state]:
            neighbours = index.targets(symbol, node)
            for neighbour in neighbours:
                for next_state in next_states:
                    config = (neighbour, next_state)
                    if config in parents:
                        continue
                    parents[config] = ((node, state), symbol)
                    if neighbour == target and next_state in accepting:
                        return reconstruct(config)
                    queue.append(config)
    return None
