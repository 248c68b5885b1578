"""Partitioned evaluation: source-block parallelism and sharded scatter/gather.

Two independent ways to split one product-relation pass across more
hardware, both built from the phase kernels of :mod:`repro.engine.product`
and both **generic over any** :class:`~repro.engine.spaces.ProductSpace`
— plain RPQs and register-automaton data RPQs ride the same drivers
(GXPath runs on bit rows, sequentially, and takes neither):

* **Source-block parallelism** (:func:`parallel_product_relation`) keeps
  one copy of the graph but splits the phase-3 bitmask propagation
  fixpoint — which dominates full-relation evaluation — into independent
  blocks of source nodes.  For pruning spaces, phases 1–2 (forward
  reachability + backward prune) run once in the caller; each worker then
  propagates only its block's seed bits and the per-block answer pairs
  are unioned.  The ``"fork"`` backend ships the space (graph index,
  compiled control) to workers by copy-on-write, which is what actually
  buys CPU parallelism under the GIL; the ``"thread"`` backend exists for
  platforms without ``fork``.

* **Sharded scatter/gather** (:class:`GraphPartition` +
  :func:`sharded_product_relation`) is the seam toward multi-machine
  evaluation: an edge-cut partition assigns every node to a shard, each
  shard holds a shard-local adjacency view (:class:`ShardView`,
  duck-typed to the ``targets`` interface the kernels need), and a driver
  iterates rounds of shard-local mask propagation followed by cross-shard
  frontier exchange over the cut edges until no shard learns a new source
  bit.  Bit positions come from the *global* node ordering, so gathering
  is a union of the shards' accepting masks.  When ``fork`` is available
  the driver forks **one persistent worker pool per invocation** through
  the shared :class:`~repro.engine.forkpool.ForkPool`: shards are
  assigned to workers round-robin, each worker keeps its shards' mask
  tables in its own process across frontier rounds, and only the round's
  inbox/outbox messages are pickled either way (the final decode happens
  worker-side too, so the full mask tables never cross the pipe).  The
  in-process loop remains as the degradation path (and the right choice
  for small graphs, where even a one-time pool cannot amortise) —
  answers are identical either way.

Both drivers also run **seeded** (``sources`` / ``targets`` restricted)
evaluation — see :func:`repro.engine.product.seeded_product_relation` —
which is how the CRPQ planner's per-atom semijoin scans inherit
intra-query parallelism without any planner-specific driver code.

:func:`parallel_full_relation` and :func:`sharded_full_relation` keep the
historical ``(index, automaton)`` signatures for plain RPQs.  Equivalence
across drivers and dialects is pinned by ``tests/engine/test_partition.py``
/ ``tests/engine/test_spaces.py``, and the ``bench_intraquery_parallel``
CI gate keeps the parallel path from regressing below sequential.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..exceptions import EvaluationError
from .compiled import CompiledAutomaton
from .forkpool import ForkPool, fork_available, run_forked
from . import product
from .product import Pair
from .spaces import NfaProductSpace, ProductSpace

__all__ = [
    "ShardView",
    "GraphPartition",
    "split_blocks",
    "parallel_product_relation",
    "parallel_full_relation",
    "sharded_product_relation",
    "sharded_full_relation",
    "partitioned_product_relation",
]

#: Empty adjacency used for labels a shard has no local/cut edges for.
_EMPTY_ADJACENCY: Mapping[NodeId, Tuple[NodeId, ...]] = {}

#: Below this many nodes the sharded driver's ``processes=None`` default
#: stays in-process: forking even one worker pool cannot amortise on
#: small work.
PROCESS_SHARDS_MIN_NODES = 512


# ----------------------------------------------------------------------
# Source-block parallelism
# ----------------------------------------------------------------------
def split_blocks(nodes: Sequence[NodeId], num_blocks: int) -> List[Tuple[NodeId, ...]]:
    """Split *nodes* into at most *num_blocks* contiguous, near-equal blocks.

    Every node lands in exactly one block and no block is empty (fewer
    blocks are returned when there are fewer nodes than requested).
    """
    if num_blocks < 1:
        raise EvaluationError(f"num_blocks must be positive, got {num_blocks}")
    count = len(nodes)
    num_blocks = min(num_blocks, count)
    if num_blocks <= 1:
        return [tuple(nodes)] if count else []
    size, extra = divmod(count, num_blocks)
    blocks: List[Tuple[NodeId, ...]] = []
    start = 0
    for block_index in range(num_blocks):
        end = start + size + (1 if block_index < extra else 0)
        blocks.append(tuple(nodes[start:end]))
        start = end
    return blocks


def _block_worker(state, block_index: int) -> Set[Pair]:
    """Forked worker: one source block's relation (state arrives by fork)."""
    space, useful, blocks, targets = state
    return product.source_block_relation(space, useful, blocks[block_index], targets=targets)


def parallel_product_relation(
    space: ProductSpace,
    num_blocks: Optional[int] = None,
    backend: str = "auto",
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> Set[Pair]:
    """``product_relation`` with the phase-3 fixpoint fanned out over source blocks.

    Works for any :class:`ProductSpace`: pruning spaces share the
    forward/backward phases across all blocks; non-pruning spaces (the
    register product) hand every block an unpruned fixpoint.
    With *sources* / *targets* given this is the driver-parallel form of
    :func:`~repro.engine.product.seeded_product_relation`: the blocks are
    cut from the bound source set only, so a CRPQ seeded scan fans its
    semijoin out over the same worker pool as a full relation.

    Parameters
    ----------
    num_blocks:
        Number of source blocks (and workers); defaults to the CPU count
        capped at 8.
    backend:
        ``"fork"``, ``"thread"``, or ``"auto"`` (fork when available).
    sources / targets:
        Optional endpoint restrictions (seeded evaluation); ``None``
        means unrestricted.
    """
    if backend not in {"auto", "fork", "thread"}:
        raise EvaluationError(f"unknown intra-query backend {backend!r}")
    nodes = space.index.nodes if sources is None else tuple(sources)
    if not nodes:
        return set()
    if targets is not None:
        if not targets:
            return set()
        targets = set(targets)
    useful: Optional[Set] = None
    if space.prune:
        reachable = product.forward_expand(space, product.initial_configs(space, sources))
        useful = product.backward_prune(space, reachable, targets=targets)
        if not useful:
            return set()
    workers = num_blocks if num_blocks is not None else min(os.cpu_count() or 1, 8)
    if workers < 1:
        raise EvaluationError(f"num_blocks must be positive, got {workers}")
    blocks = split_blocks(nodes, workers)
    if len(blocks) <= 1:
        return product.source_block_relation(space, useful, nodes, targets=targets)
    if backend == "auto":
        backend = "fork" if fork_available() else "thread"
    if backend == "fork" and fork_available():
        partials = run_forked((space, useful, blocks, targets), _block_worker, len(blocks))
        return set().union(*partials)
    with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
        partials = pool.map(
            lambda block: product.source_block_relation(space, useful, block, targets=targets),
            blocks,
        )
        return set().union(*partials)


def parallel_full_relation(
    index: LabelIndex,
    automaton: CompiledAutomaton,
    num_blocks: Optional[int] = None,
    backend: str = "auto",
) -> Set[Pair]:
    """The plain-RPQ entry point: source-block parallelism over the NFA product."""
    return parallel_product_relation(
        NfaProductSpace(index, automaton), num_blocks=num_blocks, backend=backend
    )


# ----------------------------------------------------------------------
# Edge-cut partitions and shard-local views
# ----------------------------------------------------------------------
class ShardView:
    """A shard-local adjacency view over one block of an edge-cut partition.

    Duck-types the ``targets`` interface of
    :class:`~repro.datagraph.index.LabelIndex`, returning only edges whose
    *both* endpoints live in the shard, so the product kernels run on a
    shard unchanged and simply stop at the boundary.  Cut edges (local
    source, remote target) are kept separately for the driver's
    frontier-exchange scan.
    """

    __slots__ = ("shard_id", "nodes", "_succ", "_cut")

    def __init__(
        self,
        shard_id: int,
        nodes: Tuple[NodeId, ...],
        succ: Dict[str, Dict[NodeId, Tuple[NodeId, ...]]],
        cut: Dict[str, Dict[NodeId, Tuple[NodeId, ...]]],
    ):
        self.shard_id = shard_id
        self.nodes = nodes
        self._succ = succ
        self._cut = cut

    def targets(self, label: str, source: NodeId) -> Tuple[NodeId, ...]:
        """Shard-local targets of *source* along *label*."""
        return self._succ.get(label, _EMPTY_ADJACENCY).get(source, ())

    def cut_targets(self, label: str, source: NodeId) -> Tuple[NodeId, ...]:
        """Targets of *source* along *label* owned by **other** shards."""
        return self._cut.get(label, _EMPTY_ADJACENCY).get(source, ())

    @property
    def num_cut_edges(self) -> int:
        """Number of outgoing edges of this shard crossing the cut."""
        return sum(len(targets) for by_node in self._cut.values() for targets in by_node.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardView {self.shard_id}: {len(self.nodes)} nodes, "
            f"{self.num_cut_edges} cut edges>"
        )


class _CutView:
    """The cut edges of a shard, presented through the ``targets`` interface.

    Handing this view to :meth:`ProductSpace.successors` makes frontier
    exchange dialect-generic: whatever configurations the space reaches
    over a cut edge are exactly the messages to route to the owning
    shard, with no per-dialect exchange code.
    """

    __slots__ = ("_shard",)

    def __init__(self, shard: ShardView):
        self._shard = shard

    def targets(self, label: str, source: NodeId) -> Tuple[NodeId, ...]:
        return self._shard.cut_targets(label, source)


class GraphPartition:
    """An edge-cut partition of a label-indexed graph into shards.

    Planning (this class) is separated from execution
    (:func:`sharded_product_relation`): a partition assigns every node to
    a shard and materialises one :class:`ShardView` per shard, with
    cross-shard edges recorded as frontier-exchange boundaries.  The
    partition is built against one :class:`LabelIndex` snapshot and
    remembers its ``version``, so stale partitions are detectable the
    same way stale indexes are.
    """

    __slots__ = ("version", "num_shards", "assignment", "shards")

    def __init__(self, index: LabelIndex, assignment: Dict[NodeId, int], num_shards: int):
        if num_shards < 1:
            raise EvaluationError(f"a partition needs at least one shard, got {num_shards}")
        missing = [node for node in index.nodes if node not in assignment]
        if missing:
            raise EvaluationError(f"partition assignment misses {len(missing)} node(s)")
        self.version = index.version
        self.num_shards = num_shards
        self.assignment = assignment
        members: List[List[NodeId]] = [[] for _ in range(num_shards)]
        for node in index.nodes:
            shard = assignment[node]
            if not 0 <= shard < num_shards:
                raise EvaluationError(f"node {node!r} assigned to invalid shard {shard}")
            members[shard].append(node)
        local: List[Dict[str, Dict[NodeId, Tuple[NodeId, ...]]]] = [{} for _ in range(num_shards)]
        cut: List[Dict[str, Dict[NodeId, Tuple[NodeId, ...]]]] = [{} for _ in range(num_shards)]
        for label in index.edge_labels():
            for source, targets in index.successors(label).items():
                shard = assignment[source]
                mine = tuple(target for target in targets if assignment[target] == shard)
                theirs = tuple(target for target in targets if assignment[target] != shard)
                if mine:
                    local[shard].setdefault(label, {})[source] = mine
                if theirs:
                    cut[shard].setdefault(label, {})[source] = theirs
        self.shards: Tuple[ShardView, ...] = tuple(
            ShardView(shard_id, tuple(members[shard_id]), local[shard_id], cut[shard_id])
            for shard_id in range(num_shards)
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, index: LabelIndex, num_shards: int, strategy: str = "contiguous"
    ) -> "GraphPartition":
        """Partition *index* into *num_shards* shards.

        ``"contiguous"`` slices the index's node order into equal blocks —
        the right default when related nodes are added together (e.g. the
        community generators); ``"hash"`` scatters nodes by hash, a
        worst-case cut useful for stress-testing the frontier exchange.
        """
        if num_shards < 1:
            raise EvaluationError(f"a partition needs at least one shard, got {num_shards}")
        nodes = index.nodes
        assignment: Dict[NodeId, int] = {}
        if strategy == "contiguous":
            for shard_id, block in enumerate(split_blocks(nodes, num_shards)):
                for node in block:
                    assignment[node] = shard_id
        elif strategy == "hash":
            for node in nodes:
                assignment[node] = hash(node) % num_shards
        else:
            raise EvaluationError(
                f"unknown partition strategy {strategy!r}; expected 'contiguous' or 'hash'"
            )
        return cls(index, assignment, num_shards)

    def owner(self, node: NodeId) -> int:
        """The shard a node is assigned to."""
        return self.assignment[node]

    @property
    def cut_edge_count(self) -> int:
        """Total number of edges crossing shard boundaries."""
        return sum(shard.num_cut_edges for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "/".join(str(len(shard.nodes)) for shard in self.shards)
        return (
            f"<GraphPartition v{self.version}: {self.num_shards} shards ({sizes} nodes), "
            f"{self.cut_edge_count} cut edges>"
        )


# ----------------------------------------------------------------------
# Sharded scatter/gather driver
# ----------------------------------------------------------------------
def _shard_round(
    space: ProductSpace,
    shard: ShardView,
    owner_of: Dict[NodeId, int],
    shard_masks: Dict,
    seeds: Dict,
) -> Tuple[Dict[int, Dict], Set]:
    """One shard's round: local mask fixpoint, then the cut-edge frontier scan.

    Mutates *shard_masks* in place and returns the outbox messages —
    grouped by destination shard, ``{owner: {config: mask}}`` — plus the
    set of configurations whose mask changed this round.
    """
    _, changed = product.propagate_masks(space, seeds, masks=shard_masks, adjacency=shard)
    cut_view = _CutView(shard)
    successors = space.successors
    node_of = space.node_of
    outboxes: Dict[int, Dict] = {}
    for config in changed:
        mask = shard_masks[config]
        for successor in successors(cut_view, config):
            owner = owner_of[node_of(successor)]
            outbox = outboxes.setdefault(owner, {})
            outbox[successor] = outbox.get(successor, 0) | mask
    return outboxes, changed


def _merge_outboxes(outboxes: Dict[int, Dict], shard_outboxes: Dict[int, Dict]) -> None:
    """OR one shard's outbox messages into the round's routing table."""
    for owner, messages in shard_outboxes.items():
        outbox = outboxes.setdefault(owner, {})
        for config, mask in messages.items():
            outbox[config] = outbox.get(config, 0) | mask


#: Per-shard mask tables of a pooled worker, ``{shard_id: {config: mask}}``.
#: Only ever populated inside forked :class:`ForkPool` children — each
#: worker process owns the tables of the shards assigned to it and keeps
#: them across frontier rounds; the parent's copy stays empty.
_POOL_MASKS: Dict[int, Dict] = {}


def _pool_shard_worker(payload, index: int, message):
    """Persistent pooled worker: rounds for this worker's shards, then decode.

    ``("round", {shard_id: inbox})`` runs one frontier round for every
    addressed shard against the mask tables kept in :data:`_POOL_MASKS`
    and returns the merged outboxes.  ``("decode", targets)`` gathers the
    accepting pairs of every shard this worker owns — so the (large)
    mask tables never cross the pipe, only messages and answers do.
    """
    space, shards, owner_of = payload
    kind, body = message
    if kind == "round":
        outboxes: Dict[int, Dict] = {}
        for shard_id, inbox in body.items():
            shard_masks = _POOL_MASKS.setdefault(shard_id, {})
            shard_outboxes, _ = _shard_round(
                space, shards[shard_id], owner_of, shard_masks, inbox
            )
            _merge_outboxes(outboxes, shard_outboxes)
        return outboxes
    if kind == "decode":
        pairs: Set[Pair] = set()
        for shard_masks in _POOL_MASKS.values():
            pairs |= product.decode_pairs(space, shard_masks, targets=body)
        return pairs
    raise EvaluationError(f"unknown shard-pool message kind {kind!r}")


def _pooled_sharded_relation(
    space: ProductSpace,
    shards: Tuple[ShardView, ...],
    owner_of: Dict[NodeId, int],
    inboxes: List[Dict],
    targets: Optional[Set[NodeId]],
    max_workers: Optional[int],
) -> Set[Pair]:
    """Drive the sharded fixpoint over one persistent worker pool.

    Workers are forked **once** per invocation (not once per round, as
    the driver historically did); shard *s* lives in worker ``s % W`` for
    the pool's whole life, so its mask table stays put and only frontier
    messages travel.  The parent routes outbox messages without a
    dedup filter — it no longer holds the masks — which is safe because
    :func:`~repro.engine.product.propagate_masks` drops already-known
    bits, so a stale message produces an empty round, not extra work.
    """
    workers = min(len(shards), max_workers or (os.cpu_count() or 1))
    pending = {shard_id: inbox for shard_id, inbox in enumerate(inboxes) if inbox}
    with ForkPool((space, shards, owner_of), _pool_shard_worker, workers) as pool:
        while pending:
            tasks: Dict[int, Dict[int, Dict]] = {}
            for shard_id, inbox in pending.items():
                tasks.setdefault(shard_id % workers, {})[shard_id] = inbox
            replies = pool.run({w: ("round", body) for w, body in tasks.items()})
            outboxes: Dict[int, Dict] = {}
            for shard_outboxes in replies.values():
                _merge_outboxes(outboxes, shard_outboxes)
            pending = {sid: messages for sid, messages in outboxes.items() if messages}
        partials = pool.broadcast(("decode", targets))
    return set().union(set(), *partials)


def sharded_product_relation(
    space: ProductSpace,
    partition: Optional[GraphPartition] = None,
    num_shards: Optional[int] = None,
    processes: Optional[bool] = None,
    max_workers: Optional[int] = None,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> Set[Pair]:
    """``product_relation`` evaluated shard-by-shard with frontier exchange.

    Scatter: every shard seeds its own nodes' initial configurations with
    their global source bits.  Each round runs the shard-local mask
    fixpoint (over intra-shard edges only), then expands the changed
    configurations over the cut edges and routes ``(config, mask)``
    frontier messages to the owning shards.  The driver iterates rounds
    until no shard learns a new bit — the number of rounds is bounded by
    the longest chain of cut edges an answer path crosses.  Gather: the
    union of the shards' accepting-mask decodings.

    When *processes* allows it the driver forks **one persistent worker
    pool** for the whole invocation: ``True`` forks whenever the
    platform supports it, ``False`` never forks, and ``None`` (the
    default) forks on graphs of at least ``PROCESS_SHARDS_MIN_NODES``
    nodes — below that even a one-time pool costs more than the query.
    Each worker keeps its shards' mask tables in-process across rounds
    and decodes its own answers, so only frontier messages and final
    pairs are pickled.  Without ``fork`` the driver degrades to the
    in-process loop; the answers are identical in every mode.

    A *partition* may be passed in (reusing a plan across queries);
    otherwise one is built with ``num_shards`` shards (default: CPU count
    capped at 8).

    With *sources* / *targets* given the driver runs the seeded
    (semijoin) form: each shard seeds only its locally owned bound
    sources, and accepting masks are decoded against the target
    restriction — the sharded counterpart of
    :func:`~repro.engine.product.seeded_product_relation`.
    """
    index = space.index
    nodes = index.nodes
    if not nodes:
        return set()
    if sources is not None and not sources:
        return set()
    if targets is not None:
        if not targets:
            return set()
        targets = set(targets)
    source_set = None if sources is None else set(sources)
    if partition is None:
        shards_wanted = num_shards if num_shards is not None else min(os.cpu_count() or 1, 8)
        partition = GraphPartition.build(index, max(1, shards_wanted))
    elif partition.version != index.version:
        raise EvaluationError(
            f"stale partition: built at graph version {partition.version}, "
            f"index is at {index.version}"
        )
    owner_of = partition.assignment
    shards = partition.shards
    if processes is None:
        # Auto: fork only where it can pay — a fork-capable platform, more
        # than one core, and enough nodes to amortise the per-round pool.
        use_processes = (
            fork_available()
            and (os.cpu_count() or 1) >= 2
            and len(nodes) >= PROCESS_SHARDS_MIN_NODES
        )
    else:
        use_processes = processes and fork_available()

    inboxes: List[Dict] = [
        product.seed_masks(
            space,
            sources=shard.nodes
            if source_set is None
            else tuple(node for node in shard.nodes if node in source_set),
        )
        for shard in shards
    ]
    if use_processes and len(shards) > 1 and any(inboxes):
        return _pooled_sharded_relation(space, shards, owner_of, inboxes, targets, max_workers)
    masks: List[Dict] = [{} for _ in shards]
    while any(inboxes):
        active = tuple(shard_id for shard_id, inbox in enumerate(inboxes) if inbox)
        outboxes: Dict[int, Dict] = {}
        for shard_id in active:
            seeds = inboxes[shard_id]
            inboxes[shard_id] = {}
            shard_outboxes, _ = _shard_round(
                space, shards[shard_id], owner_of, masks[shard_id], seeds
            )
            _merge_outboxes(outboxes, shard_outboxes)
        # Route messages: only genuinely new bits become next-round seeds.
        for shard_id, messages in outboxes.items():
            shard_masks = masks[shard_id]
            inbox = inboxes[shard_id]
            for config, mask in messages.items():
                if mask | shard_masks.get(config, 0) != shard_masks.get(config, 0):
                    inbox[config] = inbox.get(config, 0) | mask
    pairs: Set[Pair] = set()
    for shard_masks in masks:
        pairs |= product.decode_pairs(space, shard_masks, targets=targets)
    return pairs


def sharded_full_relation(
    index: LabelIndex,
    automaton: CompiledAutomaton,
    partition: Optional[GraphPartition] = None,
    num_shards: Optional[int] = None,
    processes: Optional[bool] = None,
    max_workers: Optional[int] = None,
) -> Set[Pair]:
    """The plain-RPQ entry point: the sharded driver over the NFA product."""
    return sharded_product_relation(
        NfaProductSpace(index, automaton),
        partition=partition,
        num_shards=num_shards,
        processes=processes,
        max_workers=max_workers,
    )


# ----------------------------------------------------------------------
# Mode dispatch
# ----------------------------------------------------------------------
def partitioned_product_relation(
    space: ProductSpace,
    mode: str,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    partition: Optional[GraphPartition] = None,
    processes: Optional[bool] = None,
    sources: Optional[Sequence[NodeId]] = None,
    targets: Optional[Set[NodeId]] = None,
) -> Set[Pair]:
    """Dispatch one product space through the driver *mode* names.

    The one mode→driver mapping shared by the engine's ``*_partitioned``
    methods and the CRPQ planner's per-atom seeded scans, so new driver
    knobs are threaded through a single seam.  *sources* / *targets*
    select seeded (semijoin) evaluation.
    """
    if mode in {"blocks", "source-blocks"}:
        return parallel_product_relation(
            space, num_blocks=workers, sources=sources, targets=targets
        )
    if mode == "sharded":
        return sharded_product_relation(
            space,
            partition=partition,
            num_shards=num_shards,
            processes=processes,
            max_workers=workers,
            sources=sources,
            targets=targets,
        )
    raise EvaluationError(
        f"unknown partitioned mode {mode!r}; expected 'blocks' or 'sharded'"
    )
