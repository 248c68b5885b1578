"""The daemon's persistent shard-worker pool.

One :class:`ShardWorkerPool` owns a :class:`~repro.engine.forkpool.ForkPool`
whose workers hold the graph snapshot, an edge-cut
:class:`~repro.engine.partition.GraphPartition` and — crucially — their
shards' **mask tables and compiled-automaton caches across queries**.
Where the library's sharded driver forks one pool per drive invocation,
the daemon's pool forks once and answers every subsequent full-relation
RPQ / data-RPQ without re-forking (pinned by the worker-PID tests).

Per-query protocol (parent ↔ workers, over the fork-pool pipes):

``("query", (qid, query, null_semantics, sources))``
    Each worker compiles the query through its own process-wide engine
    (so automaton caches warm up worker-side and stay warm), seeds the
    shards it owns (``shard_id % num_workers == worker_index``) and runs
    the first local fixpoint round; the reply is the round's outboxes,
    keyed by destination shard.  ``sources`` is ``None`` for the full
    relation, or a frozenset of node ids restricting the seeds — the
    same shard rounds then run from those nodes' frontier only.
``("round", (qid, {shard_id: inbox}))``
    One frontier-exchange round for the given shards; same reply shape.
``("decode", (qid, targets))``
    The worker decodes its accepting masks to id pairs and **drops** the
    query's state; the parent unions the partial answers.  ``targets``
    is ``None`` for the full relation, or a frozenset of node ids the
    worker builds a target mask from — decoded pairs are filtered
    worker-side, before the pipes.  (A bare ``qid`` body is the legacy
    spelling of ``targets=None``.)
``("drop", qid)``
    Discard the query's state without decoding (cancellation path).
``("delta", graph_delta)``
    Graph-version bump **with** the journaled
    :class:`~repro.deltas.delta.GraphDelta` connecting the workers' epoch
    to the new version: each worker drops per-query state, applies the
    delta to its copy-on-write graph snapshot, and patches its partition
    in place (:meth:`GraphPartition.apply_delta`) — the workers survive
    the mutation with their compiled-automaton caches warm and their
    PIDs unchanged.  Only deltas without node removals patch this way.
``("epoch", version)``
    Graph-version bump *without* a usable delta (node removals, a broken
    journal chain, or a legacy caller): drop *all* per-query state and
    record the new epoch.  The parent then respawns the pool — without a
    delta, no message can refresh the children's copy-on-write
    adjacency; the epoch broadcast exists to fail any in-flight query
    state deterministically before the stale processes are reaped.
``("remap", (meta, name) | None)``
    Swap the shared CSR segment: the worker releases its views of the
    old segment and records the new one's name for attach-on-next-query.
    Broadcast by the parent right after a ``("delta", ...)`` patch —
    shared segments are immutable, so a mutation is served by
    rebuild-and-remap, not in-place patching.
``("memory", None)``
    The worker's private (non-shared) resident memory in kB, read from
    ``/proc/self/smaps_rollup`` — pages of the shared CSR segment are
    *shared* mappings and do not count, which is exactly what the
    zero-copy benchmark needs to demonstrate.  Replies ``None`` when the
    worker cannot measure itself (no ``/proc``, no :mod:`resource`).
``("join", (left_rows, right_rows, left_key, right_key, right_only))``
    One partition of a distributed hash join: the parent scatters build
    and probe rows by join-key hash, each worker joins its bucket pair
    (build on the smaller side) and replies with its joined rows; the
    parent unions.  Stateless — no ``_QUERIES`` entry, any epoch.
``("stats", None)``
    The worker's engine cache counters (JSON-compatible view).

Only frontier messages, decoded id pairs and cache counters cross the
pipes; mask tables and compiled automata never leave the workers.

Zero-copy CSR sharing: when the pool is built with ``use_shared_csr``
(the default), the parent freezes its graph into a
:class:`~repro.datagraph.compact.CompactLabelIndex`, serialises the CSR
arrays plus the partition's owner column into one
:class:`~repro.datagraph.compact.SharedCompactIndex` segment, and hands
workers just ``(meta, name)``.  Workers attach lazily and run plain-RPQ
queries through the int-id shard kernels of :mod:`repro.engine.compact`
against memoryview slices of the **single** shared copy — adjacency is
never duplicated per worker.  Data-RPQ queries (whose register values
are id-keyed) keep the dict-backed path.  The parent alone unlinks
segments: on ``close()``, before every respawn, and when a remap
replaces one.

Concurrency: the pool is a single-admission resource guarded by a
non-blocking lock.  :meth:`ShardWorkerPool.evaluate` returns ``None``
when the pool is busy (or the platform cannot fork), and the calling
session falls back to its own in-process drivers — the daemon's
admission executor above this keeps overall concurrency bounded.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..datagraph.compact import SharedCompactIndex, owner_column
from ..datagraph.graph import DataGraph
from ..datagraph.node import Node
from ..engine import compact as compact_kernels
from ..engine import default_engine
from ..engine import product
from ..engine.forkpool import ForkPool, fork_available
from ..engine.partition import GraphPartition, _merge_outboxes, _shard_round
from ..exceptions import EvaluationError, ReproError
from ..query.rpq import RPQ
from .metrics import cache_stats_view

__all__ = ["ShardWorkerPool", "QueryCancelled"]


class QueryCancelled(ReproError):
    """Raised by :meth:`ShardWorkerPool.evaluate` when its cancel event fires."""


# ----------------------------------------------------------------------
# Worker side (runs in forked children; globals are per-process)
# ----------------------------------------------------------------------
#: Per-query worker state.  Dict-backed queries hold
#: ``{"space": ProductSpace, "masks": {sid: {config: mask}}}``; compact
#: queries hold ``{"compact": (S, accepting, plans, index), "masks": ...}``
#: with int configs in the mask tables.
_QUERIES: Dict[int, Dict] = {}
#: The graph version this worker believes it is serving.
_EPOCH: Optional[int] = None
#: The shared CSR segment's ``(meta, name)`` this worker should attach
#: to — seeded from the fork payload on first use, replaced by a
#: ``("remap", ...)`` message, cleared while a delta awaits its remap.
_SHARED_INFO: Optional[Tuple[Dict, str]] = None
_SHARED_INFO_SET = False
#: The attached segment handle plus the views derived from it.
_ATTACHED: Optional[SharedCompactIndex] = None
_COMPACT = None
_OWNER = None


def _detach_shared() -> None:
    """Release this worker's views and handle on the shared segment."""
    global _ATTACHED, _COMPACT, _OWNER
    if _ATTACHED is not None:
        _ATTACHED.close()
    _ATTACHED = None
    _COMPACT = None
    _OWNER = None


def _worker_compact(graph: DataGraph):
    """The worker's CSR view over the shared segment, attached on demand.

    Returns ``None`` when the pool runs without shared CSR (or the
    attach fails — the dict path is always a correct fallback).  The
    node ordering and values come from the worker's own copy-on-write
    graph snapshot, whose insertion order matches the parent's by
    construction; only the adjacency lives in shared memory.
    """
    global _ATTACHED, _COMPACT, _OWNER, _SHARED_INFO
    if _COMPACT is not None:
        return _COMPACT
    if _SHARED_INFO is None:
        return None
    meta, name = _SHARED_INFO
    try:
        handle = SharedCompactIndex.attach(meta, name)
    except FileNotFoundError:  # pragma: no cover - parent unlinked early
        _SHARED_INFO = None
        return None
    nodes = graph.node_ids
    values = [graph.node(node_id).value for node_id in nodes]
    compact, owner_view = handle.view(nodes, values)
    _ATTACHED = handle
    _COMPACT = compact
    _OWNER = owner_view
    return compact


def _compact_seeds(compact, S: int, initial, shard_nodes) -> Dict[int, int]:
    """Initial int-config seeds for one shard, bit = global node position."""
    position = compact.position
    seeds: Dict[int, int] = {}
    for node in shard_nodes:
        i = position[node]
        bit = 1 << i
        base = i * S
        for state in initial:
            config = base + state
            seeds[config] = seeds.get(config, 0) | bit
    return seeds


def _shard_worker_main(payload, index: int, message):
    """Message loop body for one pooled shard worker."""
    global _EPOCH, _SHARED_INFO, _SHARED_INFO_SET
    graph, partition, num_workers, shared_info = payload
    shards = partition.shards
    owner_of = partition.assignment
    if _EPOCH is None:
        _EPOCH = graph.version
    if not _SHARED_INFO_SET:
        _SHARED_INFO = shared_info
        _SHARED_INFO_SET = True
    kind, body = message

    if kind == "query":
        qid, query, null_semantics, sources = body
        compact = _worker_compact(graph) if isinstance(query.plan, RPQ) else None
        if compact is not None:
            S, initial, accepting, plans = compact_kernels.nfa_shard_plans(
                compact, default_engine().compile_rpq(query.plan)
            )
            masks: Dict[int, Dict] = {}
            _QUERIES[qid] = {"compact": (S, accepting, plans, compact), "masks": masks}
            outboxes: Dict[int, Dict] = {}
            for shard_id in range(index, len(shards), num_workers):
                shard_nodes = shards[shard_id].nodes
                if sources is not None:
                    shard_nodes = [node for node in shard_nodes if node in sources]
                seeds = _compact_seeds(compact, S, initial, shard_nodes)
                if not seeds:
                    continue
                shard_outboxes = compact_kernels.compact_shard_round(
                    plans, S, _OWNER, shard_id, masks.setdefault(shard_id, {}), seeds
                )
                _merge_outboxes(outboxes, shard_outboxes)
            return outboxes
        space = default_engine().space_for_atom(graph, query.plan, null_semantics)
        masks = {}
        _QUERIES[qid] = {"space": space, "masks": masks}
        outboxes = {}
        for shard_id in range(index, len(shards), num_workers):
            shard = shards[shard_id]
            shard_nodes = shard.nodes
            if sources is not None:
                shard_nodes = [node for node in shard_nodes if node in sources]
            seeds = product.seed_masks(space, sources=shard_nodes)
            if not seeds:
                continue
            shard_outboxes, _ = _shard_round(
                space, shard, owner_of, masks.setdefault(shard_id, {}), seeds
            )
            _merge_outboxes(outboxes, shard_outboxes)
        return outboxes

    if kind == "round":
        qid, inboxes = body
        state = _QUERIES.get(qid)
        if state is None:
            raise EvaluationError(
                f"shard worker {index} has no state for query {qid} "
                "(epoch invalidation or a dropped query?)"
            )
        masks = state["masks"]
        outboxes = {}
        if "compact" in state:
            S, _accepting, plans, _compact = state["compact"]
            for shard_id, inbox in inboxes.items():
                shard_outboxes = compact_kernels.compact_shard_round(
                    plans, S, _OWNER, shard_id, masks.setdefault(shard_id, {}), inbox
                )
                _merge_outboxes(outboxes, shard_outboxes)
            return outboxes
        space = state["space"]
        for shard_id, inbox in inboxes.items():
            shard_outboxes, _ = _shard_round(
                space, shards[shard_id], owner_of, masks.setdefault(shard_id, {}), inbox
            )
            _merge_outboxes(outboxes, shard_outboxes)
        return outboxes

    if kind == "decode":
        if isinstance(body, tuple):
            qid, targets = body
        else:  # legacy bare-qid spelling
            qid, targets = body, None
        state = _QUERIES.pop(qid, None)
        if state is None:
            return set()
        mask = frozenset(targets) if targets is not None else None
        pairs: Set[Tuple] = set()
        if "compact" in state:
            S, accepting, _plans, compact = state["compact"]
            for shard_masks in state["masks"].values():
                pairs |= compact_kernels.decode_shard_masks(
                    compact, S, accepting, shard_masks, targets=mask
                )
        else:
            for shard_masks in state["masks"].values():
                pairs |= product.decode_pairs(state["space"], shard_masks, targets=mask)
        return pairs

    if kind == "drop":
        return _QUERIES.pop(body, None) is not None

    if kind == "delta":
        dropped = len(_QUERIES)
        _QUERIES.clear()
        graph.apply(body)
        partition.apply_delta(body)
        # The shared segment snapshots the pre-delta adjacency; release
        # it and wait for the parent's rebuild-and-remap broadcast.
        _detach_shared()
        _SHARED_INFO = None
        _EPOCH = graph.version
        return dropped

    if kind == "remap":
        _detach_shared()
        _SHARED_INFO = body
        _SHARED_INFO_SET = True
        return True

    if kind == "epoch":
        dropped = len(_QUERIES)
        _QUERIES.clear()
        _detach_shared()
        _SHARED_INFO = None
        _EPOCH = body
        return dropped

    if kind == "join":
        left_rows, right_rows, left_key, right_key, right_only = body
        joined: Set[Tuple] = set()
        if len(left_rows) <= len(right_rows):
            table: Dict[Tuple, list] = {}
            for row in left_rows:
                table.setdefault(tuple(row[i] for i in left_key), []).append(row)
            for right in right_rows:
                for left in table.get(tuple(right[i] for i in right_key), ()):
                    joined.add(tuple(left) + tuple(right[i] for i in right_only))
        else:
            table = {}
            for row in right_rows:
                table.setdefault(tuple(row[i] for i in right_key), []).append(row)
            for left in left_rows:
                for right in table.get(tuple(left[i] for i in left_key), ()):
                    joined.add(tuple(left) + tuple(right[i] for i in right_only))
        return joined

    if kind == "stats":
        return cache_stats_view(default_engine().stats())

    if kind == "memory":
        return _private_kb()

    if kind == "state":
        return (_EPOCH, sorted(_QUERIES))

    raise EvaluationError(f"unknown shard-worker message kind {kind!r}")


def _private_kb() -> Optional[int]:
    """This process's private resident memory in kB, or ``None`` when it
    cannot be measured.

    Shared mappings (the CSR segment) are excluded, so the difference
    between pools with and without ``use_shared_csr`` is the adjacency
    each worker would otherwise hold privately.  Where ``smaps_rollup``
    is unavailable (non-Linux, hardened kernels hiding ``/proc``) the
    ``ru_maxrss`` high-water mark stands in; where even that fails (no
    :mod:`resource` module, restricted sandboxes) the reading degrades
    to ``None`` instead of raising — memory introspection must never
    take a worker down mid-query.
    """
    try:
        with open("/proc/self/smaps_rollup") as rollup:
            private = 0
            for line in rollup:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    private += int(line.split()[1])
            return private
    except OSError:
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - no resource module / denied
        return None


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardWorkerPool:
    """A persistent, graph-version-aware pool of forked shard workers.

    The pool forks lazily on the first :meth:`evaluate` and keeps its
    workers alive until :meth:`close` or a graph mutation.  Mutations
    are detected by comparing ``graph.version`` against the epoch the
    pool was forked at.  When the graph's delta journal holds a
    contiguous, removal-free :class:`~repro.deltas.delta.GraphDelta`
    chain between the two versions, the composed delta is broadcast and
    the workers patch their graph snapshots and shard partitions in
    place — no respawn, PIDs stay stable, automaton caches stay warm
    (``patched_epochs`` counts these).  Otherwise the pool falls back to
    the epoch broadcast (so workers drop any per-query state) and
    respawns from the parent's current graph — ``respawns`` counts
    those.
    """

    def __init__(
        self,
        graph: DataGraph,
        num_workers: Optional[int] = None,
        num_shards: Optional[int] = None,
        use_shared_csr: bool = True,
    ):
        self.graph = graph
        self.num_workers = max(1, num_workers or min(os.cpu_count() or 1, 8))
        self.num_shards = max(self.num_workers, num_shards or self.num_workers)
        self.use_shared_csr = use_shared_csr
        self.respawns = 0
        self.patched_epochs = 0
        self._pool: Optional[ForkPool] = None
        self._epoch: Optional[int] = None
        self._shared: Optional[SharedCompactIndex] = None
        self._partition: Optional[GraphPartition] = None
        self._lock = threading.Lock()
        self._qids = itertools.count(1)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether this platform can run the pool at all."""
        return fork_available()

    @property
    def epoch(self) -> Optional[int]:
        """The graph version the current workers were forked at."""
        return self._epoch

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the live workers (empty before the first evaluate)."""
        pool = self._pool
        return pool.pids() if pool is not None and not pool.closed else ()

    # ------------------------------------------------------------------
    def _discard_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.close()
            except Exception:  # pragma: no cover - already-dead workers
                pass
            self._pool = None
        # The parent owns the shared segment: unlink it with the pool it
        # served, so neither close() nor a respawn leaks /dev/shm entries.
        if self._shared is not None:
            self._shared.close()
            self._shared.unlink()
            self._shared = None
        self._partition = None

    def _build_shared(self, partition: GraphPartition) -> Optional[SharedCompactIndex]:
        """Freeze the current graph + owner column into a fresh segment."""
        if not self.use_shared_csr:
            return None
        compact = self.graph.compact_index()
        owner = owner_column(partition.assignment, compact.nodes)
        return SharedCompactIndex.create(compact, owner)

    def _broadcast_remap(self, pool: ForkPool) -> None:
        """Rebuild the segment post-delta and swap the workers onto it.

        Segments are immutable once built, so a graph mutation is served
        by building a new segment against the patched graph/partition,
        broadcasting its ``(meta, name)``, and unlinking the old one only
        after every worker has let go.  On a failed broadcast the fresh
        segment is unlinked immediately and the error propagates to the
        respawn path.
        """
        if not self.use_shared_csr or self._partition is None:
            return
        old = self._shared
        new = self._build_shared(self._partition)
        info = (new.meta, new.name) if new is not None else None
        try:
            pool.broadcast(("remap", info))
        except EvaluationError:
            if new is not None:
                new.close()
                new.unlink()
            raise
        self._shared = new
        if old is not None:
            old.close()
            old.unlink()

    def _sync(self) -> ForkPool:
        """Patch or respawn the pool when the graph moved past the workers' epoch.

        Called with the admission lock held.  A journaled, removal-free
        delta chain lets the live workers patch in place; without one,
        the epoch broadcast tells the stale workers to drop per-query
        state before they are reaped, and the respawn is what actually
        refreshes their copy-on-write graph snapshot.
        """
        if self._closed:
            raise EvaluationError("shard-worker pool is closed")
        version = self.graph.version
        pool = self._pool
        if pool is not None and self._epoch != version:
            patch = self.graph.journal.composed(self._epoch, version)
            if patch is not None and not patch.removed_nodes:
                try:
                    pool.broadcast(("delta", patch))
                    if self._partition is not None:
                        # Mirror the workers' deterministic partition
                        # patch, so the rebuilt owner column matches the
                        # shard assignment they route by.
                        self._partition.apply_delta(patch)
                    self._broadcast_remap(pool)
                except EvaluationError:  # pragma: no cover - workers died
                    self._discard_pool()
                    pool = None
                    self.respawns += 1
                else:
                    self._epoch = version
                    self.patched_epochs += 1
                    return pool
            else:
                try:
                    pool.broadcast(("epoch", version))
                except EvaluationError:  # pragma: no cover - workers already dead
                    pass
                self._discard_pool()
                pool = None
                self.respawns += 1
        if pool is None:
            partition = GraphPartition.build(self.graph.label_index(), self.num_shards)
            shared = self._build_shared(partition)
            shared_info = (shared.meta, shared.name) if shared is not None else None
            try:
                pool = ForkPool(
                    (self.graph, partition, self.num_workers, shared_info),
                    _shard_worker_main,
                    self.num_workers,
                )
            except Exception:  # pragma: no cover - fork failed
                if shared is not None:
                    shared.close()
                    shared.unlink()
                raise
            self._pool = pool
            self._partition = partition
            self._shared = shared
            self._epoch = version
        return pool

    # ------------------------------------------------------------------
    def evaluate(
        self,
        query,
        null_semantics: bool = False,
        cancel: Optional[threading.Event] = None,
        sources=None,
        targets=None,
    ) -> Optional[FrozenSet[Tuple[Node, Node]]]:
        """One (optionally seeded) query through the persistent workers.

        Returns the answer as ``(source, target)`` node pairs, or
        ``None`` when the pool cannot take the query right now (busy, or
        no ``fork`` on this platform) — the caller then evaluates
        in-process.  *sources* restricts the seeds to those node ids, so
        a seeded round ships only its own frontier over the pipes instead
        of the whole relation; *targets* restricts the decoded answer to
        pairs whose target id is in the set, applied worker-side.  No
        session offers seeded rounds (point queries run in-process); they
        stay for source-block parallelism over the shared CSR, which
        would reuse them.  *cancel* is checked at every round boundary;
        a set event drops the query's worker state and raises
        :class:`QueryCancelled`.
        """
        if not fork_available():
            return None
        if not self._lock.acquire(blocking=False):
            return None
        try:
            pool = self._sync()
            qid = next(self._qids)
            if sources is not None:
                sources = frozenset(sources)
            if targets is not None:
                targets = frozenset(targets)
            try:
                replies = pool.run(
                    {
                        w: ("query", (qid, query, null_semantics, sources))
                        for w in range(self.num_workers)
                    }
                )
                pending: Dict[int, Dict] = {}
                for outboxes in replies.values():
                    _merge_outboxes(pending, outboxes)
                pending = {sid: box for sid, box in pending.items() if box}
                while pending:
                    if cancel is not None and cancel.is_set():
                        pool.broadcast(("drop", qid))
                        raise QueryCancelled("query cancelled between frontier rounds")
                    tasks: Dict[int, Dict[int, Dict]] = {}
                    for shard_id, inbox in pending.items():
                        tasks.setdefault(shard_id % self.num_workers, {})[shard_id] = inbox
                    replies = pool.run(
                        {worker: ("round", (qid, body)) for worker, body in tasks.items()}
                    )
                    pending = {}
                    for outboxes in replies.values():
                        _merge_outboxes(pending, outboxes)
                    pending = {sid: box for sid, box in pending.items() if box}
                if cancel is not None and cancel.is_set():
                    pool.broadcast(("drop", qid))
                    raise QueryCancelled("query cancelled before decode")
                partials = pool.broadcast(("decode", (qid, targets)))
            except QueryCancelled:
                raise
            except EvaluationError:
                # A worker died mid-query: the pool is unusable; drop it
                # so the next evaluate respawns a fresh one.
                self._discard_pool()
                raise
            node = self.graph.node
            return frozenset(
                (node(source), node(target))
                for source, target in set().union(set(), *partials)
            )
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    def hash_join(
        self,
        left_rows,
        right_rows,
        left_key: Tuple[int, ...],
        right_key: Tuple[int, ...],
        right_only: Tuple[int, ...],
    ) -> Optional[Set[Tuple]]:
        """One partitioned hash join across the resident workers.

        Both sides are scattered by join-key hash so matching rows land
        on the same worker (co-location); each worker joins its bucket
        pair locally — building on whichever side of the bucket is
        smaller — and the parent unions the replies.  Output rows are
        ``left + right[right_only]``, matching the planner's local
        ``_join_rows``.  Returns ``None`` when the pool cannot take the
        join right now (busy, no ``fork``, or the workers died) — the
        caller then joins locally.
        """
        if not fork_available():
            return None
        if not self._lock.acquire(blocking=False):
            return None
        try:
            pool = self._sync()
            workers = self.num_workers
            left_parts: Dict[int, list] = {}
            for row in left_rows:
                key = tuple(row[i] for i in left_key)
                left_parts.setdefault(hash(key) % workers, []).append(row)
            right_parts: Dict[int, list] = {}
            for row in right_rows:
                key = tuple(row[i] for i in right_key)
                right_parts.setdefault(hash(key) % workers, []).append(row)
            tasks = {
                w: ("join", (left_parts[w], right_parts[w], left_key, right_key, right_only))
                for w in left_parts
                if w in right_parts
            }
            if not tasks:
                return set()
            try:
                replies = pool.run(tasks)
            except EvaluationError:
                self._discard_pool()
                return None
            return set().union(set(), *replies.values())
        finally:
            self._lock.release()

    # ------------------------------------------------------------------
    def stats(self) -> Optional[Dict]:
        """Aggregated worker engine-cache counters, or ``None`` when busy."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            pool = self._pool
            if pool is None or pool.closed:
                return {}
            from .metrics import merge_cache_views

            return merge_cache_views(pool.broadcast(("stats", None)))
        except EvaluationError:  # pragma: no cover - workers died
            self._discard_pool()
            return {}
        finally:
            self._lock.release()

    def worker_memory(self) -> Optional[Dict[int, int]]:
        """Per-worker private resident memory in kB, or ``None`` when busy.

        Shared CSR pages are excluded worker-side, so comparing pools
        built with and without ``use_shared_csr`` isolates the per-worker
        adjacency copy the shared segment eliminates.  Workers that
        cannot measure themselves (no ``smaps_rollup``, no ``resource``
        fallback) are omitted rather than failing the whole reading.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            pool = self._pool
            if pool is None or pool.closed:
                return {}
            return {
                worker: kb
                for worker, kb in enumerate(pool.broadcast(("memory", None)))
                if kb is not None
            }
        except EvaluationError:  # pragma: no cover - workers died
            self._discard_pool()
            return {}
        finally:
            self._lock.release()

    @property
    def shared_segment(self) -> Optional[str]:
        """Name of the live shared CSR segment (``None`` when not in use)."""
        shared = self._shared
        return shared.name if shared is not None else None

    def close(self) -> None:
        """Reap the workers; the pool rejects further evaluates."""
        with self._lock:
            self._closed = True
            self._discard_pool()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("idle" if self._pool is None else "forked")
        return (
            f"<ShardWorkerPool {state}: {self.num_workers} workers, "
            f"{self.num_shards} shards, epoch {self._epoch}, "
            f"{self.respawns} respawns, {self.patched_epochs} patched>"
        )
