"""Session-scoped query execution: one graph, one engine, one cache.

:class:`GraphSession` is the public execution API of the library.  It
binds together

* a :class:`~repro.datagraph.graph.DataGraph`,
* an :class:`~repro.engine.engine.EvaluationEngine` (shared compiled-
  automaton caches; defaults to the process-wide engine), and
* an :class:`~repro.api.executors.ExecutionPolicy` (result-cache
  behaviour and the forced-route overrides),

and evaluates :class:`~repro.api.query.Query` plans of *every* language
through one pair of entry points: :meth:`GraphSession.run` for a single
query and :meth:`GraphSession.run_many` for a batch, which runs in
order on the calling thread through the same path as ``run``.  Both
return uniform lazy :class:`~repro.api.result.Result` objects.

The session owns a **versioned result cache**: answers are keyed on
``(graph.version, query.key, null_semantics)``, and since every
structural mutation bumps the graph's monotonic version counter, a
mutation transparently invalidates all cached answers — stale entries
age out of the LRU without any explicit invalidation hook.  A second,
independent **point-workload cache** memoises single-source answers
(:meth:`GraphSession.targets`) under the same versioning scheme.

*How* a query runs is resolved once per evaluation by the router
(:func:`repro.planner.route_query`) into a
:class:`~repro.planner.router.Route`, and one method
(:meth:`GraphSession._evaluated`) turns a ``(plan, route)`` pair into an
entry's answer — its bit rows wherever the route computes them —
for ``run``, ``run_many``, ``targets`` and ``holds`` alike; an RPQ point
whose relation is not cached seeds the same algebra at its source.
Every route returns the same answers, so they share cache entries and
:class:`Result` objects.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, deque
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node, NodeId
from ..deltas.delta import GraphDelta
from ..deltas.repair import repair_full_relation
from ..engine.bitrelation import BitRelation, CachedRelation
from ..engine.cache import CacheStats, LRUCache
from ..engine.data import RowMemo
from ..engine.engine import EvaluationEngine, default_engine
from ..exceptions import EvaluationError
from ..gxpath.evaluation import evaluate_path
from ..planner.router import route_point, route_query
from . import wire
from .executors import ExecutionPolicy
from .protocol import SessionProtocol
from .query import Query, QueryKind, QueryLike
from .result import Result

__all__ = ["GraphSession"]

#: Shared default policy: sequential execution, 1024-entry result cache.
_DEFAULT_POLICY = ExecutionPolicy()


class GraphSession(SessionProtocol):
    """Uniform, cached execution of queries over one data graph.

    The in-process implementation of
    :class:`~repro.api.protocol.SessionProtocol` (its remote twin is
    :class:`~repro.api.remote.RemoteSession`).

    Parameters
    ----------
    graph:
        The data graph the session is bound to.  The graph may keep
        mutating; the versioned cache tracks it automatically.
    engine:
        The evaluation engine to route through; defaults to the shared
        process-wide engine so compiled automata are reused across
        sessions.
    policy:
        The :class:`~repro.api.executors.ExecutionPolicy`; defaults to
        sequential execution with a 1024-entry result cache.

    Examples
    --------
    >>> from repro.datagraph import GraphBuilder
    >>> graph = (GraphBuilder().node("a", 1).node("b", 1)
    ...          .edge("a", "r", "b").build())
    >>> session = GraphSession(graph)
    >>> session.run("r").count()
    1
    >>> session.run(Query.parse("(r)=", dialect="ree")).holds("a", "b")
    True
    """

    def __init__(
        self,
        graph: DataGraph,
        engine: Optional[EvaluationEngine] = None,
        policy: Optional[ExecutionPolicy] = None,
        repair_listener: Optional[Callable[[str], None]] = None,
    ):
        self.graph = graph
        self.engine = engine if engine is not None else default_engine()
        self.policy = policy if policy is not None else _DEFAULT_POLICY
        # Observer hook for re-answers after a write: called with
        # "repair" or "recompute" per re-answer (maintenance_stats), and
        # with "patched" whenever the new answer was decoded by
        # difference from the old one; the server wires its metrics
        # counters here.
        self.repair_listener = repair_listener
        self._results: LRUCache[CachedRelation] = LRUCache(self.policy.result_cache_size)
        # Point-workload cache: single-source answers keyed on
        # (graph.version, query.key, source, null_semantics), so repeated
        # "targets of u" questions neither recompute a BFS nor force the
        # full relation.
        self._points: LRUCache[frozenset] = LRUCache(self.policy.point_cache_size)
        # The bit-row algebra's closed sub-expression rows, shared by every
        # query of the session and carried across journaled deltas (only
        # within one graph version when the policy disables delta repair).
        self._rows = RowMemo(
            self.graph.journal if self.policy.delta_repair else None,
            self.policy.result_cache_size,
        )
        # CRPQ logical plans, cached alongside the versioned result
        # cache and keyed the same way ((graph.version, query.key)):
        # replanning is cheap but not free, and a stable plan object
        # also keeps `explain` output consistent with what actually ran.
        self._crpq_plans: LRUCache = LRUCache(self.policy.result_cache_size)
        # Point answers restored from a persistent snapshot
        # (load_point_cache): string key -> target node ids.  Consulted
        # on point-cache misses while the graph stays at the snapshot's
        # version, so a restarted service resumes warm.
        self._point_snapshot: Dict[str, Tuple[NodeId, ...]] = {}
        self._point_snapshot_version: Optional[int] = None
        # Re-answer lineage: the last graph version each (plan, null)
        # pair was answered at, so a later miss can locate its
        # previous-version cache entry and re-answer from it across the
        # journaled deltas (_reanswer) instead of recomputing.
        self._result_history: Dict[Tuple, int] = {}
        # Plan-retention lineage: the graph version each CRPQ plan key
        # was last planned (or retained) at, so a plan-cache miss after
        # a delta can look up its previous-version plan and keep it when
        # the delta touched none of the plan's labels.
        self._crpq_plan_history: Dict[str, int] = {}
        # Last adaptive-execution trace per (plan key, null semantics):
        # estimate-vs-observed join cardinalities and re-plan counters,
        # surfaced by `explain`.
        self._plan_traces: Dict[Tuple, object] = {}
        # "repair" / "recompute" / "patched" events and plans retained,
        # plus the recomputes by reason.
        self._maintenance: Counter = Counter()
        self._recompute_reasons: Counter = Counter()
        self._lineage: deque = deque(maxlen=32)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, query: QueryLike, null_semantics: bool = False) -> Result:
        """Evaluate one query, returning a lazy :class:`Result`.

        The query is evaluated on first access of the result (and at most
        once per result) — served from the session cache when the same
        plan was already evaluated at the current graph version — and its
        answer set is decoded only once something reads it.
        """
        plan = Query.of(query)
        return Result(plan, self.graph, lambda: self._entry(plan, null_semantics))

    def run_many(self, queries: Sequence[QueryLike], null_semantics: bool = False) -> List[Result]:
        """Evaluate a batch of queries, one :class:`Result` per query.

        The batch runs in order on the calling thread, each distinct plan
        once, through the same :meth:`_entry` as :meth:`run` — a cache
        hit, a re-answer from its lineage (:meth:`_reanswer`) or a fresh
        evaluation.  Batch results are evaluated eagerly; each answer set
        is decoded only once something reads it.
        """
        entries: Dict[Tuple, CachedRelation] = {}
        results: List[Result] = []
        for query in queries:
            plan = Query.of(query)
            entry = entries.get(plan.key)
            if entry is None:
                entry = entries[plan.key] = self._entry(plan, null_semantics)
            result = Result(plan, self.graph, lambda entry=entry: entry)
            result._entry()  # already evaluated; attach it now
            results.append(result)
        return results

    def holds(self, query: QueryLike, *nodes: object, null_semantics: bool = False) -> bool:
        """Membership shortcut: ``session.run(query).holds(*nodes)``.

        For binary RPQs whose full relation is not already cached, the
        question is answered from the point-workload cache (the algebra
        seeded at the source) instead of materialising the whole
        relation; any other binary plan is one bit test on its entry's
        rows (membership in the decoded answer for a route without rows).
        """
        plan = Query.of(query)
        if plan.arity != 2 or len(nodes) != 2:
            return self.run(plan, null_semantics=null_semantics).holds(*nodes)
        graph = self.graph
        source, target = (node if isinstance(node, Node) else graph.node(node) for node in nodes)
        if graph.get_node(source.id) != source or graph.get_node(target.id) != target:
            return False
        if plan.kind is QueryKind.RPQ and not self._is_cached(plan, null_semantics):
            return target in self.targets(plan, source.id, null_semantics=null_semantics)
        return self._entry(plan, null_semantics).holds(source, target)

    def targets(
        self, query: QueryLike, source: NodeId, null_semantics: bool = False
    ) -> FrozenSet[Node]:
        """All nodes ``v`` with ``(source, v)`` in the query's answer relation.

        The point-workload entry point: answers are memoised in their own
        LRU keyed on ``(graph.version, query.key, source)``, so
        single-source questions neither recompute per call nor piggyback
        on (and pay for) full-relation entries.  An RPQ whose full
        relation is not cached runs the bit-row algebra seeded at
        *source* (:meth:`EvaluationEngine.evaluate_rpq_from
        <repro.engine.engine.EvaluationEngine.evaluate_rpq_from>`); any
        other point reads *source*'s bit across its entry's rows
        (:meth:`BitRelation.targets_of
        <repro.engine.bitrelation.BitRelation.targets_of>`) without
        decoding the relation — only a route without rows (the forced
        ``dict`` / ``sql`` routes) scans its pairs.
        """
        plan = Query.of(query)
        if plan.arity != 2:
            raise EvaluationError(
                f"{plan} has arity {plan.arity}; .targets() needs a binary query"
            )
        self.graph.node(source)  # raise UnknownNodeError early
        if not self.policy.cache_results:
            return self._targets_of(plan, source, null_semantics)
        key = (self.graph.version, plan.key, source, null_semantics)
        return self._points.get_or_build(
            key, lambda: self._point_answer(plan, source, null_semantics)
        )

    # ------------------------------------------------------------------
    # Persistent point-cache snapshots
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot_key(plan_key: Tuple, source: NodeId, null_semantics: bool) -> str:
        """The stable textual key a point answer is stored under on disk."""
        kind_value, plan = plan_key
        return f"{kind_value}:{plan}|source={source!r}|null={null_semantics}"

    def _graph_fingerprint(self, exclude=None) -> str:
        """A content digest of the session graph (nodes, values, edges).

        The version counter alone cannot distinguish two different graphs
        that happen to have mutated the same number of times, so
        snapshots carry this digest too.  Node ids and values are
        rendered with ``repr`` — every id the graph accepts is hashable
        and therefore ``repr``-able.

        With *exclude* (an insert-only :class:`GraphDelta`), the nodes
        and edges that delta added are skipped, reproducing the digest of
        the delta's **base** graph — which is how a snapshot taken before
        a journaled insert is verified against the current graph.
        """
        graph = self.graph
        skip_nodes = frozenset()
        skip_edges = frozenset()
        if exclude is not None:
            skip_nodes = frozenset(node_id for node_id, _value in exclude.added_nodes)
            skip_edges = frozenset(exclude.added_edges)
        digest = hashlib.sha256()
        for node in sorted(graph.nodes, key=lambda node: repr(node.id)):
            if node.id in skip_nodes:
                continue
            digest.update(f"n:{node.id!r}={node.value!r};".encode("utf-8"))
        for source, label, target in sorted(
            graph.edges, key=lambda edge: (repr(edge[0].id), edge[1], repr(edge[2].id))
        ):
            if (source.id, label, target.id) in skip_edges:
                continue
            digest.update(f"e:{source.id!r}-{label}->{target.id!r};".encode("utf-8"))
        return digest.hexdigest()

    def _point_answer(self, plan: Query, source: NodeId, null_semantics: bool) -> frozenset:
        """A point-cache miss: served from the loaded snapshot when still
        valid for the current graph version, else computed."""
        if self._point_snapshot and self._point_snapshot_version == self.graph.version:
            ids = self._point_snapshot.get(
                self._snapshot_key(plan.key, source, null_semantics)
            )
            if ids is not None:
                node = self.graph.node
                return frozenset(node(target) for target in ids)
        return self._targets_of(plan, source, null_semantics)

    def save_point_cache(self, path: Union[str, Path], max_entries: Optional[int] = None) -> int:
        """Write the point-workload cache to *path* as a JSON snapshot.

        Entries are keyed on ``(graph.version, query.key, source)``; only
        answers computed at the **current** graph version are saved (plus
        any still-valid entries of a previously loaded snapshot), so the
        file always describes exactly one graph version — stamped with a
        content fingerprint — and :meth:`load_point_cache` can reject
        mismatches outright.  Target node ids are stored as ``repr``
        strings (ids are only required to be hashable, not JSON-native)
        and resolved against the live graph on load.  Returns the number
        of entries written.

        With *max_entries* given the snapshot is **compacted**: only the
        most-recently-used entries are kept, in LRU order — loaded
        snapshot entries that have not been touched this session rank
        oldest, live cache entries rank by the point cache's own
        recency.  Compacted snapshots load like any other; lookups the
        compaction dropped are simply recomputed on demand.
        """
        payload = self.point_cache_payload(max_entries=max_entries)
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return len(payload["entries"])

    def point_cache_payload(self, max_entries: Optional[int] = None) -> Dict:
        """The point-cache snapshot as a JSON-compatible dictionary.

        This is :meth:`save_point_cache` without the file write — the
        server's ``point_cache`` operation ships this payload over the
        wire so a :class:`~repro.api.remote.RemoteSession` can write the
        snapshot client-side.
        """
        if max_entries is not None and max_entries < 0:
            raise EvaluationError(f"max_entries must be non-negative, got {max_entries}")
        version = self.graph.version
        # Ordered oldest-first so compaction can trim from the front.
        entries: Dict[str, List[str]] = {}
        if self._point_snapshot and self._point_snapshot_version == version:
            entries.update(
                {key: [repr(target) for target in ids] for key, ids in self._point_snapshot.items()}
            )
        for key, answer in self._points.items():  # LRU first, MRU last
            entry_version, plan_key, source, null_semantics = key
            if entry_version != version:
                continue  # stale LRU leftovers from before a mutation
            snapshot_key = self._snapshot_key(plan_key, source, null_semantics)
            entries.pop(snapshot_key, None)  # re-rank by live recency
            entries[snapshot_key] = sorted(repr(node.id) for node in answer)
        compacted = max_entries is not None and len(entries) > max_entries
        if compacted:
            keep = list(entries)[len(entries) - max_entries :]
            entries = {key: entries[key] for key in keep}
        return {
            "format": "repro-point-cache/1",
            "graph_version": version,
            "graph_name": self.graph.name,
            "graph_fingerprint": self._graph_fingerprint(),
            "compacted": compacted,
            "entries": entries,
        }

    def load_point_cache(self, path: Union[str, Path]) -> int:
        """Restore a :meth:`save_point_cache` snapshot from *path*.

        The snapshot must describe the session graph: either its
        **current** version (exact match, every entry restored), or an
        **earlier** version reachable through the graph journal's
        insert-only deltas — in which case the snapshot is *repaired* on
        load: entries whose source could reach any touched node (and so
        might have gained targets) are dropped, the rest remain valid
        and are restored.  Any other version mismatch, a lineage with
        removals, or a content-fingerprint mismatch is rejected with an
        :class:`EvaluationError`.  Loaded answers satisfy subsequent
        :meth:`targets` calls without recomputation until the graph
        mutates again.  Compacted snapshots
        (``save_point_cache(..., max_entries=...)``) load the same way —
        they just carry fewer entries, and dropped lookups recompute.
        Returns the number of entries restored.
        """
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or payload.get("format") != "repro-point-cache/1":
            raise EvaluationError(f"{path} is not a point-cache snapshot")
        version = payload.get("graph_version")
        current = self.graph.version
        delta = None
        if version != current:
            delta = (
                self.graph.journal.composed(version, current)
                if isinstance(version, int)
                else None
            )
            if delta is None or not delta.insert_only:
                raise EvaluationError(
                    f"point-cache snapshot was taken at graph version {version}, "
                    f"but the session graph is at version {current} and the "
                    f"journal holds no insert-only delta chain between them"
                )
        fingerprint = payload.get("graph_fingerprint")
        if fingerprint != self._graph_fingerprint(exclude=delta):
            raise EvaluationError(
                "point-cache snapshot was taken on a different graph "
                "(content fingerprint mismatch)"
            )
        # Stored ids are repr strings; resolve them against the live
        # graph's ids so int / str / tuple ids all round-trip.
        by_repr = {repr(node_id): node_id for node_id in self.graph.node_ids}
        try:
            entries = {
                key: tuple(by_repr[target] for target in ids)
                for key, ids in payload.get("entries", {}).items()
            }
        except KeyError as error:
            raise EvaluationError(
                f"point-cache snapshot names a node id {error.args[0]} the graph lacks"
            ) from None
        if delta is not None:
            entries = self._surviving_point_entries(entries, delta)
        self._point_snapshot = entries
        self._point_snapshot_version = current
        return len(self._point_snapshot)

    def _surviving_point_entries(
        self, entries: Dict[str, Tuple[NodeId, ...]], delta
    ) -> Dict[str, Tuple[NodeId, ...]]:
        """The snapshot entries still exact after an insert-only *delta*.

        A point answer ``targets(source)`` can only grow if a witness
        path from *source* traverses added structure, i.e. if *source*
        can reach a touched node — so entries whose source lies outside
        the backward closure of the touched nodes are provably unchanged.
        The check is fail-safe: entries of non-monotone kinds, or whose
        key cannot be parsed back to a known node id, are dropped (they
        recompute on demand rather than risk serving a stale answer).
        """
        from ..deltas.repair import REPAIRABLE_KINDS, backward_touched_closure

        index = self.graph.label_index()
        stale = backward_touched_closure(index, delta.touched_nodes)
        stale_reprs = {repr(node_id) for node_id in stale}
        known_reprs = {repr(node_id) for node_id in self.graph.node_ids}
        survivors: Dict[str, Tuple[NodeId, ...]] = {}
        for key, ids in entries.items():
            kind = key.split(":", 1)[0]
            if kind not in REPAIRABLE_KINDS:
                continue
            head, separator, _null = key.rpartition("|null=")
            if not separator or "|source=" not in head:
                continue
            source_repr = head.rsplit("|source=", 1)[1]
            if source_repr not in known_reprs or source_repr in stale_reprs:
                continue
            survivors[key] = ids
        return survivors

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _document(self, result: Result) -> str:
        """*result*'s answer as the compact JSON text of its wire document
        (:func:`repro.api.wire.encode_entry`): encoded from the entry's bit
        rows on its first serve, without decoding them, serialised, and
        kept in the entry in place of the document — the text the daemon
        writes into the reply frame for every later run of it."""
        entry = result._entry()
        document = entry.document
        if document is None:
            document = entry.document = json.dumps(
                wire.encode_entry(result.query, entry), separators=(",", ":")
            )
        return document

    def _is_cached(self, plan: Query, null_semantics: bool) -> bool:
        """Whether *plan*'s full relation is cached at the current version."""
        key = (self.graph.version, plan.key, null_semantics)
        return self.policy.cache_results and key in self._results

    def _entry(self, plan: Query, null_semantics: bool) -> CachedRelation:
        """*plan*'s full relation at the current version as a result-cache
        entry, rows first: a recorded hit, a re-answer from its lineage or
        a fresh evaluation.  A policy that caches no results evaluates
        afresh and stores nothing."""
        if not self.policy.cache_results:
            return self._full_entry(plan, self._route(plan), null_semantics)
        version = self.graph.version
        key = (version, plan.key, null_semantics)
        if key in self._results:
            return self._results.get_or_build(key, CachedRelation)  # recorded hit
        route = self._route(plan)
        lineage = self._lineage_base(plan, null_semantics, version)
        if lineage is None:
            entry = self._full_entry(plan, route, null_semantics)
        else:
            entry = self._reanswer(plan, route, null_semantics, lineage)
        return self._remember(plan, null_semantics, version, entry)

    def _remember(
        self, plan: Query, null_semantics: bool, version: int, entry: CachedRelation
    ) -> CachedRelation:
        """Cache *entry* as *plan*'s answer at *version* and drop the
        entry it supersedes.  Graph versions only grow, so an older
        version's answer can never be hit again: it was alive as the
        base of the next delta repair, a role *entry* now takes.  Kept
        until the LRU fills, one dead full relation per mutation is what
        every full garbage-collection pass then walks (DESIGN §5)."""
        history_key = (plan.key, null_semantics)
        previous = self._result_history.get(history_key)
        if previous is not None and previous != version:
            self._results.discard((previous, plan.key, null_semantics))
        self._result_history[history_key] = version
        key = (version, plan.key, null_semantics)
        return self._results.get_or_build(key, lambda: entry)

    def _evaluated(self, plan: Query, route, null_semantics: bool):
        """*plan*'s full answer on *route*, with the session's row memo
        (none when the policy caches no results): its bit rows where the
        route computes them in this process — an RPQ / data RPQ on a
        compact route, a GXPath path, a binary CRPQ whose plan ends on
        them — else :meth:`_execute`'s decoded answer."""
        memo = self._rows if self.policy.cache_results else None
        if plan.kind is QueryKind.CRPQ:
            return self._execute(plan, route, null_semantics, decode=False, memo=memo)
        if plan.kind is QueryKind.GXPATH_PATH:
            return evaluate_path(self.graph, plan.plan, null_semantics, decode=False)
        if plan.kind in (QueryKind.RPQ, QueryKind.DATA_RPQ):
            bits = self.engine.atom_bits(
                self.graph, plan.plan, route, null_semantics=null_semantics, memo=memo
            )
            if bits is not None:
                return bits
        return self._execute(plan, route, null_semantics)

    def _full_entry(self, plan: Query, route, null_semantics: bool) -> CachedRelation:
        """*plan*'s full answer as a result-cache entry: the bit rows of
        :meth:`_evaluated` beside the snapshot they were computed on —
        decoded only when a read asks for pairs — or the decoded answer
        of a route that yields none."""
        answer = self._evaluated(plan, route, null_semantics)
        if isinstance(answer, BitRelation):
            return CachedRelation(answer, self.graph.compact_index())
        return CachedRelation(answer=answer)

    def _lineage_base(
        self, plan: Query, null_semantics: bool, version: int
    ) -> Optional[Tuple[CachedRelation, GraphDelta]]:
        """The previous version's cached entry for *plan* and the journal's
        composed delta from that version to *version* — what
        :meth:`_reanswer` keeps or patches — or ``None``.

        There is a lineage when (a) the policy enables delta repair, (b)
        this plan was answered at an earlier version whose entry is still
        in the LRU and (c) the journal holds an unbroken delta chain from
        that version to the current one.  An evicted entry and a broken
        chain count as recomputes, by reason.
        """
        if not self.policy.delta_repair:
            return None
        previous = self._result_history.get((plan.key, null_semantics))
        if previous is None or previous >= version:
            return None
        cached = self._results.peek((previous, plan.key, null_semantics))
        if cached is None:
            self._record_maintenance("recompute", "base evicted")
            return None
        composed = self.graph.journal.composed(previous, version)
        if composed is None:
            # Broken lineage: a single-op mutation or journal eviction.
            self._record_maintenance("recompute", "broken lineage")
            return None
        return cached, composed

    def _reanswer(self, plan: Query, route, null_semantics: bool, lineage) -> CachedRelation:
        """*plan*'s entry re-answered on *route* from its *lineage* by the
        one re-answer path, :func:`~repro.deltas.repair.repair_full_relation`,
        and counted: a route without rows as a recompute, else a repair."""
        entry, outcome = repair_full_relation(
            self.graph, plan, lineage, lambda: self._evaluated(plan, route, null_semantics)
        )
        if outcome == "no rows":
            self._record_maintenance("recompute", outcome)
            return entry
        self._record_maintenance("repair")
        if outcome == "patched":
            self._record_maintenance("patched")
        composed = lineage[1]
        kind_value, plan_text = plan.key
        self._lineage.append(
            {
                "plan": f"{kind_value}:{plan_text}",
                "base_version": composed.base_version,
                "new_version": composed.new_version,
                "delta_digest": composed.digest,
                "delta_size": composed.size,
            }
        )
        return entry

    def _record_maintenance(self, event: str, reason: Optional[str] = None) -> None:
        self._maintenance[event] += 1
        if reason is not None:
            self._recompute_reasons[reason] += 1
        listener = self.repair_listener
        if listener is not None:
            listener(event)

    def maintenance_stats(self) -> Dict:
        """Re-answer effectiveness after writes.  ``repairs`` counts the
        re-answers served from a lineage — the cached entry kept, or the
        memo's evaluation decoded from its rows — and ``recomputes`` the
        ones evaluated afresh, by reason (``"base evicted"``, ``"broken
        lineage"`` or ``"no rows"``: the route keeps no bit rows);
        ``patched`` counts the repairs decoded by difference from the
        previous version's answer.  Also the most recent repair lineages
        ``(base → new, delta digest)`` and, under ``rows``, how the bit-row algebra's
        sub-expression rows were obtained: ``reused`` as kept, their
        kept rows ``continued`` across an insert-only change, or
        ``computed`` (see :class:`~repro.engine.data.RowMemo`)."""
        counts = self._rows.counts
        return {
            "repairs": self._maintenance["repair"],
            "recomputes": self._maintenance["recompute"],
            "patched": self._maintenance["patched"],
            "recompute_reasons": dict(self._recompute_reasons),
            "plans_retained": self._maintenance["plans_retained"],
            "lineage": list(self._lineage),
            "rows": {outcome: counts[outcome] for outcome in ("reused", "continued", "computed")},
        }

    def _crpq_plan(self, plan: Query):
        """The cached planner output for a CRPQ plan at the current version.

        Plan-cache entries are version-keyed, so a graph mutation is an
        implicit miss — but a logical plan only depends on the statistics
        of the labels it scans.  On a miss at the current version, when
        the journal holds a delta chain from the version this query was
        last planned at and that composed delta **touches none of the
        plan's labels**, the previous plan is retained under the new
        version instead of replanning (counted by ``plans_retained`` in
        :meth:`maintenance_stats`).  An insert-only delta on label ``a``
        therefore no longer evicts the plans of queries that never scan
        ``a``.
        """
        from ..planner import plan_crpq

        version = self.graph.version
        key = (version, plan.key)
        if key not in self._crpq_plans:
            retained = self._retained_plan(plan, version)
            if retained is not None:
                self._crpq_plan_history[plan.key] = version
                return self._crpq_plans.get_or_build(key, lambda: retained)
        planned = self._crpq_plans.get_or_build(
            key,
            lambda: plan_crpq(
                plan.plan, self.graph.label_index(), self._statistics()
            ),
        )
        self._crpq_plan_history[plan.key] = version
        return planned

    def _retained_plan(self, plan: Query, version: int):
        """The previous version's plan when the deltas since cannot have
        changed it, else ``None``."""
        previous = self._crpq_plan_history.get(plan.key)
        if previous is None or previous == version:
            return None
        cached = self._crpq_plans.peek((previous, plan.key))
        if cached is None:
            return None
        composed = self.graph.journal.composed(previous, version)
        if composed is None:
            return None
        if not composed.touched_labels.isdisjoint(plan.labels()):
            return None
        self._maintenance["plans_retained"] += 1
        return cached

    def _statistics(self):
        """The graph's planner-v2 statistics catalogue (cached on the
        graph, invalidated per touched label from the delta journal)."""
        from ..planner import graph_statistics

        return graph_statistics(self.graph)

    def _route(self, plan: Query):
        """The resolved :class:`~repro.planner.router.Route` of *plan*:
        the one decision :meth:`_execute` consumes and :meth:`explain`
        prints.  A CRPQ is routed on its cached plan, so no dialect reads
        statistics here."""
        planned = self._crpq_plan(plan) if plan.kind is QueryKind.CRPQ else None
        return route_query(plan, self.graph, policy=self.policy, planned=planned)

    def explain(self, query: QueryLike) -> str:
        """The execution plan of *query* on this session's graph.

        The first line is the router's chosen route (strategy,
        estimate, reason).  For CRPQs the body is the planner's
        cost-ordered join plan — the exact (cached) plan object
        :meth:`run` executes at the current graph version — followed,
        once the query has run, by the adaptive executor's
        estimate-vs-observed trace; other kinds describe their fixed
        strategy.  See :meth:`repro.api.query.Query.explain`.
        """
        plan = Query.of(query)
        header = self._route(plan).describe()
        if plan.kind is QueryKind.CRPQ:
            body = self._crpq_plan(plan).explain()
            trace = self._plan_traces.get((plan.key, False))
            if trace is None:
                trace = self._plan_traces.get((plan.key, True))
            if trace is not None:
                body += "\n" + trace.describe()
            return header + "\n" + body
        return header + "\n" + plan.explain(self.graph)

    def _execute(
        self,
        plan: Query,
        route,
        null_semantics: bool,
        decode=True,
        memo: Optional[RowMemo] = None,
    ):
        """Turn a ``(plan, route)`` pair into the plan's full answer set
        (for a CRPQ without *decode*, its bit rows when the plan ends on
        them: see :func:`~repro.planner.execute_plan`).

        The one path from the session to the kernels for an answer
        without rows of its own: :meth:`_evaluated` keeps a local bit-row
        route's rows undecoded and sends everything else here, and
        nothing below re-decides what *route* resolved.  An RPQ point
        whose full relation is not cached goes straight to
        :meth:`EvaluationEngine.evaluate_rpq_from
        <repro.engine.engine.EvaluationEngine.evaluate_rpq_from>`
        (:meth:`_targets_of`); every other point reads its entry's rows.

        CRPQs take the planner (the cached plan, the session's relation
        cache, a recorded :class:`~repro.planner.PlanTrace`); every other
        kind hands the route to its engine entry point.  *memo* is the
        session's row memo, for an in-process CRPQ's atom scans.
        """
        if plan.kind is not QueryKind.CRPQ:
            return plan._evaluate(self.engine, self.graph, null_semantics, route)
        from ..planner import PlanTrace, execute_plan

        trace = PlanTrace()
        answer = execute_plan(
            self._crpq_plan(plan),
            self.graph,
            engine=self.engine,
            null_semantics=null_semantics,
            route=route,
            relation_cache=self._cached_relation_lookup(null_semantics),
            trace=trace,
            decode=decode,
            memo=memo,
        )
        if len(self._plan_traces) >= 128:  # bounded like the LRU caches
            self._plan_traces.clear()
        self._plan_traces[(plan.key, null_semantics)] = trace
        return answer

    def _cached_relation_lookup(self, null_semantics: bool):
        """A relation-cache hook for the adaptive executor: answer a CRPQ
        atom scan from the atom's previously materialised full relation
        (the versioned result cache), or ``None`` when re-walking the
        graph is the cheaper way.

        An entry with bit rows serves any scan — the seed restriction is
        a mask AND and the scan decodes only its live columns.  An entry
        without them serves unseeded scans only: filtering every decoded
        ``Node`` pair costs more than the seeded kernel it would replace.
        """
        if not self.policy.cache_results:
            return None
        version = self.graph.version

        def lookup(atom, sources, targets):
            query = Query.of(atom.query)
            null = null_semantics if query.kind is QueryKind.DATA_RPQ else False
            cached = self._results.peek((version, query.key, null))
            if cached is None:
                return None
            if cached.bits is not None:
                return cached.bits.restrict(sources, targets)
            if sources is None and targets is None:
                return {(source.id, target.id) for source, target in cached.answer}
            return None

        return lookup

    def _targets_of(self, plan: Query, source: NodeId, null_semantics: bool) -> frozenset:
        if plan.kind is QueryKind.RPQ and not self._is_cached(plan, null_semantics):
            # A point route never pays for statistics.
            route = route_point(self.graph, self.policy)
            return self.engine.evaluate_rpq_from(self.graph, plan.plan, source, route)
        return self._entry(plan, null_semantics).targets_of(source)

    def stats(self) -> Mapping[str, CacheStats]:
        """Cache snapshots: the session's ``results`` and ``points`` caches
        plus the engine's caches."""
        stats = {"results": self._results.stats(), "points": self._points.stats()}
        stats.update(self.engine.stats())
        return stats

    def clear_cache(self) -> None:
        """Drop all cached answer sets, including any loaded point-cache
        snapshot and cached CRPQ plans (compiled automata stay in the
        engine)."""
        self._results.clear()
        self._points.clear()
        self._rows.clear()
        self._crpq_plans.clear()
        self._point_snapshot = {}
        self._point_snapshot_version = None
        self._result_history.clear()
        self._crpq_plan_history.clear()
        self._plan_traces.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snapshot = self._results.stats()
        return (
            f"<GraphSession graph={self.graph.name or id(self.graph):} "
            f"version={self.graph.version} "
            f"results={snapshot.size}/{snapshot.maxsize} ({snapshot.hits} hits)>"
        )
