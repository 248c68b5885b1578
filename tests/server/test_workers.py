"""The persistent shard-worker pool: correctness, reuse, epochs, cancel.

These tests fork real worker processes, so they are skipped wholesale on
platforms without ``fork`` (the pool itself degrades to ``None`` returns
there, which ``test_unavailable_platform``-style behaviour in the daemon
covers via the session fallback).
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import GraphBuilder, generators
from repro.engine.forkpool import fork_available
from repro.exceptions import EvaluationError
from repro.server.workers import QueryCancelled, ShardWorkerPool

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")

QUERIES = [
    Query.parse("a.(b|c)+"),
    Query.parse("(a|b)*"),
    Query.parse("((a|c))=", dialect="ree"),
    Query.parse("!x.((a|b)[x!=])+", dialect="rem"),
]


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(
        3, 40, intra_edges_per_node=3, bridges_per_community=4,
        labels=("a", "b"), bridge_label="c", rng=11, domain_size=4,
    )


@pytest.fixture
def pool(graph):
    with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
        yield pool


class TestCorrectness:
    @pytest.mark.parametrize("query", QUERIES, ids=[str(q.plan) for q in QUERIES])
    def test_matches_local_session(self, pool, graph, query):
        expected = GraphSession(graph).run(query).pairs()
        assert pool.evaluate(query) == expected

    def test_null_semantics_travels_to_workers(self, pool, graph):
        query = Query.parse("((a|b|c)+)=", dialect="ree")
        for null_semantics in (False, True):
            expected = GraphSession(graph).run(query, null_semantics=null_semantics).pairs()
            assert pool.evaluate(query, null_semantics=null_semantics) == expected

    def test_empty_relation(self, pool):
        assert pool.evaluate(Query.parse("nolabel")) == frozenset()


class TestPersistence:
    def test_second_query_reuses_the_same_workers(self, pool):
        assert pool.worker_pids() == ()  # lazy: no fork before first use
        pool.evaluate(QUERIES[0])
        pids = pool.worker_pids()
        assert len(pids) == 2 and len(set(pids)) == 2
        pool.evaluate(QUERIES[2])
        pool.evaluate(QUERIES[0])
        assert pool.worker_pids() == pids  # no re-fork between queries
        assert pool.respawns == 0

    def test_worker_caches_accumulate_across_queries(self, pool):
        pool.evaluate(QUERIES[0])
        first = pool.stats()
        pool.evaluate(QUERIES[0])  # same automaton: a worker-side cache hit
        second = pool.stats()
        assert second["automata"]["hits"] > first["automata"]["hits"]


class TestEpochInvalidation:
    def test_mutation_respawns_the_pool(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            query = QUERIES[0]
            before = pool.evaluate(query)
            assert before == GraphSession(graph).run(query).pairs()
            old_pids = pool.worker_pids()
            graph.add_node("fresh-node", 99)
            graph.add_edge("fresh-node", "a", next(iter(graph.node_ids)))
            try:
                after = pool.evaluate(query)
                assert after == GraphSession(graph).run(query).pairs()
                assert pool.respawns == 1
                assert pool.epoch == graph.version
                assert pool.worker_pids() != old_pids
            finally:
                graph.remove_node("fresh-node")

    def test_epoch_message_clears_worker_query_state(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            pool.evaluate(QUERIES[0])
            fork_pool = pool._pool
            # Plant per-query state worker-side, then send the epoch
            # broadcast the parent uses before a respawn: every worker
            # must report the planted state dropped.
            fork_pool.run({0: ("query", (999, QUERIES[0], False, None))})
            epochs_before = fork_pool.broadcast(("state", None))
            assert 999 in epochs_before[0][1]
            dropped = fork_pool.broadcast(("epoch", graph.version + 1))
            assert dropped[0] == 1  # worker 0 held the planted query
            epochs_after = fork_pool.broadcast(("state", None))
            assert all(state[0] == graph.version + 1 for state in epochs_after)
            assert all(state[1] == [] for state in epochs_after)


class TestDeltaPatching:
    def test_insert_only_batch_patches_workers_in_place(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            query = QUERIES[0]
            before = pool.evaluate(query)
            assert before == GraphSession(graph).run(query).pairs()
            old_pids = pool.worker_pids()
            with graph.batch() as batch:
                batch.add_node("patched-node", 99)
                batch.add_edge("patched-node", "a", next(iter(graph.node_ids)))
            try:
                after = pool.evaluate(query)
                assert after == GraphSession(graph).run(query).pairs()
                assert pool.worker_pids() == old_pids  # PID-stable
                assert pool.respawns == 0
                assert pool.patched_epochs == 1
                assert pool.epoch == graph.version
            finally:
                graph.remove_node("patched-node")

    def test_patched_workers_keep_their_automaton_caches(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            query = QUERIES[1]
            pool.evaluate(query)
            warm = pool.stats()
            anchor = next(iter(graph.node_ids))
            with graph.batch() as batch:
                batch.add_edge(anchor, "b", anchor)
            try:
                pool.evaluate(query)  # patched epoch: same processes, warm caches
                assert pool.patched_epochs == 1
                after = pool.stats()
                assert after["automata"]["hits"] > warm["automata"]["hits"]
            finally:
                graph.remove_edge(anchor, "b", anchor)

    def test_removal_batch_falls_back_to_respawn(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            query = QUERIES[0]
            pool.evaluate(query)
            old_pids = pool.worker_pids()
            graph.add_node("doomed-node", 1)
            pool.evaluate(query)
            assert pool.worker_pids() != old_pids  # single-op mutate: journal gap
            patched_pids = pool.worker_pids()
            with graph.batch() as batch:
                batch.remove_node("doomed-node")
            after = pool.evaluate(query)
            assert after == GraphSession(graph).run(query).pairs()
            assert pool.worker_pids() != patched_pids
            assert pool.patched_epochs == 0
            assert pool.respawns == 2

    def test_consecutive_batches_compose_into_one_patch(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            query = QUERIES[0]
            pool.evaluate(query)
            pids = pool.worker_pids()
            anchor = next(iter(graph.node_ids))
            with graph.batch() as batch:
                batch.add_node("compose-1", 5)
                batch.add_edge("compose-1", "a", anchor)
            with graph.batch() as batch:
                batch.add_node("compose-2", 6)
                batch.add_edge("compose-2", "b", "compose-1")
            try:
                after = pool.evaluate(query)  # two journaled deltas, one broadcast
                assert after == GraphSession(graph).run(query).pairs()
                assert pool.worker_pids() == pids
                assert pool.patched_epochs == 1
                assert pool.epoch == graph.version
            finally:
                graph.remove_node("compose-1")
                graph.remove_node("compose-2")


class TestAdmission:
    def test_busy_pool_declines_instead_of_blocking(self, pool):
        pool.evaluate(QUERIES[0])  # fork the workers first
        acquired = pool._lock.acquire(blocking=False)
        assert acquired
        try:
            assert pool.evaluate(QUERIES[0]) is None  # busy: caller falls back
        finally:
            pool._lock.release()
        assert pool.evaluate(QUERIES[0]) is not None  # usable again

    def test_cancel_aborts_between_rounds(self):
        # A long chain split across shards needs many frontier rounds, so
        # a pre-set cancel event is seen at the first round boundary.
        builder = GraphBuilder(name="long-chain")
        for i in range(64):
            builder.node(i, i)
        for i in range(63):
            builder.edge(i, "a", i + 1)
        chain = builder.build()
        with ShardWorkerPool(chain, num_workers=2, num_shards=8) as pool:
            cancel = threading.Event()
            cancel.set()
            with pytest.raises(QueryCancelled):
                pool.evaluate(Query.parse("a+"), cancel=cancel)
            # The cancelled query's state is dropped and the pool reusable.
            expected = GraphSession(chain).run("a+").pairs()
            assert pool.evaluate(Query.parse("a+")) == expected

    def test_closed_pool_rejects_evaluates(self, graph):
        pool = ShardWorkerPool(graph, num_workers=2)
        pool.evaluate(QUERIES[0])
        pool.close()
        with pytest.raises(EvaluationError, match="closed"):
            pool.evaluate(QUERIES[0])
        assert pool.worker_pids() == ()


class TestSharedCsr:
    """The zero-copy shared-CSR worker path and its segment lifecycle."""

    def _segments(self):
        import glob

        return set(glob.glob("/dev/shm/psm_*"))

    @pytest.mark.parametrize("query", QUERIES, ids=[str(q.plan) for q in QUERIES])
    def test_shared_and_plain_pools_agree(self, graph, query):
        expected = GraphSession(graph).run(query).pairs()
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as shared:
            with ShardWorkerPool(
                graph, num_workers=2, num_shards=4, use_shared_csr=False
            ) as plain:
                assert shared.evaluate(query) == expected
                assert plain.evaluate(query) == expected

    def test_segment_exists_while_forked_and_unlinks_on_close(self, graph):
        before = self._segments()
        pool = ShardWorkerPool(graph, num_workers=2, num_shards=4)
        assert pool.shared_segment is None  # lazy: nothing before first evaluate
        pool.evaluate(QUERIES[0])
        name = pool.shared_segment
        assert name is not None
        assert f"/dev/shm/{name}" in self._segments()
        pool.close()
        assert pool.shared_segment is None
        assert self._segments() - before == set()

    def test_plain_pool_never_creates_a_segment(self, graph):
        before = self._segments()
        with ShardWorkerPool(
            graph, num_workers=2, num_shards=4, use_shared_csr=False
        ) as pool:
            pool.evaluate(QUERIES[0])
            assert pool.shared_segment is None
            assert self._segments() == before

    def test_insert_only_delta_remaps_pid_stable(self, graph):
        query = QUERIES[0]
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            pool.evaluate(query)
            pids = pool.worker_pids()
            old_segment = pool.shared_segment
            anchor = next(iter(graph.node_ids))
            with graph.batch() as batch:
                batch.add_node("csr-remap-node", 7)
                batch.add_edge(anchor, "a", "csr-remap-node")
            try:
                after = pool.evaluate(query)
                assert after == GraphSession(graph).run(query).pairs()
                assert pool.worker_pids() == pids  # patched, not respawned
                assert pool.respawns == 0 and pool.patched_epochs == 1
                new_segment = pool.shared_segment
                assert new_segment is not None and new_segment != old_segment
                # The replaced segment is gone from the system.
                assert f"/dev/shm/{old_segment}" not in self._segments()
            finally:
                graph.remove_node("csr-remap-node")

    def test_respawn_unlinks_previous_segment(self, graph):
        query = QUERIES[0]
        before = self._segments()
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            pool.evaluate(query)
            old_segment = pool.shared_segment
            graph.add_node("csr-respawn-node", 1)  # single-op: journal gap
            try:
                pool.evaluate(query)
                assert pool.respawns == 1
                assert pool.shared_segment != old_segment
                assert f"/dev/shm/{old_segment}" not in self._segments()
            finally:
                graph.remove_node("csr-respawn-node")
        assert self._segments() - before == set()

    def test_worker_memory_probe(self, graph):
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            assert pool.worker_memory() == {}  # not forked yet
            pool.evaluate(QUERIES[0])
            memory = pool.worker_memory()
            assert set(memory) == {0, 1}
            assert all(kb > 0 for kb in memory.values())


class TestMemoryProbeDegradation:
    """``_private_kb`` must degrade, never raise (satellite: hardened
    kernels hide ``/proc/<pid>/smaps_rollup``)."""

    def test_falls_back_to_ru_maxrss_without_smaps(self, monkeypatch):
        import builtins

        from repro.server import workers as workers_module

        real_open = builtins.open

        def hardened_open(path, *args, **kwargs):
            if "smaps_rollup" in str(path):
                raise OSError(13, "Permission denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", hardened_open)
        kb = workers_module._private_kb()
        assert isinstance(kb, int) and kb > 0  # ru_maxrss stands in

    def test_returns_none_when_resource_also_fails(self, monkeypatch):
        import builtins
        import resource

        from repro.server import workers as workers_module

        real_open = builtins.open

        def hardened_open(path, *args, **kwargs):
            if "smaps_rollup" in str(path):
                raise FileNotFoundError(str(path))
            return real_open(path, *args, **kwargs)

        def denied(_who):
            raise OSError("rusage denied")

        monkeypatch.setattr(builtins, "open", hardened_open)
        monkeypatch.setattr(resource, "getrusage", denied)
        assert workers_module._private_kb() is None

    def test_worker_memory_omits_unmeasurable_workers(self, graph, monkeypatch):
        # The patch rides into the children over fork, so every worker
        # reports None — the reading must omit them all, not raise.
        from repro.server import workers as workers_module

        monkeypatch.setattr(workers_module, "_private_kb", lambda: None)
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            pool.evaluate(QUERIES[0])
            assert pool.worker_memory() == {}


class TestSeededSources:
    """Pool-side seeding: a seeded round ships only its own frontier.
    No session offers one — point queries run in-process."""

    @pytest.mark.parametrize("query", QUERIES, ids=[str(q.plan) for q in QUERIES])
    def test_sources_restrict_the_relation(self, pool, graph, query):
        full = GraphSession(graph).run(query).pairs()
        node_ids = list(graph.node_ids)
        for source in node_ids[:3]:
            expected = frozenset(pair for pair in full if pair[0].id == source)
            assert pool.evaluate(query, sources={source}) == expected
        some = frozenset(node_ids[:4])
        expected = frozenset(pair for pair in full if pair[0].id in some)
        assert pool.evaluate(query, sources=some) == expected

    def test_empty_sources_yield_empty_relation(self, pool):
        assert pool.evaluate(QUERIES[0], sources=frozenset()) == frozenset()

    def test_session_targets_stay_in_process_while_relations_ride_the_pool(self, pool, graph):
        query = QUERIES[0]
        offered = []

        def runner(plan, null_semantics):
            offered.append(plan)
            return pool.evaluate(plan, null_semantics)

        # A forced ``blocks`` driver: the full relation's route is parallel.
        policy = ExecutionPolicy(intra_query="blocks", max_workers=2)
        session = GraphSession(graph, policy=policy, shard_runner=runner)
        for source in list(graph.node_ids)[:3]:
            seeded = pool.evaluate(query, sources={source})
            assert session.targets(query, source) == frozenset(target for _, target in seeded)
        assert offered == []
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()
        assert offered == [query]
