"""The pool's planner seams: partitioned hash joins and target masks.

``ShardWorkerPool.hash_join`` must agree with the executor's local join
on arbitrary row sets, and ``evaluate(targets=...)`` must equal the full
relation filtered in the parent — the mask only changes *where* the
filtering happens (worker-side, before the pipes).
"""

from __future__ import annotations

import random

import pytest

from repro.api import GraphSession, Query
from repro.datagraph import generators
from repro.engine.forkpool import fork_available
from repro.server.workers import ShardWorkerPool

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs os.fork")


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


def local_join(left_rows, right_rows, left_key, right_key, right_only):
    table = {}
    for row in right_rows:
        table.setdefault(tuple(row[i] for i in right_key), []).append(row)
    return {
        tuple(left) + tuple(right[i] for i in right_only)
        for left in left_rows
        for right in table.get(tuple(left[i] for i in left_key), ())
    }


class TestHashJoin:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_local_join(self, pool, seed):
        rng = random.Random(seed)
        left = [(rng.randrange(30), rng.randrange(30)) for _ in range(200)]
        right = [(rng.randrange(30), rng.randrange(30)) for _ in range(150)]
        expected = local_join(left, right, (1,), (0,), (1,))
        actual = pool.hash_join(left, right, (1,), (0,), (1,))
        assert actual == expected

    def test_multi_column_keys(self, pool):
        rng = random.Random(99)
        left = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(120)]
        right = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(120)]
        expected = local_join(left, right, (0, 2), (1, 0), (2,))
        assert pool.hash_join(left, right, (0, 2), (1, 0), (2,)) == expected

    def test_disjoint_sides_join_empty(self, pool):
        left = [(1, 2), (3, 4)]
        right = [(100, 200)]
        assert pool.hash_join(left, right, (1,), (0,), (1,)) == set()

    def test_busy_pool_declines(self, pool):
        acquired = pool._lock.acquire(blocking=False)
        assert acquired
        try:
            assert pool.hash_join([(1, 2)], [(2, 3)], (1,), (0,), (1,)) is None
        finally:
            pool._lock.release()

    def test_pool_still_answers_queries_after_joins(self, pool, graph):
        pool.hash_join([(1, 2)], [(2, 3)], (1,), (0,), (1,))
        query = Query.parse("a.(b|c)+")
        expected = GraphSession(graph).run(query).pairs()
        assert pool.evaluate(query) == expected


class TestTargetMasks:
    @pytest.mark.parametrize("expression", ["a.(b|c)+", "(a|b)*"])
    def test_targets_equal_parent_side_filter(self, pool, graph, expression):
        query = Query.parse(expression)
        full = pool.evaluate(query)
        assert full is not None
        targets = {pair[1].id for pair in list(full)[: max(1, len(full) // 7)]}
        masked = pool.evaluate(query, targets=targets)
        assert masked == frozenset(
            pair for pair in full if pair[1].id in targets
        )

    def test_sources_and_targets_compose(self, pool, graph):
        query = Query.parse("(a|c)+")
        full = pool.evaluate(query)
        source, target = next(iter(full))
        point = pool.evaluate(query, sources={source.id}, targets={target.id})
        assert point == frozenset(
            pair for pair in full if pair[0] == source and pair[1] == target
        )

    def test_empty_target_mask(self, pool):
        assert pool.evaluate(Query.parse("a"), targets=set()) == frozenset()


class TestSessionPointQueriesStayInProcess:
    def test_holds_never_offers_the_pool(self, graph):
        query = Query.parse("a.(b|c)+")
        baseline = GraphSession(graph)
        expected = baseline.run(query).pairs()
        with ShardWorkerPool(graph, num_workers=2, num_shards=4) as pool:
            calls = []

            def runner(plan, null_semantics):
                calls.append(plan)
                return pool.evaluate(plan, null_semantics)

            runner.hash_join = pool.hash_join
            session = GraphSession(graph, shard_runner=runner)
            source, target = next(iter(expected))
            assert session.holds(query, source.id, target.id)
            # the single-target mask stays available on the pool itself
            assert pool.evaluate(query, sources={source.id}, targets={target.id}) == {
                (source, target)
            }
            assert calls == []
