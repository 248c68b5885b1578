"""Benchmark delta repair of a cached full relation vs full recompute.

The workload keeps the repair local: disjoint ``knows`` chain
communities (no bridges), a warm ``(knows)*`` full relation in the
session cache, then one small insert-only batch of shortcut edges inside
a single community.  The repair path
(:func:`repro.deltas.repair.repair_full_relation`) resumes the session's
kept ``knows+`` rows from the new steps (the graph takes the compact
kernels; on other routes it re-runs the kernel seeded at the touched
nodes' backward closure, which stays within one community) and patches
the cached answer, while the recompute path (``delta_repair=False``)
evaluates the closure over every node again.

Both paths must produce bit-identical answers (each is checked against a
cache-free fresh evaluation); CI compares the means from BENCH_pr.json
and fails when repair falls below 2x faster than recompute (see the
bench-smoke incremental gate).  The ratio is algorithmic — seeds vs all
sources — so the gate holds on any core count.

A removal cannot be repaired, but the recompute that answers it need not
decode the whole relation again: ``bench_requery_after_removal`` removes
one edge inside a community and re-runs the query, which patches the
previous answer by the bit rows it lost, while
``bench_requery_after_removal_full_decode`` (``delta_repair=False``, so
no lineage to patch from) decodes every pair.  Both run the same kernel;
CI gates the patched re-answer at ≥ 1.5x the full decode, single-core.
"""

from __future__ import annotations

from repro.api import GraphSession
from repro.api.executors import ExecutionPolicy
from repro.datagraph import DataGraph

#: Disjoint chain communities: big enough that one community's backward
#: closure is a small fraction of the node set.
NUM_COMMUNITIES = 12
COMMUNITY_SIZE = 70
#: The cached query: label-restricted closure, so answers (and repairs)
#: stay community-local.
QUERY = "(knows)*"


def _build_graph() -> DataGraph:
    graph = DataGraph()
    for community in range(NUM_COMMUNITIES):
        for i in range(COMMUNITY_SIZE):
            graph.add_node((community, i), i)
        for i in range(COMMUNITY_SIZE - 1):
            graph.add_edge((community, i), "knows", (community, i + 1))
    return graph


def _small_insert_only_batch(graph: DataGraph) -> None:
    """A few shortcut edges inside community 0 — one journaled delta."""
    with graph.batch() as batch:
        batch.add_edge((0, 10), "knows", (0, 40))
        batch.add_edge((0, 5), "knows", (0, 60))
        batch.add_edge((0, 20), "knows", (0, 25))


def _fresh_answer(graph: DataGraph):
    return GraphSession(graph, policy=ExecutionPolicy(cache_results=False)).run(QUERY).pairs()


def bench_incremental_repair(benchmark):
    graph = _build_graph()
    session = GraphSession(graph)
    session.run(QUERY).pairs()  # warm the version-keyed result cache
    _small_insert_only_batch(graph)
    repaired = benchmark.pedantic(
        lambda: session.run(QUERY).pairs(), rounds=1, iterations=1
    )
    stats = session.maintenance_stats()
    assert stats["repairs"] == 1 and stats["recomputes"] == 0, stats
    assert frozenset(repaired) == frozenset(_fresh_answer(graph))


def bench_incremental_full_recompute(benchmark):
    graph = _build_graph()
    session = GraphSession(graph, policy=ExecutionPolicy(delta_repair=False))
    session.run(QUERY).pairs()  # same warm cache; repair is simply not allowed
    _small_insert_only_batch(graph)
    recomputed = benchmark.pedantic(
        lambda: session.run(QUERY).pairs(), rounds=1, iterations=1
    )
    stats = session.maintenance_stats()
    assert stats["repairs"] == 0, stats
    assert frozenset(recomputed) == frozenset(_fresh_answer(graph))


def _requery_after_removal(benchmark, policy: ExecutionPolicy):
    """Time one re-run of the warm query after a single-edge removal
    batch in community 0 (a fresh warm session per round)."""

    def warm_then_remove():
        graph = _build_graph()
        session = GraphSession(graph, policy=policy)
        session.run(QUERY).pairs()
        with graph.batch() as batch:
            batch.remove_edge((0, 30), "knows", (0, 31))
        sessions.append(session)
        return (session,), {}

    sessions = []
    answer = benchmark.pedantic(
        lambda session: session.run(QUERY).pairs(), setup=warm_then_remove, rounds=5
    )
    session = sessions[-1]
    assert frozenset(answer) == frozenset(_fresh_answer(session.graph))
    return session.maintenance_stats()


def bench_requery_after_removal(benchmark):
    stats = _requery_after_removal(benchmark, ExecutionPolicy())
    assert stats["patched"] == 1 and stats["recompute_reasons"] == {"removal": 1}, stats


def bench_requery_after_removal_full_decode(benchmark):
    stats = _requery_after_removal(benchmark, ExecutionPolicy(delta_repair=False))
    assert stats["patched"] == 0 and stats["recomputes"] == 0, stats
