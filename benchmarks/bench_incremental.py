"""Benchmark delta repair of a cached full relation vs full recompute.

The workload keeps the repair local: disjoint ``knows`` chain
communities (no bridges), a warm ``(knows)*`` full relation in the
session cache, then one small insert-only batch of shortcut edges inside
a single community.  The repair path
(:func:`repro.deltas.repair.repair_full_relation`) resumes the session's
kept ``knows+`` rows from the new steps and patches the cached answer,
while the recompute path (``delta_repair=False``) evaluates the closure
over every node again.

Both paths must produce bit-identical answers (each is checked against a
cache-free fresh evaluation); CI compares the means from BENCH_pr.json
and fails when repair falls below 2x faster than recompute (see the
bench-smoke incremental gate).  The ratio is algorithmic — the new
steps' reach vs all sources — so the gate holds on any core count.

A removal is re-answered the same way, and need not decode the whole
relation again: ``bench_requery_after_removal`` removes one edge inside
a community and re-runs the query, which patches the previous answer by
the bit rows it lost, while
``bench_requery_after_removal_full_decode`` (``delta_repair=False``, so
no lineage to patch from) decodes every pair.  Both run the same kernel;
CI gates the patched re-answer at ≥ 1.5x the full decode, single-core.

A write's CSR snapshot costs what the write touched:
``bench_compact_freeze_after_insert`` freezes a supplier-shaped graph
after a 4-edge ``supplies_to`` insert against the previous snapshot
(:meth:`~repro.datagraph.compact.CompactLabelIndex.from_label_index`
splices the touched rows and carries the rest), while
``bench_compact_freeze_fresh`` freezes the same graph from scratch.
CI gates the carried freeze at ≥ 5x faster than the fresh one, single
core: splicing measures ~22x, re-flattening the touched label ~1.75x.
"""

from __future__ import annotations

import random

from repro.api import GraphSession
from repro.api.executors import ExecutionPolicy
from repro.datagraph import DataGraph
from repro.datagraph.compact import CompactLabelIndex

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
    assert stats["repairs"] == 1 and stats["patched"] == 1 and stats["recomputes"] == 0, stats


def bench_requery_after_removal_full_decode(benchmark):
    stats = _requery_after_removal(benchmark, ExecutionPolicy(delta_repair=False))
    assert stats["patched"] == 0 and stats["recomputes"] == 0, stats


#: Tiers x width x fan of the supplier-shaped graph the freeze benches
#: snapshot (the end-to-end benchmark's ``supplier_s`` shape).
SUPPLIER_TIERS, SUPPLIER_WIDTH, SUPPLIER_FAN = 6, 100, 3


def _supplier_graph() -> DataGraph:
    """Tiered suppliers: ``SUPPLIER_FAN`` ``supplies_to`` edges to the tier
    below, one ``located_in`` region each, ``alt_for`` for one in five."""
    rng = random.Random(32)
    graph = DataGraph()
    for region in range(8):
        graph.add_node(("region", region), f"R{region}")
    for tier in range(SUPPLIER_TIERS):
        for i in range(SUPPLIER_WIDTH):
            graph.add_node((tier, i), tier)
    for tier in range(SUPPLIER_TIERS):
        for i in range(SUPPLIER_WIDTH):
            graph.add_edge((tier, i), "located_in", ("region", rng.randrange(8)))
            if tier:
                for below in rng.sample(range(SUPPLIER_WIDTH), SUPPLIER_FAN):
                    graph.add_edge((tier, i), "supplies_to", (tier - 1, below))
            if i % 5 == 0:
                graph.add_edge((tier, i), "alt_for", (tier, rng.randrange(SUPPLIER_WIDTH)))
    return graph


def _frozen_after_insert():
    """The supplier graph's snapshot, then a 4-edge ``supplies_to`` insert
    batch: ``(graph, previous snapshot, the batch's delta)``."""
    graph = _supplier_graph()
    previous = graph.compact_index()
    with graph.batch() as batch:
        for i in range(4):
            batch.add_edge((5, 10 * i), "supplies_to", (4, 10 * i + 1))
    return graph, previous, graph.journal.composed(previous.version, graph.version)


def bench_compact_freeze_after_insert(benchmark):
    graph, previous, delta = _frozen_after_insert()
    index = graph.label_index()
    carried = benchmark(CompactLabelIndex.from_label_index, index, previous, delta)
    fresh = CompactLabelIndex.from_label_index(index)
    assert carried.forward["located_in"] is previous.forward["located_in"]
    assert carried._counts == fresh._counts and carried.nodes == fresh.nodes
    for label, (offsets, _neighbors) in fresh.forward.items():
        assert carried.forward[label][0] == offsets
        assert all(
            sorted(carried.targets(label, node)) == sorted(fresh.targets(label, node))
            for node in fresh.nodes
        )


def bench_compact_freeze_fresh(benchmark):
    graph, _previous, _delta = _frozen_after_insert()
    index = graph.label_index()
    fresh = benchmark(CompactLabelIndex.from_label_index, index)
    assert fresh.edge_count("supplies_to") == (SUPPLIER_TIERS - 1) * SUPPLIER_WIDTH * SUPPLIER_FAN + 4
