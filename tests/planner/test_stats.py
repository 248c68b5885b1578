"""The v2 statistics catalogue: summaries, caching, delta patching.

GraphStatistics is the planner's only new source of truth, so these
tests pin its numbers to hand-counted graphs and its cache discipline to
the label-index rules: built lazily, never cached while a batch is open,
repaired per touched label when the journal covers the version gap.
"""

from __future__ import annotations

import pytest

from repro.datagraph import DataGraph, GraphBuilder
from repro.planner import GraphStatistics, graph_statistics
from repro.planner.cost import CLOSURE_GROWTH, atom_estimate
from repro.planner.stats import MAX_CLOSURE_GROWTH, MIN_SELECTIVITY
from repro.query import Atom
from repro.query.data_rpq import DataRPQ
from repro.datapaths import parse_ree

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def small_graph() -> DataGraph:
    return (
        GraphBuilder(name="stats")
        .node("a", 1)
        .node("b", 1)
        .node("c", 2)
        .node("d", 3)
        .edge("a", "r", "b")  # equal endpoint values
        .edge("a", "r", "c")
        .edge("b", "r", "c")
        .edge("c", "s", "d")
        .build()
    )


class TestLabelStats:
    def test_hand_counted_summary(self):
        stats = graph_statistics(small_graph())
        r = stats.label("r")
        assert r.edge_count == 3
        assert r.distinct_sources == 2  # a, b
        assert r.distinct_targets == 2  # b, c
        assert r.max_fanout == 2  # a -> {b, c}
        assert r.eq_edges == 1  # a->b shares value 1
        assert r.fanout == pytest.approx(1.5)
        assert r.eq_fraction == pytest.approx(1 / 3)

    def test_missing_label_is_empty(self):
        stats = graph_statistics(small_graph())
        ghost = stats.label("nolabel")
        assert ghost.edge_count == 0
        assert ghost.fanout == 0.0
        assert ghost.eq_fraction == MIN_SELECTIVITY

    def test_value_match_probability(self):
        stats = graph_statistics(small_graph())
        # values: {1: 2, 2: 1, 3: 1} over 4 nodes -> (4 + 1 + 1) / 16
        assert stats.value_match_probability == pytest.approx(6 / 16)

    def test_eq_selectivity_single_vs_multi_label(self):
        stats = graph_statistics(small_graph())
        assert stats.eq_selectivity(["r"]) == pytest.approx(1 / 3)
        # multi-label paths fall back to the independence model
        assert stats.eq_selectivity(["r", "s"]) == pytest.approx(6 / 16)

    def test_closure_growth_floor_and_cap(self):
        stats = graph_statistics(small_graph())
        # fanout 1.5 -> fanout² = 2.25 < textbook floor of 4.0
        assert stats.closure_growth(["r"], CLOSURE_GROWTH) == CLOSURE_GROWTH
        graph = DataGraph(name="dense")
        hub = graph.add_node("hub", 0).id
        for i in range(20):
            spoke = graph.add_node(f"s{i}", i).id
            graph.add_edge(hub, "fan", spoke)
        dense = graph_statistics(graph)
        # fanout 20 -> 400, capped
        assert dense.closure_growth(["fan"], CLOSURE_GROWTH) == MAX_CLOSURE_GROWTH


class TestCostIntegration:
    def test_equality_atom_shrinks_with_stats(self):
        graph = small_graph()
        index = graph.label_index()
        stats = graph_statistics(graph)
        atom = Atom("x", DataRPQ(parse_ree("(r)=")), "y")
        plain = atom_estimate(atom, index)
        sharpened = atom_estimate(atom, index, stats)
        assert sharpened < plain
        assert sharpened == pytest.approx(plain * (1 / 3))

    def test_inequality_atom_keeps_plain_estimate(self):
        graph = small_graph()
        index = graph.label_index()
        stats = graph_statistics(graph)
        atom = Atom("x", DataRPQ(parse_ree("(r)!=")), "y")
        assert atom_estimate(atom, index, stats) == atom_estimate(atom, index)

    def test_test_free_data_atom_keeps_plain_estimate(self):
        graph = small_graph()
        index = graph.label_index()
        stats = graph_statistics(graph)
        atom = Atom("x", DataRPQ(parse_ree("r.s")), "y")
        assert atom_estimate(atom, index, stats) == atom_estimate(atom, index)


class TestCacheDiscipline:
    def test_cached_until_mutation(self):
        graph = small_graph()
        first = graph_statistics(graph)
        assert graph_statistics(graph) is first
        assert first.version == graph.version

    def test_not_cached_while_batch_open(self):
        graph = small_graph()
        with graph.batch():
            graph.add_edge("d", "r", "a")
            inside = graph_statistics(graph)
            assert graph_statistics(graph) is not inside
        after = graph_statistics(graph)
        assert after.version == graph.version
        assert graph_statistics(graph) is after

    def test_patched_keeps_untouched_labels(self):
        graph = small_graph()
        before = graph_statistics(graph)
        s_entry = before.label("s")
        before.label("r")
        with graph.batch():  # batches journal their delta; the stats patch
            graph.add_edge("b", "r", "d")
        after = graph_statistics(graph)
        assert after is not before
        # untouched label: the exact entry object survives the patch
        assert after._labels.get("s") is s_entry
        # touched label: recomputed with the new edge
        assert after.label("r").edge_count == 4
        # no value changed, so the collapsed histogram survives too
        assert after.value_match_probability == before.value_match_probability

    def test_value_change_invalidates_all_labels(self):
        graph = small_graph()
        before = graph_statistics(graph)
        before.label("r")
        assert before.value_match_probability == pytest.approx(6 / 16)
        with graph.batch():
            graph.set_value("b", 2)
        after = graph_statistics(graph)
        assert after is not before
        # a->b (1 vs 2) stops matching, b->c (2 vs 2) starts: the stale
        # entry would also say 1 eq edge, so pin the whole summary to a
        # from-scratch rebuild instead of the count alone.
        assert after.label("r") == GraphStatistics(graph.label_index()).label("r")
        assert after.value_match_probability == pytest.approx(6 / 16)

    def test_statistics_match_fresh_rebuild_after_deltas(self):
        graph = small_graph()
        graph_statistics(graph).label("r")  # prime the cache
        with graph.batch():
            graph.add_edge("d", "s", "a")
            graph.remove_edge("a", "r", "c")
        patched = graph_statistics(graph)
        fresh = GraphStatistics(graph.label_index())
        for label in ("r", "s"):
            assert patched.label(label) == fresh.label(label)
        assert patched.value_match_probability == pytest.approx(
            fresh.value_match_probability
        )
