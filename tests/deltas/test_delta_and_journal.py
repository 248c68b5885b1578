"""GraphDelta value semantics, net-change normalisation and the journal."""

from __future__ import annotations

import pytest

from repro.deltas import DeltaJournal, GraphDelta
from repro.deltas.delta import _NetChanges
from repro.exceptions import GraphError


class TestGraphDelta:
    def test_empty_and_insert_only_flags(self):
        empty = GraphDelta()
        assert empty.is_empty and empty.insert_only and empty.size == 0
        inserts = GraphDelta(added_nodes=(("n", 1),), added_edges=(("n", "a", "n"),))
        assert not inserts.is_empty and inserts.insert_only and inserts.size == 2
        removal = GraphDelta(removed_edges=(("n", "a", "m"),))
        assert not removal.insert_only
        retag = GraphDelta(value_changes=(("n", 1, 2),))
        assert not retag.insert_only  # value changes can break data-query answers

    def test_touched_nodes_and_labels(self):
        delta = GraphDelta(
            added_nodes=(("x", 1),),
            added_edges=(("x", "a", "y"), ("y", "b", "z")),
            removed_edges=(("p", "c", "q"),),
        )
        assert delta.touched_nodes == frozenset({"x", "y", "z", "p", "q"})
        assert delta.touched_labels == frozenset({"a", "b", "c"})

    def test_digest_is_content_addressed_not_lineage_addressed(self):
        one = GraphDelta(added_edges=(("x", "a", "y"),), base_version=1, new_version=2)
        two = GraphDelta(added_edges=(("x", "a", "y"),), base_version=7, new_version=8)
        other = GraphDelta(added_edges=(("x", "b", "y"),), base_version=1, new_version=2)
        assert one.digest == two.digest  # versions excluded from content
        assert one.digest != other.digest
        assert one == two  # version fields compare=False

    def test_summary_counts(self):
        delta = GraphDelta(
            added_nodes=(("x", 1),),
            removed_nodes=(("y", 2),),
            added_edges=(("x", "a", "x"),),
            value_changes=(("z", 1, 2),),
            added_labels=("a",),
        )
        assert delta.summary() == {
            "nodes_added": 1,
            "nodes_removed": 1,
            "edges_added": 1,
            "edges_removed": 0,
            "values_changed": 1,
            "labels_added": 1,
        }

    def test_compose_nets_out_cancelling_changes(self):
        first = GraphDelta(
            added_nodes=(("x", 1),), added_edges=(("x", "a", "x"),),
            base_version=1, new_version=2,
        )
        second = GraphDelta(
            removed_edges=(("x", "a", "x"),), removed_nodes=(("x", 1),),
            base_version=2, new_version=3,
        )
        net = GraphDelta.compose([first, second], base_version=1, new_version=3)
        assert net.is_empty
        assert net.base_version == 1 and net.new_version == 3


class TestNetChanges:
    def test_add_then_remove_edge_cancels(self):
        net = _NetChanges()
        net.record(("edge+", "x", "a", "y"))
        net.record(("edge-", "x", "a", "y"))
        assert net.to_delta(1, 2).added_edges == ()

    def test_remove_then_readd_node_with_same_value_cancels(self):
        net = _NetChanges()
        net.record(("node-", "x", 7))
        net.record(("node+", "x", 7))
        delta = net.to_delta(1, 2)
        assert delta.removed_nodes == () and delta.added_nodes == ()

    def test_value_changes_fold(self):
        net = _NetChanges()
        net.record(("value", "x", 1, 2))
        net.record(("value", "x", 2, 3))
        assert net.to_delta(1, 2).value_changes == (("x", 1, 3),)

    def test_node_added_then_removed_in_batch_nets_out(self):
        net = _NetChanges()
        net.record(("node+", "x", 1))
        net.record(("edge+", "x", "a", "x"))
        net.record(("edge-", "x", "a", "x"))
        net.record(("node-", "x", 1))
        assert net.to_delta(1, 2).is_empty


class TestDeltaJournal:
    def _delta(self, base, new):
        return GraphDelta(
            added_edges=((f"n{base}", "a", f"n{new}"),), base_version=base, new_version=new
        )

    def test_path_and_composed_over_contiguous_lineage(self):
        journal = DeltaJournal()
        for base in (1, 2, 3):
            journal.record(self._delta(base, base + 1))
        path = journal.path(1, 4)
        assert [d.base_version for d in path] == [1, 2, 3]
        net = journal.composed(1, 4)
        assert net.base_version == 1 and net.new_version == 4
        assert len(net.added_edges) == 3

    def test_gap_in_lineage_returns_none(self):
        journal = DeltaJournal()
        journal.record(self._delta(1, 2))
        journal.record(self._delta(3, 4))  # version 2 -> 3 happened off-journal
        assert journal.path(1, 4) is None
        assert journal.composed(1, 4) is None
        assert journal.composed(3, 4) is not None

    def test_same_version_is_the_empty_path(self):
        journal = DeltaJournal()
        assert journal.path(5, 5) == ()
        assert journal.composed(5, 5).is_empty

    def test_bound_evicts_oldest_deltas(self):
        journal = DeltaJournal(maxlen=2)
        for base in (1, 2, 3):
            journal.record(self._delta(base, base + 1))
        assert len(journal) == 2
        assert journal.composed(1, 4) is None  # delta 1->2 evicted
        assert journal.composed(2, 4) is not None

    def test_unversioned_and_empty_deltas_are_not_journaled(self):
        journal = DeltaJournal()
        journal.record(GraphDelta(added_edges=(("x", "a", "y"),)))  # no lineage
        journal.record(GraphDelta(base_version=1, new_version=2))  # empty
        assert len(journal) == 0

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(GraphError, match="journal bound"):
            DeltaJournal(maxlen=0)
