"""Batch mutation semantics and incremental LabelIndex maintenance.

The property test is the subsystem's executable spec: for random graphs
and random insert-only batches, the index patched in place by the commit
must be indistinguishable from an index rebuilt from scratch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import DataGraph
from repro.datagraph.index import LabelIndex
from repro.exceptions import GraphError

LABELS = ("a", "b", "c")


def chain_graph(communities: int = 3, size: int = 8) -> DataGraph:
    graph = DataGraph()
    for c in range(communities):
        for i in range(size):
            graph.add_node(f"c{c}n{i}", i % 4)
        for i in range(size - 1):
            graph.add_edge(f"c{c}n{i}", LABELS[i % len(LABELS)], f"c{c}n{i+1}")
    return graph


def assert_index_equivalent(patched: LabelIndex, rebuilt: LabelIndex) -> None:
    assert patched.version == rebuilt.version
    assert tuple(patched.nodes) == tuple(rebuilt.nodes)
    assert patched.position == rebuilt.position
    assert patched.values == rebuilt.values
    assert patched.labels >= rebuilt.labels  # patching may retain emptied labels
    # Adjacency rows are semantically sets (evaluation converts them to
    # node-position bitmasks), so compare them order-insensitively.
    def rows(mapping):
        return {key: frozenset(row) for key, row in mapping.items()}

    for label in rebuilt.labels:
        assert rows(patched.successors(label)) == rows(rebuilt.successors(label)), label
        assert rows(patched.predecessors(label)) == rows(rebuilt.predecessors(label)), label


class TestBatchSemantics:
    def test_batch_bumps_version_once_and_journals_the_delta(self):
        graph = chain_graph()
        base = graph.version
        with graph.batch() as batch:
            batch.add_node("new-1", 1)
            batch.add_node("new-2", 2)
            batch.add_edge("new-1", "a", "new-2")
        assert graph.version == base + 1
        delta = batch.delta
        assert delta.base_version == base and delta.new_version == base + 1
        assert len(delta.added_nodes) == 2 and len(delta.added_edges) == 1
        assert graph.journal.composed(base, base + 1) == delta

    def test_empty_batch_does_not_bump(self):
        graph = chain_graph()
        base = graph.version
        with graph.batch() as batch:
            pass
        assert graph.version == base
        assert batch.delta.is_empty
        assert len(graph.journal) == 0

    def test_single_op_mutators_keep_per_op_bumps_and_skip_the_journal(self):
        graph = chain_graph()
        base = graph.version
        graph.add_node("solo", 1)
        graph.add_edge("solo", "a", "c0n0")
        assert graph.version == base + 2
        assert graph.journal.composed(base, base + 2) is None

    def test_rollback_restores_everything(self):
        graph = chain_graph()
        base = graph.version
        nodes_before = {node.id: node.value for node in graph.nodes}
        edges_before = set(graph.edge_set())
        with pytest.raises(RuntimeError, match="boom"):
            with graph.batch() as batch:
                batch.add_node("doomed", 9)
                batch.add_edge("doomed", "a", "c0n0")
                batch.remove_edge("c0n0", "a", "c0n1")
                batch.remove_node("c1n0")
                batch.set_value("c2n0", 99)
                raise RuntimeError("boom")
        assert graph.version == base
        assert {node.id: node.value for node in graph.nodes} == nodes_before
        assert set(graph.edge_set()) == edges_before
        assert batch.delta is None

    def test_batches_do_not_nest_and_do_not_rerun(self):
        graph = chain_graph()
        with graph.batch() as batch:
            with pytest.raises(GraphError, match="nest"):
                with graph.batch():
                    pass
        with pytest.raises(GraphError, match="re-entered"):
            with batch:
                pass

    def test_mid_batch_reads_see_the_pre_batch_index_snapshot(self):
        graph = chain_graph()
        snapshot = graph.label_index()
        with graph.batch() as batch:
            batch.add_node("mid", 1)
            batch.add_edge("mid", "a", "c0n0")
            inside = graph.label_index()
            assert inside.version == snapshot.version
            assert "mid" not in inside.position
        after = graph.label_index()
        assert "mid" in after.position


class TestPatchedIndex:
    def test_patched_equals_rebuilt_for_inserts(self):
        graph = chain_graph()
        graph.label_index()  # cache the pre-batch index so commit patches it
        with graph.batch() as batch:
            batch.add_node("p1", 3)
            batch.add_edge("p1", "a", "c0n0")
            batch.add_edge("c1n7", "c", "p1")
            batch.add_edge("c2n0", "b", "c2n5")
        patched = graph.label_index()
        assert_index_equivalent(patched, LabelIndex(graph))

    def test_patched_equals_rebuilt_for_edge_removals(self):
        graph = chain_graph()
        graph.label_index()
        with graph.batch() as batch:
            batch.remove_edge("c0n0", "a", "c0n1")
            batch.add_edge("c0n0", "b", "c0n2")
        assert_index_equivalent(graph.label_index(), LabelIndex(graph))

    def test_node_removal_falls_back_to_rebuild(self):
        graph = chain_graph()
        base_index = graph.label_index()
        with graph.batch() as batch:
            batch.remove_node("c0n0")
        delta = batch.delta
        assert LabelIndex.patched(base_index, delta) is None  # dense ordering
        assert_index_equivalent(graph.label_index(), LabelIndex(graph))

    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 23), st.sampled_from(LABELS), st.integers(0, 23)
            ),
            min_size=1,
            max_size=12,
        ),
        new_nodes=st.lists(st.integers(24, 30), max_size=4, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_patched_index_equals_rebuilt(self, edges, new_nodes):
        graph = chain_graph()
        graph.label_index()
        names = sorted(graph.node_ids)
        with graph.batch() as batch:
            for node in new_nodes:
                batch.add_node(f"extra{node}", node)
            pool = names + [f"extra{n}" for n in new_nodes]
            for source, label, target in edges:
                batch.add_edge(pool[source % len(pool)], label, pool[target % len(pool)])
        assert_index_equivalent(graph.label_index(), LabelIndex(graph))


class TestNewNodeWithEdgesInOneBatch:
    """Regression: one batch that adds a node AND edges touching it must
    leave position/values/adjacency identical to a fresh rebuild —
    including edges between two nodes born in the same batch and edges
    on a label the base index has never seen."""

    def test_patched_matches_rebuild(self):
        graph = chain_graph()
        graph.label_index()  # cache so the commit takes the patch path
        with graph.batch() as batch:
            batch.add_node("fresh-1", 7)
            batch.add_node("fresh-2", 8)
            batch.add_edge("c0n0", "a", "fresh-1")      # old -> new
            batch.add_edge("fresh-1", "b", "c1n3")      # new -> old
            batch.add_edge("fresh-1", "c", "fresh-2")   # new -> new
            batch.add_edge("fresh-2", "zz", "fresh-2")  # new label, self-loop
        patched = graph.label_index()
        rebuilt = LabelIndex(graph)
        assert_index_equivalent(patched, rebuilt)
        # The new nodes sit at the end of the dense ordering with their
        # batch values, so every in-flight bitmask stays decodable.
        assert patched.position["fresh-1"] == len(rebuilt.nodes) - 2
        assert patched.position["fresh-2"] == len(rebuilt.nodes) - 1
        assert patched.values["fresh-1"] == 7 and patched.values["fresh-2"] == 8

    #: One journaled batch per kind of change a touched label's CSR rows
    #: are spliced for: the rows a batch names are rebuilt, every other
    #: row is slice-copied from the previous snapshot.
    SPLICED_BATCHES = {
        "insert into an existing row": lambda batch: batch.add_edge("c0n0", "a", "c2n5"),
        "insert on an appended node": lambda batch: (
            batch.add_node("fresh-1", 7),
            batch.add_edge("c0n0", "a", "fresh-1"),
            batch.add_edge("fresh-1", "b", "c0n0"),
        ),
        "removal": lambda batch: batch.remove_edge("c1n3", "a", "c1n4"),
        "mixed": lambda batch: (
            batch.add_node("fresh-1", 7),
            batch.remove_edge("c0n0", "a", "c0n1"),
            batch.add_edge("c0n0", "a", "c2n7"),
            batch.add_edge("c2n7", "a", "fresh-1"),
            batch.remove_edge("c2n3", "a", "c2n4"),
            batch.add_edge("fresh-1", "zz", "c1n1"),
        ),
    }

    @pytest.mark.parametrize("change", sorted(SPLICED_BATCHES))
    def test_compact_index_over_patched_base_matches_fresh(self, change):
        from repro.datagraph.compact import CompactLabelIndex

        graph = chain_graph()
        before = graph.compact_index()  # cached: the batch's snapshot is carried from it
        with graph.batch() as batch:
            self.SPLICED_BATCHES[change](batch)
        via_patched = graph.compact_index()
        via_rebuild = CompactLabelIndex.from_label_index(LabelIndex(graph))
        assert via_patched.nodes == via_rebuild.nodes
        assert via_patched.values == via_rebuild.values
        assert via_patched.node_objects == via_rebuild.node_objects
        assert via_patched._counts == via_rebuild._counts
        assert via_patched.edge_labels() == via_rebuild.edge_labels()
        for label in via_patched.edge_labels():
            for table in ("forward", "backward"):
                offsets = getattr(via_patched, table)[label][0]
                assert offsets == getattr(via_rebuild, table)[label][0], (table, label)
            for node_id in via_patched.nodes:
                assert sorted(via_patched.targets(label, node_id)) == sorted(
                    via_rebuild.targets(label, node_id)
                ), (label, node_id)
                assert sorted(via_patched.sources(label, node_id)) == sorted(
                    via_rebuild.sources(label, node_id)
                ), (label, node_id)
        # A label the batch names no edge of is carried whole.
        if "b" not in graph.journal.deltas()[-1].touched_labels:
            assert via_patched.forward["b"][1] is before.forward["b"][1]
        # No value changed and no node joined: the values column is carried.
        if len(via_patched.nodes) == len(before.nodes):
            assert via_patched.values is before.values
