"""The partitioned evaluation layer: kernels, partitions, drivers.

Acceptance property (ISSUE 3): ``full_relation`` evaluated via
source-block parallel kernels and via the sharded scatter/gather driver
must return results identical to the sequential engine on randomized
graphs — including the partition-boundary edge cases (paths that only
exist across shards, empty shards, single-node shards).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import DataGraph, generators
from repro.engine import (
    GraphPartition,
    NfaProductSpace,
    default_engine,
    parallel_full_relation,
    sharded_full_relation,
    split_blocks,
)
from repro.engine import product
from repro.exceptions import EvaluationError

RPQ_POOL = [
    "a",
    "b.a",
    "(a|b)*",
    "a.(a|b)*.b",
    "(a.b)+",
    "a*|b*",
]

graphs = st.builds(
    lambda size, edges, seed: generators.random_graph(
        size, edges, labels=("a", "b"), rng=seed
    ),
    size=st.integers(min_value=1, max_value=30),
    edges=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
)


def compile_query(text):
    return default_engine().compile_rpq(text)


# ----------------------------------------------------------------------
# Phase kernels
# ----------------------------------------------------------------------
class TestKernels:
    def test_split_blocks_partitions_the_nodes(self):
        nodes = tuple(f"n{i}" for i in range(11))
        blocks = split_blocks(nodes, 4)
        assert len(blocks) == 4
        assert all(blocks)
        flattened = [node for block in blocks for node in block]
        assert flattened == list(nodes)

    def test_split_blocks_caps_at_node_count(self):
        blocks = split_blocks(("x", "y"), 5)
        assert blocks == [("x",), ("y",)]
        assert split_blocks((), 3) == []

    def test_split_blocks_rejects_nonpositive(self):
        with pytest.raises(EvaluationError):
            split_blocks(("x",), 0)

    def test_source_blocks_union_to_the_full_relation(self):
        graph = generators.random_graph(25, 60, labels=("a", "b"), rng=7)
        index = graph.label_index()
        space = NfaProductSpace(index, compile_query("a.(a|b)*"))
        reachable = product.forward_expand(space, product.initial_configs(space))
        useful = product.backward_prune(space, reachable)
        union = set()
        for block in split_blocks(index.nodes, 4):
            union |= product.source_block_relation(space, useful, block)
        assert union == product.product_relation(space)

    def test_propagate_masks_reports_changed_configs(self):
        graph = generators.chain(3, labels=("a",))
        index = graph.label_index()
        space = NfaProductSpace(index, compile_query("a*"))
        seeds = product.seed_masks(space, sources=("n0",))
        masks, changed = product.propagate_masks(space, seeds)
        assert changed == set(masks)
        # a second propagation from the same seeds is a fixpoint: no change
        _, changed_again = product.propagate_masks(space, seeds, masks=masks)
        assert changed_again == set()


# ----------------------------------------------------------------------
# Partition construction
# ----------------------------------------------------------------------
class TestGraphPartition:
    def test_every_node_lands_in_exactly_one_shard(self):
        graph = generators.random_graph(20, 50, labels=("a", "b"), rng=3)
        index = graph.label_index()
        for strategy in ("contiguous", "hash"):
            partition = GraphPartition.build(index, 4, strategy)
            seen = [node for shard in partition.shards for node in shard.nodes]
            assert sorted(map(str, seen)) == sorted(map(str, index.nodes))
            for shard in partition.shards:
                assert all(partition.owner(node) == shard.shard_id for node in shard.nodes)

    def test_cut_edges_are_exactly_the_cross_shard_edges(self):
        graph = generators.community_graph(3, 5, rng=1)
        index = graph.label_index()
        partition = GraphPartition.build(index, 3)
        crossing = 0
        for label in index.edge_labels():
            for source, target in index.pairs(label):
                if partition.owner(source) != partition.owner(target):
                    crossing += 1
                    assert target in partition.shards[partition.owner(source)].cut_targets(
                        label, source
                    )
                else:
                    assert target in partition.shards[partition.owner(source)].targets(
                        label, source
                    )
        assert partition.cut_edge_count == crossing

    def test_contiguous_partition_recovers_communities(self):
        graph = generators.community_graph(4, 6, bridges_per_community=1, rng=2)
        partition = GraphPartition.build(graph.label_index(), 4)
        for shard in partition.shards:
            communities = {str(node).split("n")[0] for node in shard.nodes}
            assert len(communities) == 1
        # only the thin bridge edges cross the cut
        assert partition.cut_edge_count == 4

    def test_partition_validation(self):
        index = generators.chain(2).label_index()
        with pytest.raises(EvaluationError):
            GraphPartition.build(index, 0)
        with pytest.raises(EvaluationError):
            GraphPartition.build(index, 2, strategy="metis")
        with pytest.raises(EvaluationError):
            GraphPartition(index, {}, 2)  # nodes missing from the assignment
        with pytest.raises(EvaluationError):
            GraphPartition(index, {node: 9 for node in index.nodes}, 2)

    def test_contiguous_assignment_is_deterministic(self):
        graph = generators.community_graph(3, 8, rng=4)
        one = GraphPartition.build(graph.label_index(), 4)
        two = GraphPartition.build(graph.label_index(), 4)
        assert one.assignment == two.assignment
        assert [shard.nodes for shard in one.shards] == [shard.nodes for shard in two.shards]

    def test_partition_after_a_batch_holds_every_edge(self):
        # Partitions are never patched: a write means a rebuild, which
        # must see exactly the batched graph's nodes and edges.
        graph = generators.community_graph(3, 6, rng=9)
        first = next(iter(graph.node_ids))
        last = list(graph.node_ids)[-1]
        with graph.batch() as batch:
            batch.add_node("px", 2)
            batch.add_edge("px", "a", first)
            batch.add_edge(last, "a", "px")
            batch.remove_node(list(graph.node_ids)[1])
        partition = GraphPartition.build(graph.label_index(), 3)
        assert partition.version == graph.version
        assert set(partition.assignment) == set(graph.node_ids)
        edges = {
            (source, label, target)
            for shard in partition.shards
            for table in (shard._succ, shard._cut)
            for label, by_source in table.items()
            for source, targets in by_source.items()
            for target in targets
        }
        assert edges == {(s.id, label, t.id) for s, label, t in graph.edges}

    def test_stale_partition_is_rejected(self):
        graph = generators.chain(3)
        partition = GraphPartition.build(graph.label_index(), 2)
        graph.add_node("fresh", 1)
        with pytest.raises(EvaluationError):
            sharded_full_relation(graph.label_index(), compile_query("a"), partition)


# ----------------------------------------------------------------------
# Driver equivalence (acceptance property)
# ----------------------------------------------------------------------
class TestDriverEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        graph=graphs,
        text=st.sampled_from(RPQ_POOL),
        num_shards=st.integers(min_value=1, max_value=6),
        strategy=st.sampled_from(["contiguous", "hash"]),
    )
    def test_sharded_equals_sequential(self, graph, text, num_shards, strategy):
        index = graph.label_index()
        automaton = compile_query(text)
        partition = GraphPartition.build(index, num_shards, strategy)
        assert sharded_full_relation(index, automaton, partition) == product.full_relation(
            index, automaton
        )

    @settings(max_examples=30, deadline=None)
    @given(
        graph=graphs,
        text=st.sampled_from(RPQ_POOL),
        num_blocks=st.integers(min_value=1, max_value=5),
    )
    def test_source_blocks_equal_sequential(self, graph, text, num_blocks):
        index = graph.label_index()
        automaton = compile_query(text)
        parallel = parallel_full_relation(
            index, automaton, num_blocks=num_blocks, backend="thread"
        )
        assert parallel == product.full_relation(index, automaton)

    def test_fork_backend_equals_sequential(self):
        graph = generators.random_graph(50, 120, labels=("a", "b"), rng=13)
        index = graph.label_index()
        automaton = compile_query("(a|b)*.a")
        forked = parallel_full_relation(index, automaton, num_blocks=3, backend="fork")
        assert forked == product.full_relation(index, automaton)

    def test_unknown_backend_rejected(self):
        index = generators.chain(2).label_index()
        with pytest.raises(EvaluationError):
            parallel_full_relation(index, compile_query("a"), backend="gpu")


class TestBoundaryEdgeCases:
    def test_cross_shard_only_paths(self):
        """A chain split into single-node shards: every answer path is
        made purely of cut edges and needs one exchange round per hop."""
        graph = generators.chain(6, labels=("a",))
        index = graph.label_index()
        automaton = compile_query("a*")
        partition = GraphPartition.build(index, len(index.nodes))
        assert all(len(shard.nodes) == 1 for shard in partition.shards)
        assert sharded_full_relation(index, automaton, partition) == product.full_relation(
            index, automaton
        )

    def test_more_shards_than_nodes_leaves_empty_shards(self):
        graph = generators.cycle(3, labels=("a",))
        index = graph.label_index()
        assignment = {node: position for position, node in enumerate(index.nodes)}
        partition = GraphPartition(index, assignment, num_shards=7)
        assert sum(1 for shard in partition.shards if not shard.nodes) == 4
        assert sharded_full_relation(index, compile_query("a+"), partition) == (
            product.full_relation(index, compile_query("a+"))
        )

    def test_single_shard_is_the_sequential_engine(self):
        graph = generators.random_graph(15, 40, labels=("a", "b"), rng=5)
        index = graph.label_index()
        automaton = compile_query("a.(a|b)*.b")
        partition = GraphPartition.build(index, 1)
        assert partition.cut_edge_count == 0
        assert sharded_full_relation(index, automaton, partition) == product.full_relation(
            index, automaton
        )

    def test_empty_graph(self):
        index = DataGraph().label_index()
        automaton = compile_query("a")
        assert sharded_full_relation(index, automaton, num_shards=4) == set()
        assert parallel_full_relation(index, automaton) == set()

    def test_disconnected_shards_keep_local_answers(self):
        """Two components in different shards with no cut edges at all."""
        graph = DataGraph(alphabet={"a"})
        for name in ("u0", "u1", "v0", "v1"):
            graph.add_node(name, name)
        graph.add_edge("u0", "a", "u1")
        graph.add_edge("v0", "a", "v1")
        index = graph.label_index()
        partition = GraphPartition(
            index, {"u0": 0, "u1": 0, "v0": 1, "v1": 1}, num_shards=2
        )
        assert partition.cut_edge_count == 0
        assert sharded_full_relation(index, compile_query("a"), partition) == {
            ("u0", "u1"),
            ("v0", "v1"),
        }

    def test_randomised_assignments_agree(self):
        """Arbitrary (adversarial) shard assignments, not just the built-ins."""
        rng = random.Random(23)
        for _ in range(10):
            graph = generators.random_graph(
                rng.randrange(2, 25), rng.randrange(0, 60), labels=("a", "b"),
                rng=rng.randrange(10_000),
            )
            index = graph.label_index()
            num_shards = rng.randrange(1, 6)
            assignment = {node: rng.randrange(num_shards) for node in index.nodes}
            partition = GraphPartition(index, assignment, num_shards)
            for text in ("(a|b)*", "a.(a|b)*.b"):
                automaton = compile_query(text)
                assert sharded_full_relation(index, automaton, partition) == (
                    product.full_relation(index, automaton)
                )
