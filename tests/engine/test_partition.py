"""The source-block driver: phase kernels, source blocks, backends.

Acceptance property: ``full_relation`` evaluated via the source-block
parallel kernels must return results identical to the sequential engine
on randomized graphs.  The driver's default budget reads the host's
cores and its ``"auto"`` backend forks only where ``fork`` is
available, so the whole module runs under every host shape of the
``host_shape`` fixture — (1 core), (N cores + fork), (N cores, no fork).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import DataGraph, generators
from repro.engine import NfaProductSpace, default_engine, product
from repro.engine.partition import (
    parallel_full_relation,
    partitioned_product_relation,
    split_blocks,
)
from repro.exceptions import EvaluationError

pytestmark = pytest.mark.usefixtures("host_shape")

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


# ----------------------------------------------------------------------
# Driver equivalence (acceptance property)
# ----------------------------------------------------------------------
class TestDriverEquivalence:
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

    @pytest.mark.parametrize("text", RPQ_POOL)
    def test_fork_backend_equals_sequential(self, text):
        graph = generators.random_graph(50, 120, labels=("a", "b"), rng=13)
        index = graph.label_index()
        automaton = compile_query(text)
        forked = parallel_full_relation(index, automaton, num_blocks=3, backend="fork")
        assert forked == product.full_relation(index, automaton)

    def test_only_the_blocks_mode_is_dispatched(self):
        space = NfaProductSpace(generators.chain(3).label_index(), compile_query("a"))
        expected = product.product_relation(space)
        assert partitioned_product_relation(space, "blocks", workers=2) == expected
        for mode in ("sharded", "off"):
            with pytest.raises(EvaluationError, match="unknown partitioned mode"):
                partitioned_product_relation(space, mode, workers=2)

    def test_unknown_backend_rejected(self):
        index = generators.chain(2).label_index()
        with pytest.raises(EvaluationError):
            parallel_full_relation(index, compile_query("a"), backend="gpu")


class TestBoundaryEdgeCases:
    def test_empty_graph(self):
        index = DataGraph().label_index()
        assert parallel_full_relation(index, compile_query("a")) == set()

    def test_single_block_is_the_sequential_engine(self):
        graph = generators.random_graph(20, 50, labels=("a", "b"), rng=3)
        index = graph.label_index()
        automaton = compile_query("a.(a|b)*")
        expected = product.full_relation(index, automaton)
        for backend in ("thread", "fork"):
            assert parallel_full_relation(index, automaton, 1, backend) == expected

    def test_more_blocks_than_nodes_caps_at_one_source_each(self):
        graph = generators.chain(4)
        index = graph.label_index()
        automaton = compile_query("a*")
        expected = product.full_relation(index, automaton)
        assert len(split_blocks(index.nodes, 9)) == graph.num_nodes
        for backend in ("thread", "fork"):
            assert parallel_full_relation(index, automaton, 9, backend) == expected

    def test_disconnected_components_keep_local_answers(self):
        graph = DataGraph(alphabet={"a"})
        for component in range(3):
            for position in range(4):
                graph.add_node(f"c{component}n{position}", component)
            for position in range(3):
                graph.add_edge(f"c{component}n{position}", "a", f"c{component}n{position + 1}")
        index = graph.label_index()
        relation = parallel_full_relation(index, compile_query("a+"), num_blocks=3)
        assert relation == product.full_relation(index, compile_query("a+"))
        assert all(u[:2] == v[:2] for u, v in relation)
        assert len(relation) == 3 * 6

    def test_paths_cross_every_block_boundary(self):
        # One source per block on a chain: every answer path leaves its
        # block, yet each block still walks the whole graph.
        graph = generators.chain(6)
        index = graph.label_index()
        automaton = compile_query("a.a*")
        relation = parallel_full_relation(index, automaton, num_blocks=graph.num_nodes)
        assert relation == product.full_relation(index, automaton)
        count = graph.num_nodes
        assert len(relation) == count * (count - 1) // 2

    @pytest.mark.parametrize("text", RPQ_POOL)
    def test_randomised_block_counts_agree(self, text):
        graph = generators.random_graph(30, 70, labels=("a", "b"), rng=17)
        index = graph.label_index()
        automaton = compile_query(text)
        expected = product.full_relation(index, automaton)
        for num_blocks in (2, 3, 7, 30):
            assert parallel_full_relation(index, automaton, num_blocks, "thread") == expected
