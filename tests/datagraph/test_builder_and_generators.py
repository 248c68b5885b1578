"""Tests for the graph builder and synthetic generators."""

from __future__ import annotations

import random

import pytest

from repro.datagraph import GraphBuilder
from repro.datagraph import generators
from repro.exceptions import PathError, WorkloadError


class TestGraphBuilder:
    def test_chaining(self):
        g = (
            GraphBuilder(name="b")
            .node("a", 1)
            .nodes([("b", 2), ("c", 3)])
            .edge("a", "r", "b")
            .edges([("b", "r", "c"), ("c", "s", "a")])
            .build()
        )
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.name == "b"

    def test_edge_creates_missing_endpoints_with_null(self):
        g = GraphBuilder().edge("x", "r", "y").build()
        assert g.node("x").is_null
        assert g.node("y").is_null

    def test_path_with_values(self):
        g = GraphBuilder().path(["p", "q", "r"], ["a", "b"], values=[1, 2, 3]).build()
        assert g.value_of("q") == 2
        assert g.has_edge("p", "a", "q")

    def test_path_length_mismatch(self):
        with pytest.raises(PathError):
            GraphBuilder().path(["p", "q"], ["a", "b"])
        with pytest.raises(PathError):
            GraphBuilder().path(["p", "q"], ["a"], values=[1])

    def test_declare_labels(self):
        g = GraphBuilder().declare_labels(["x", "y"]).build()
        assert g.alphabet == frozenset({"x", "y"})


class TestGenerators:
    def test_chain_generator(self):
        g = generators.chain(5, labels=("a", "b"))
        assert g.num_nodes == 6
        assert g.num_edges == 5
        assert g.has_edge("n0", "a", "n1")
        assert g.has_edge("n1", "b", "n2")

    def test_chain_with_domain(self):
        g = generators.chain(20, domain_size=2, rng=1)
        assert len({node.value for node in g.nodes}) <= 2

    def test_cycle_generator(self):
        g = generators.cycle(4)
        assert g.num_edges == 4
        with pytest.raises(WorkloadError):
            generators.cycle(0)

    def test_random_graph(self):
        g = generators.random_graph(10, 30, rng=7)
        assert g.num_nodes == 10
        assert g.num_edges <= 30
        with pytest.raises(WorkloadError):
            generators.random_graph(0, 1)

    def test_random_graph_determinism(self):
        g1 = generators.random_graph(8, 20, rng=42)
        g2 = generators.random_graph(8, 20, rng=42)
        assert g1 == g2

    def test_random_graph_no_self_loops(self):
        g = generators.random_graph(5, 40, rng=2, allow_self_loops=False)
        for source, _, target in g.edges:
            assert source.id != target.id

    def test_random_data_values_domain(self):
        values = generators.random_data_values(100, 3, rng=1)
        assert len(set(values)) <= 3
        with pytest.raises(WorkloadError):
            generators.random_data_values(5, 0)

    def test_rng_accepts_random_instance(self):
        rng = random.Random(0)
        g = generators.chain(3, rng=rng, domain_size=5)
        assert g.num_nodes == 4

    def test_community_graph_shape(self):
        g = generators.community_graph(3, 4, intra_edges_per_node=2, bridges_per_community=1, rng=5)
        assert g.num_nodes == 12
        assert g.alphabet == {"knows", "bridge"}
        # intra edges stay within a community; bridges go to the next one
        for source, label, target in g.edges:
            source_community = str(source.id).split("n")[0]
            target_community = str(target.id).split("n")[0]
            if label == "bridge":
                assert source_community != target_community
            else:
                assert source_community == target_community
        bridges = sum(1 for _, label, _ in g.edges if label == "bridge")
        assert bridges == 3

    def test_community_graph_determinism_and_validation(self):
        assert generators.community_graph(2, 3, rng=9) == generators.community_graph(2, 3, rng=9)
        single = generators.community_graph(1, 4, rng=1)
        assert all(label != "bridge" for _, label, _ in single.edges)
        with pytest.raises(WorkloadError):
            generators.community_graph(0, 4)
