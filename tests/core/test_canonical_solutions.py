"""Tests for universal and least informative solutions (Sections 7–8)."""

from __future__ import annotations

import pytest

from repro.core import (
    GraphSchemaMapping,
    homomorphism_to_solution,
    is_solution,
    least_informative_solution,
    universal_solution,
)
from repro.core.canonical import build_skeleton
from repro.core.solutions import mapping_domain
from repro.datagraph import GraphBuilder, find_isomorphism, is_null_homomorphism
from repro.exceptions import SolutionError, UnsupportedQueryError


@pytest.fixture
def source():
    return (
        GraphBuilder(name="src")
        .node("a", 1)
        .node("b", 2)
        .node("c", 1)
        .edge("a", "r", "b")
        .edge("b", "r", "c")
        .edge("a", "s", "c")
        .build()
    )


@pytest.fixture
def mapping():
    """r ⟶ t.t (two steps);  s ⟶ u (one step)."""
    return GraphSchemaMapping([("r", "t.t"), ("s", "u")], name="expand")


class TestSkeleton:
    def test_requirements(self, mapping, source):
        skeleton = build_skeleton(mapping, source)
        assert len(skeleton.requirements) == 3  # two r-pairs + one s-pair
        assert skeleton.invented_node_count() == 2  # one intermediate per r-pair
        assert {node.id for node in skeleton.domain} == {"a", "b", "c"}

    def test_non_relational_rejected(self, source):
        mapping = GraphSchemaMapping([("r", "t*")])
        with pytest.raises(UnsupportedQueryError):
            build_skeleton(mapping, source)

    def test_epsilon_rule_between_distinct_nodes_has_no_solution(self, source):
        mapping = GraphSchemaMapping([("r", "eps")], target_alphabet={"t"})
        with pytest.raises(SolutionError):
            build_skeleton(mapping, source)

    def test_epsilon_rule_on_loops_is_fine(self):
        graph = GraphBuilder().node("x", 7).edge("x", "r", "x").build()
        mapping = GraphSchemaMapping([("r", "eps")], target_alphabet={"t"})
        skeleton = build_skeleton(mapping, graph)
        assert skeleton.invented_node_count() == 0


class TestUniversalSolution:
    def test_structure(self, mapping, source):
        target = universal_solution(mapping, source)
        # domain nodes keep their values
        assert target.value_of("a") == 1
        assert target.value_of("b") == 2
        # invented nodes are null nodes
        assert len(target.null_nodes()) == 2
        # each r-pair became a 2-step t-path, the s-pair a single u-edge
        assert target.num_edges == 2 * 2 + 1
        assert ("a", "u", "c") in target.edge_set()

    def test_is_a_solution(self, mapping, source):
        target = universal_solution(mapping, source)
        assert is_solution(mapping, source, target)

    def test_unique_up_to_renaming(self, mapping, source):
        first = universal_solution(mapping, source)
        second = universal_solution(mapping, source)
        assert find_isomorphism(first, second) is not None

    def test_lemma_1_homomorphism_into_arbitrary_solution(self, mapping, source):
        universal = universal_solution(mapping, source)
        # An arbitrary, richer solution: paths go through a shared hub with a concrete value.
        other = (
            GraphBuilder()
            .node("a", 1)
            .node("b", 2)
            .node("c", 1)
            .node("hub", 99)
            .edge("a", "t", "hub")
            .edge("hub", "t", "b")
            .edge("b", "t", "hub")
            .edge("hub", "t", "c")
            .edge("a", "u", "c")
            .edge("a", "extra", "b")
            .build()
        )
        assert is_solution(mapping, source, other)
        h = homomorphism_to_solution(universal, other)
        assert h is not None
        assert is_null_homomorphism(h, universal, other)
        for node in mapping_domain(mapping, source):
            assert h[node.id] == node.id

    def test_no_invented_nodes_for_single_letter_rules(self, source):
        mapping = GraphSchemaMapping([("r", "t"), ("s", "u")])
        target = universal_solution(mapping, source)
        assert not target.null_nodes()
        assert target.num_edges == 3

    def test_unused_rules_leave_target_empty(self):
        graph = GraphBuilder().node("x", 1).build()  # no edges at all
        mapping = GraphSchemaMapping([("r", "t")])
        target = universal_solution(mapping, graph)
        assert target.num_nodes == 0
        assert target.num_edges == 0


class TestLeastInformativeSolution:
    def test_fresh_distinct_values(self, mapping, source):
        target = least_informative_solution(mapping, source)
        assert not target.null_nodes()
        invented_values = [
            node.value for node in target.nodes if node.id not in {"a", "b", "c"}
        ]
        assert len(invented_values) == 2
        assert len(set(invented_values)) == 2
        # fresh values do not collide with source values
        assert not (set(invented_values) & {1, 2})

    def test_is_a_solution(self, mapping, source):
        assert is_solution(mapping, source, least_informative_solution(mapping, source))

    def test_same_shape_as_universal(self, mapping, source):
        universal = universal_solution(mapping, source)
        least = least_informative_solution(mapping, source)
        assert universal.num_nodes == least.num_nodes
        assert universal.num_edges == least.num_edges
        assert {edge[1] for edge in universal.edge_set()} == {edge[1] for edge in least.edge_set()}

    def test_finite_union_rule_uses_shortest_word(self, source):
        mapping = GraphSchemaMapping([("s", "long.path.here | short")])
        target = least_informative_solution(mapping, source)
        assert ("a", "short", "c") in target.edge_set()
        assert target.num_edges == 1
