"""Tests for the DataGraph structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphSession, Query
from repro.datagraph import NULL, DataGraph, GraphBuilder, Node, graph_from_json, graph_to_json
from repro.exceptions import DuplicateNodeError, InvalidEdgeError, UnknownNodeError


class TestNodeManagement:
    def test_add_and_get_node(self):
        g = DataGraph()
        node = g.add_node("n1", 42)
        assert node == Node("n1", 42)
        assert g.node("n1") is node or g.node("n1") == node
        assert g.has_node("n1")
        assert not g.has_node("n2")

    def test_readding_identical_node_is_noop(self):
        g = DataGraph()
        g.add_node("n1", 42)
        g.add_node("n1", 42)
        assert g.num_nodes == 1

    def test_duplicate_id_different_value_rejected(self):
        g = DataGraph()
        g.add_node("n1", 42)
        with pytest.raises(DuplicateNodeError):
            g.add_node("n1", 43)

    def test_null_node_readd(self):
        g = DataGraph()
        g.add_node("n1")
        g.add_node("n1", NULL)
        assert g.num_nodes == 1
        assert g.node("n1").is_null

    def test_unknown_node_raises(self):
        g = DataGraph()
        with pytest.raises(UnknownNodeError):
            g.node("missing")
        assert g.get_node("missing") is None

    def test_value_of_and_set_value(self):
        g = DataGraph()
        g.add_node("n1", "old")
        assert g.value_of("n1") == "old"
        g.set_value("n1", "new")
        assert g.value_of("n1") == "new"

    def test_remove_node_removes_incident_edges(self):
        g = DataGraph()
        g.add_node("a", 1)
        g.add_node("b", 2)
        g.add_node("c", 3)
        g.add_edge("a", "r", "b")
        g.add_edge("b", "r", "c")
        g.add_edge("c", "r", "a")
        g.remove_node("b")
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge("c", "r", "a")

    def test_remove_unknown_node_raises(self):
        g = DataGraph()
        with pytest.raises(UnknownNodeError):
            g.remove_node("ghost")

    def test_null_nodes_listing(self):
        g = DataGraph()
        g.add_node("a", 1)
        g.add_node("b")
        assert [n.id for n in g.null_nodes()] == ["b"]


class TestNoneIsTheSqlNull:
    """``None`` is stored as :data:`NULL` by every write, so a graph and
    its JSON round trip agree and the SQL-null semantics see the null."""

    def test_every_write_stores_null(self):
        g = GraphBuilder().node("a", None).node("b", 1).build()
        g.set_value("b", None)
        assert g.node("a").value is NULL and g.node("b").value is NULL
        assert g.map_values(lambda node: None).node("a").value is NULL
        with g.batch() as batch:
            batch.add_node("c", None)
        assert [node.id for node in g.null_nodes()] == ["a", "b", "c"]
        g.add_node("a", NULL)  # the same node: a no-op
        assert g.num_nodes == 3

    def test_the_json_round_trip_is_the_graph(self):
        g = GraphBuilder().node("a", None).node("b", 1).edge("a", "x", "b").build()
        assert graph_from_json(graph_to_json(g)) == g

    def test_equality_under_null_semantics_is_false_at_none(self):
        g = GraphBuilder().node("a", None).node("b", None).edge("a", "x", "b").build()
        query = Query.parse("(x)=", dialect="ree")
        assert GraphSession(g).run(query, null_semantics=True).count() == 0
        assert GraphSession(g).run(query).count() == 1


class TestEdgeManagement:
    def test_add_edge_requires_existing_nodes(self):
        g = DataGraph()
        g.add_node("a", 1)
        with pytest.raises(UnknownNodeError):
            g.add_edge("a", "r", "missing")

    def test_edge_label_must_be_string(self):
        g = DataGraph()
        g.add_node("a", 1)
        g.add_node("b", 2)
        with pytest.raises(InvalidEdgeError):
            g.add_edge("a", 7, "b")
        with pytest.raises(InvalidEdgeError):
            g.add_edge("a", "", "b")

    def test_duplicate_edge_not_counted_twice(self):
        g = DataGraph()
        g.add_node("a", 1)
        g.add_node("b", 2)
        g.add_edge("a", "r", "b")
        g.add_edge("a", "r", "b")
        assert g.num_edges == 1

    def test_edge_relation(self, toy_graph):
        knows = toy_graph.edge_relation("knows")
        assert (toy_graph.node("alice"), toy_graph.node("bob")) in knows
        assert len(knows) == 4

    def test_successors_and_predecessors(self, toy_graph):
        succ = list(toy_graph.successors("alice"))
        assert ("knows", toy_graph.node("bob")) in succ
        assert ("worksAt", toy_graph.node("uni")) in succ
        pred = list(toy_graph.predecessors("alice", "knows"))
        assert pred == [("knows", toy_graph.node("dave"))]

    def test_successors_unknown_node(self, toy_graph):
        with pytest.raises(UnknownNodeError):
            list(toy_graph.successors("ghost"))

    def test_degrees(self, toy_graph):
        assert toy_graph.out_degree("alice") == 2
        assert toy_graph.in_degree("uni") == 2

    def test_remove_edge(self, toy_graph):
        toy_graph.remove_edge("alice", "knows", "bob")
        assert not toy_graph.has_edge("alice", "knows", "bob")
        # removing again is a no-op
        toy_graph.remove_edge("alice", "knows", "bob")

    def test_add_path(self):
        g = DataGraph()
        for i in range(4):
            g.add_node(i, i)
        g.add_path([0, 1, 2, 3], ["a", "b", "a"])
        assert g.has_edge(0, "a", 1)
        assert g.has_edge(1, "b", 2)
        assert g.has_edge(2, "a", 3)

    def test_add_path_length_mismatch(self):
        g = DataGraph()
        g.add_node(0, 0)
        with pytest.raises(InvalidEdgeError):
            g.add_path([0], ["a"])


class TestGraphOperations:
    def test_alphabet_includes_declared_and_used(self):
        g = DataGraph(alphabet={"x"})
        g.add_node("a", 1)
        g.add_node("b", 2)
        g.add_edge("a", "y", "b")
        assert g.alphabet == frozenset({"x", "y"})

    def test_declare_labels_validation(self):
        g = DataGraph()
        with pytest.raises(InvalidEdgeError):
            g.declare_labels([""])

    def test_copy_is_independent(self, toy_graph):
        clone = toy_graph.copy()
        assert clone == toy_graph
        clone.add_node("eve", "Berlin")
        assert not toy_graph.has_node("eve")

    def test_subgraph(self, toy_graph):
        sub = toy_graph.subgraph(["alice", "bob", "uni"])
        assert sub.num_nodes == 3
        assert sub.has_edge("alice", "knows", "bob")
        assert sub.has_edge("alice", "worksAt", "uni")
        assert not sub.has_edge("bob", "knows", "carol")

    def test_union(self):
        g1 = DataGraph()
        g1.add_node("a", 1)
        g1.add_node("b", 2)
        g1.add_edge("a", "r", "b")
        g2 = DataGraph()
        g2.add_node("b", 2)
        g2.add_node("c", 3)
        g2.add_edge("b", "s", "c")
        merged = g1.union(g2)
        assert merged.num_nodes == 3
        assert merged.has_edge("a", "r", "b")
        assert merged.has_edge("b", "s", "c")

    def test_union_conflicting_values(self):
        g1 = DataGraph()
        g1.add_node("a", 1)
        g2 = DataGraph()
        g2.add_node("a", 2)
        with pytest.raises(DuplicateNodeError):
            g1.union(g2)

    def test_map_values(self, toy_graph):
        upper = toy_graph.map_values(lambda node: str(node.value).upper())
        assert upper.value_of("alice") == "EDINBURGH"
        assert upper.num_edges == toy_graph.num_edges

    def test_contains_graph(self, toy_graph):
        sub = toy_graph.subgraph(["alice", "bob"])
        assert toy_graph.contains_graph(sub)
        assert not sub.contains_graph(toy_graph)

    def test_contains_graph_value_mismatch(self, toy_graph):
        other = toy_graph.copy()
        other.set_value("alice", "Glasgow")
        assert not toy_graph.contains_graph(other)

    def test_equality_and_edge_set(self, toy_graph):
        clone = toy_graph.copy()
        assert clone == toy_graph
        clone.remove_edge("alice", "knows", "bob")
        assert clone != toy_graph
        assert ("alice", "knows", "bob") in toy_graph.edge_set()

    def test_equality_other_type(self, toy_graph):
        assert toy_graph != 42

    def test_len_contains_iter(self, toy_graph):
        assert len(toy_graph) == 5
        assert "alice" in toy_graph
        assert {node.id for node in toy_graph} == {"alice", "bob", "carol", "dave", "uni"}

    def test_repr_and_pretty(self, toy_graph):
        assert "5 nodes" in repr(toy_graph)
        assert "alice" in toy_graph.pretty()

    def test_size(self, toy_graph):
        assert toy_graph.size() == toy_graph.num_nodes + toy_graph.num_edges


class TestReachability:
    def test_reachable_from_includes_self(self, toy_graph):
        assert "alice" in toy_graph.reachable_from("alice")

    def test_reachable_follows_cycle(self, toy_graph):
        reachable = toy_graph.reachable_from("alice", labels={"knows"})
        assert reachable == {"alice", "bob", "carol", "dave"}

    def test_reachable_respects_labels(self, toy_graph):
        reachable = toy_graph.reachable_from("alice", labels={"worksAt"})
        assert reachable == {"alice", "uni"}


@st.composite
def random_graph_strategy(draw):
    """Random small graphs for property tests."""
    size = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    g = DataGraph(alphabet=labels)
    for i in range(size):
        g.add_node(i, draw(st.integers(min_value=0, max_value=3)))
    num_edges = draw(st.integers(min_value=0, max_value=size * size))
    for _ in range(num_edges):
        source = draw(st.integers(min_value=0, max_value=size - 1))
        target = draw(st.integers(min_value=0, max_value=size - 1))
        label = draw(st.sampled_from(labels))
        g.add_edge(source, label, target)
    return g


class TestGraphProperties:
    @given(random_graph_strategy())
    @settings(max_examples=50)
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @given(random_graph_strategy())
    @settings(max_examples=50)
    def test_subgraph_of_all_nodes_is_graph(self, graph):
        assert graph.subgraph(graph.node_ids) == graph

    @given(random_graph_strategy())
    @settings(max_examples=50)
    def test_edge_count_matches_edge_set(self, graph):
        assert graph.num_edges == len(graph.edge_set()) == len(graph.edges)

    @given(random_graph_strategy())
    @settings(max_examples=50)
    def test_reachability_is_transitive(self, graph):
        for node in graph.node_ids:
            reachable = graph.reachable_from(node)
            for other in reachable:
                assert graph.reachable_from(other) <= reachable
