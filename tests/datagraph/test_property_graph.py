"""Tests for property graphs and their encoding as data graphs."""

from __future__ import annotations

import pytest

from repro.datagraph import PropertyGraph, property_graph_to_data_graph
from repro.exceptions import GraphError, UnknownNodeError


def _social_pg() -> PropertyGraph:
    pg = PropertyGraph(name="social")
    pg.add_node("alice", labels=("Person",), properties={"name": "Alice", "age": 34})
    pg.add_node("bob", labels=("Person",), properties={"name": "Bob"})
    pg.add_node("acme", labels=("Company",), properties={"name": "ACME"})
    pg.add_edge("alice", "KNOWS", "bob", properties={"since": 2010})
    pg.add_edge("alice", "WORKS_AT", "acme")
    return pg


class TestPropertyGraph:
    def test_nodes_and_edges(self):
        pg = _social_pg()
        assert len(pg.nodes) == 3
        assert len(pg.edges) == 2
        assert pg.node("alice").properties["age"] == 34

    def test_duplicate_node_rejected(self):
        pg = PropertyGraph()
        pg.add_node("a")
        with pytest.raises(GraphError):
            pg.add_node("a")

    def test_edge_requires_existing_nodes(self):
        pg = PropertyGraph()
        pg.add_node("a")
        with pytest.raises(UnknownNodeError):
            pg.add_edge("a", "R", "missing")
        with pytest.raises(UnknownNodeError):
            pg.add_edge("missing", "R", "a")

    def test_unknown_node_lookup(self):
        pg = PropertyGraph()
        with pytest.raises(UnknownNodeError):
            pg.node("ghost")


class TestDataGraphEncoding:
    def test_primary_property_becomes_value(self):
        dg = _social_pg().to_data_graph(primary_property="name")
        assert dg.value_of("alice") == "Alice"
        assert dg.value_of("acme") == "ACME"

    def test_missing_primary_property_is_null(self):
        pg = PropertyGraph()
        pg.add_node("x", properties={"age": 1})
        dg = pg.to_data_graph(primary_property="name")
        assert dg.node("x").is_null

    def test_secondary_properties_become_nodes(self):
        dg = _social_pg().to_data_graph()
        prop_node = ("alice", "prop", "age")
        assert dg.has_node(prop_node)
        assert dg.value_of(prop_node) == 34
        assert dg.has_edge("alice", "prop:age", prop_node)

    def test_labels_become_nodes(self):
        dg = _social_pg().to_data_graph()
        label_node = ("alice", "label", "Person")
        assert dg.has_node(label_node)
        assert dg.value_of(label_node) == "Person"

    def test_edge_without_properties_is_plain_edge(self):
        dg = _social_pg().to_data_graph()
        assert dg.has_edge("alice", "WORKS_AT", "acme")

    def test_edge_with_properties_gets_intermediate_node(self):
        dg = _social_pg().to_data_graph()
        edge_node = ("edge", 0)
        assert dg.has_node(edge_node)
        assert dg.node(edge_node).is_null
        assert dg.has_edge("alice", "KNOWS", edge_node)
        assert dg.has_edge(edge_node, "KNOWS:out", "bob")
        prop_node = ("edge", 0, "prop", "since")
        assert dg.value_of(prop_node) == 2010
        assert dg.has_edge(edge_node, "prop:since", prop_node)

    def test_function_and_method_agree(self):
        pg = _social_pg()
        assert property_graph_to_data_graph(pg) == pg.to_data_graph()

    def test_every_property_value_is_reachable(self):
        """The conversion must not lose any data value from the property graph."""
        pg = _social_pg()
        dg = pg.to_data_graph()
        dg_values = {node.value for node in dg.nodes}
        for node in pg.nodes:
            for value in node.properties.values():
                assert value in dg_values
        for edge in pg.edges:
            for value in edge.properties.values():
                assert value in dg_values
