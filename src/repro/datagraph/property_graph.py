"""Property graphs and their abstraction as data graphs.

The paper's motivation (Section 1) is that real graph databases such as
Neo4j use *property graphs*: nodes and edges carry records of key/value
properties.  Its theoretical results are stated for *data graphs*, where
each node carries a single data value, and the paper notes that property
graphs can be modelled by data graphs "by pushing data from edges to
nodes and by creating additional nodes to store multiple data values".

This module implements that modelling step so that property-graph-shaped
workloads can be run through the schema-mapping machinery:

* every property-graph node becomes a data-graph node whose value is a
  designated *primary* property (or null if absent);
* every further node property ``k = v`` becomes a fresh node with value
  ``v`` connected by an edge labelled ``prop:k``;
* every edge becomes either a plain labelled edge (if it has no
  properties) or a fresh intermediate node reached/left by ``label`` and
  ``label:out`` edges, with its properties attached to the intermediate
  node in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..exceptions import GraphError, UnknownNodeError
from .graph import DataGraph
from .node import NodeId
from .values import NULL, DataValue

__all__ = ["PropertyNode", "PropertyEdge", "PropertyGraph"]

PROPERTY_EDGE_PREFIX = "prop:"
EDGE_OUT_SUFFIX = ":out"


@dataclass
class PropertyNode:
    """A property-graph node: an id, optional labels and a property record."""

    id: NodeId
    labels: Tuple[str, ...] = ()
    properties: Dict[str, DataValue] = field(default_factory=dict)


@dataclass
class PropertyEdge:
    """A property-graph edge: endpoints, a type label and a property record."""

    source: NodeId
    label: str
    target: NodeId
    properties: Dict[str, DataValue] = field(default_factory=dict)


class PropertyGraph:
    """A minimal property graph in the style of Neo4j / LDBC.

    Only the features needed to exercise the data-graph abstraction are
    modelled: node labels, node properties, edge types and edge
    properties.  Multi-edges with identical endpoints and type are
    collapsed (as in the data graph model).
    """

    def __init__(self, name: str = ""):
        self._nodes: Dict[NodeId, PropertyNode] = {}
        self._edges: List[PropertyEdge] = []
        self.name = name

    def add_node(
        self,
        node_id: NodeId,
        labels: Iterable[str] = (),
        properties: Optional[Mapping[str, DataValue]] = None,
    ) -> PropertyNode:
        """Add a node with labels and a property record."""
        if node_id in self._nodes:
            raise GraphError(f"property-graph node {node_id!r} already exists")
        node = PropertyNode(node_id, tuple(labels), dict(properties or {}))
        self._nodes[node_id] = node
        return node

    def add_edge(
        self,
        source: NodeId,
        label: str,
        target: NodeId,
        properties: Optional[Mapping[str, DataValue]] = None,
    ) -> PropertyEdge:
        """Add an edge of the given type between two existing nodes."""
        if source not in self._nodes:
            raise UnknownNodeError(f"unknown property-graph node {source!r}")
        if target not in self._nodes:
            raise UnknownNodeError(f"unknown property-graph node {target!r}")
        edge = PropertyEdge(source, label, target, dict(properties or {}))
        self._edges.append(edge)
        return edge

    @property
    def nodes(self) -> Tuple[PropertyNode, ...]:
        """All property nodes in insertion order."""
        return tuple(self._nodes.values())

    @property
    def edges(self) -> Tuple[PropertyEdge, ...]:
        """All property edges in insertion order."""
        return tuple(self._edges)

    def node(self, node_id: NodeId) -> PropertyNode:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown property-graph node {node_id!r}") from None

    def to_data_graph(self, primary_property: str = "name") -> DataGraph:
        """Encode this property graph as a data graph.

        *primary_property* is the property whose value becomes the data
        value of the original node; nodes lacking it get the SQL null
        value.  The result's node ids are the original ids for original
        nodes, ``(node_id, "prop", key)`` for property nodes, and
        ``("edge", index)`` for intermediate edge nodes.
        """
        dg = DataGraph(name=self.name or "property-graph")
        for node in self.nodes:
            primary = node.properties.get(primary_property, NULL)
            dg.add_node(node.id, primary)
            for key, value in sorted(node.properties.items(), key=lambda kv: kv[0]):
                if key == primary_property:
                    continue
                prop_id: Hashable = (node.id, "prop", key)
                dg.add_node(prop_id, value)
                dg.add_edge(node.id, f"{PROPERTY_EDGE_PREFIX}{key}", prop_id)
            for label in node.labels:
                label_id: Hashable = (node.id, "label", label)
                dg.add_node(label_id, label)
                dg.add_edge(node.id, f"{PROPERTY_EDGE_PREFIX}label", label_id)
        for index, edge in enumerate(self.edges):
            if not edge.properties:
                dg.add_edge(edge.source, edge.label, edge.target)
                continue
            edge_id: Hashable = ("edge", index)
            dg.add_node(edge_id, NULL)
            dg.add_edge(edge.source, edge.label, edge_id)
            dg.add_edge(edge_id, f"{edge.label}{EDGE_OUT_SUFFIX}", edge.target)
            for key, value in sorted(edge.properties.items(), key=lambda kv: kv[0]):
                prop_id = ("edge", index, "prop", key)
                dg.add_node(prop_id, value)
                dg.add_edge(edge_id, f"{PROPERTY_EDGE_PREFIX}{key}", prop_id)
        return dg
