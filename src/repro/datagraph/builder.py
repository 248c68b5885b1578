"""Fluent builder for data graphs.

Examples and tests construct many small graphs; :class:`GraphBuilder`
provides a compact, chainable API for doing so without repeating
``add_node`` / ``add_edge`` boilerplate, while still going through the
validating :class:`~repro.datagraph.graph.DataGraph` methods.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from ..exceptions import PathError
from .graph import DataGraph
from .node import NodeId
from .values import NULL, DataValue

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Chainable construction of :class:`~repro.datagraph.graph.DataGraph` objects.

    Examples
    --------
    >>> g = (GraphBuilder(name="toy")
    ...      .node("a", 1).node("b", 2).node("c", 1)
    ...      .edge("a", "r", "b").edge("b", "r", "c")
    ...      .build())
    >>> g.num_nodes, g.num_edges
    (3, 2)
    """

    def __init__(self, alphabet: Iterable[str] = (), name: str = ""):
        self._graph = DataGraph(alphabet=alphabet, name=name)

    def node(self, node_id: NodeId, value: DataValue = NULL) -> "GraphBuilder":
        """Add a node; returns the builder for chaining."""
        self._graph.add_node(node_id, value)
        return self

    def nodes(self, items: Iterable[Tuple[NodeId, DataValue]]) -> "GraphBuilder":
        """Add many ``(id, value)`` nodes at once."""
        for node_id, value in items:
            self._graph.add_node(node_id, value)
        return self

    def edge(self, source: NodeId, label: str, target: NodeId) -> "GraphBuilder":
        """Add an edge between existing nodes, creating missing endpoints with null values."""
        if not self._graph.has_node(source):
            self._graph.add_node(source)
        if not self._graph.has_node(target):
            self._graph.add_node(target)
        self._graph.add_edge(source, label, target)
        return self

    def edges(self, items: Iterable[Tuple[NodeId, str, NodeId]]) -> "GraphBuilder":
        """Add many ``(source, label, target)`` edges at once."""
        for source, label, target in items:
            self.edge(source, label, target)
        return self

    def path(
        self,
        node_ids: Sequence[NodeId],
        labels: Sequence[str],
        values: Optional[Sequence[DataValue]] = None,
    ) -> "GraphBuilder":
        """Add a path of fresh or existing nodes.

        Parameters
        ----------
        node_ids:
            The node ids along the path.
        labels:
            The edge labels; must be one shorter than *node_ids*.
        values:
            Optional data values for the nodes; if given, must align with
            *node_ids*.  Existing nodes keep their current values and the
            provided value must agree.
        """
        if len(node_ids) != len(labels) + 1:
            raise PathError(
                f"path over {len(labels)} labels needs {len(labels) + 1} node ids, got {len(node_ids)}"
            )
        if values is not None and len(values) != len(node_ids):
            raise PathError("values, when given, must align one-to-one with node ids")
        for index, node_id in enumerate(node_ids):
            value = values[index] if values is not None else NULL
            if not self._graph.has_node(node_id):
                self._graph.add_node(node_id, value)
            elif values is not None:
                self._graph.add_node(node_id, value)  # validates agreement
        for index, label in enumerate(labels):
            self._graph.add_edge(node_ids[index], label, node_ids[index + 1])
        return self

    def declare_labels(self, labels: Iterable[str]) -> "GraphBuilder":
        """Declare alphabet labels that may remain unused by edges."""
        self._graph.declare_labels(labels)
        return self

    def build(self) -> DataGraph:
        """Return the constructed graph."""
        return self._graph
