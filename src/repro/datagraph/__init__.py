"""Data graphs: the data model of the paper (Section 2) and supporting tools.

The sub-package provides the data graph structure itself, paths and data
paths, property graphs and their abstraction into data graphs, the
relational view ``D_G``, homomorphisms (plain and null-aware), synthetic
generators and (de)serialisation.
"""

from .builder import GraphBuilder, chain_graph, cycle_graph, graph_from_edges
from .compact import CompactLabelIndex
from .graph import DataGraph, Edge
from .index import LabelIndex
from .morphisms import (
    apply_homomorphism,
    find_homomorphism,
    find_isomorphism,
    is_homomorphism,
    is_isomorphism,
    is_null_homomorphism,
)
from .node import Node, NodeId, make_node, null_node
from .paths import DataPath, Path, enumerate_paths, path_from_ids
from .property_graph import PropertyEdge, PropertyGraph, PropertyNode, property_graph_to_data_graph
from .serialization import graph_from_dict, graph_from_json, graph_to_dict, graph_to_json
from .values import (
    NULL,
    DataValue,
    FreshValueFactory,
    NullType,
    fresh_value_factory,
    is_null,
    values_differ,
    values_equal,
)

__all__ = [
    "DataGraph",
    "Edge",
    "LabelIndex",
    "CompactLabelIndex",
    "Node",
    "NodeId",
    "make_node",
    "null_node",
    "Path",
    "DataPath",
    "enumerate_paths",
    "path_from_ids",
    "GraphBuilder",
    "graph_from_edges",
    "chain_graph",
    "cycle_graph",
    "PropertyGraph",
    "PropertyNode",
    "PropertyEdge",
    "property_graph_to_data_graph",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "NULL",
    "NullType",
    "DataValue",
    "is_null",
    "values_equal",
    "values_differ",
    "FreshValueFactory",
    "fresh_value_factory",
    "is_homomorphism",
    "is_null_homomorphism",
    "find_homomorphism",
    "apply_homomorphism",
    "is_isomorphism",
    "find_isomorphism",
]
