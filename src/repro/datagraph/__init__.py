"""Data graphs: the data model of the paper (Section 2) and supporting tools.

The sub-package provides the data graph structure itself, paths and data
paths, property graphs and their abstraction into data graphs, the
relational view ``D_G``, homomorphisms (plain and null-aware), synthetic
generators and (de)serialisation.
"""

from .builder import GraphBuilder
from .compact import CompactLabelIndex
from .graph import DataGraph, Edge
from .index import LabelIndex
from .morphisms import find_homomorphism, find_isomorphism, is_homomorphism, is_null_homomorphism
from .node import Node, NodeId
from .paths import DataPath
from .property_graph import PropertyGraph
from .serialization import graph_from_dict, graph_from_json, graph_to_dict, graph_to_json
from .values import (
    NULL,
    DataValue,
    FreshValueFactory,
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
    "DataPath",
    "GraphBuilder",
    "PropertyGraph",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "NULL",
    "DataValue",
    "is_null",
    "values_equal",
    "values_differ",
    "FreshValueFactory",
    "is_homomorphism",
    "is_null_homomorphism",
    "find_homomorphism",
    "find_isomorphism",
]
