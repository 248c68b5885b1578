"""Serialisation of data graphs to and from plain dictionaries / JSON.

Graphs are exchanged between the benchmark harness, examples and tests as
plain dictionaries with the shape::

    {
        "name": "my-graph",
        "alphabet": ["a", "b"],
        "nodes": [{"id": "n0", "value": "Alice"}, {"id": "n1", "value": null}],
        "edges": [{"source": "n0", "label": "a", "target": "n1"}],
    }

The SQL null data value is represented as JSON ``null``; the graph
stores a ``None`` value as that null too, so it round-trips.  Node ids
that are not JSON scalars (e.g. tuples produced by the property-graph
encoding) are stringified on export and therefore do not round-trip;
the :func:`graph_to_dict` function raises if exact round-tripping is
requested for such a graph.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Mapping

from ..exceptions import SerializationError
from .graph import DataGraph
from .values import is_null

__all__ = ["graph_to_dict", "graph_from_dict", "graph_to_json", "graph_from_json"]

_SCALAR_TYPES = (str, int, float, bool)


def _export_id(node_id: Any, strict: bool) -> Any:
    if isinstance(node_id, _SCALAR_TYPES):
        return node_id
    if strict:
        raise SerializationError(
            f"node id {node_id!r} is not a JSON scalar; export with strict=False to stringify"
        )
    return repr(node_id)


def _export_value(value: Any, strict: bool) -> Any:
    if is_null(value):
        return None
    if isinstance(value, _SCALAR_TYPES):
        return value
    if strict:
        raise SerializationError(
            f"data value {value!r} is not a JSON scalar; export with strict=False to stringify"
        )
    return repr(value)


def graph_to_dict(graph: DataGraph, strict: bool = True) -> Dict[str, Any]:
    """Convert a data graph into a JSON-compatible dictionary.

    Parameters
    ----------
    graph:
        The graph to export.
    strict:
        When ``True`` (default) non-scalar node ids or values raise a
        :class:`~repro.exceptions.SerializationError`; when ``False`` they
        are replaced by their ``repr``.
    """
    return {
        "name": graph.name,
        "alphabet": sorted(graph.alphabet),
        "nodes": [
            {"id": _export_id(node.id, strict), "value": _export_value(node.value, strict)}
            for node in graph.nodes
        ],
        "edges": [
            {
                "source": _export_id(source.id, strict),
                "label": label,
                "target": _export_id(target.id, strict),
            }
            for source, label, target in graph.edges
        ],
    }


def graph_from_dict(payload: Mapping[str, Any]) -> DataGraph:
    """Rebuild a data graph from a dictionary produced by :func:`graph_to_dict`."""
    try:
        nodes: Iterable[Mapping[str, Any]] = payload["nodes"]
        edges: Iterable[Mapping[str, Any]] = payload["edges"]
    except KeyError as missing:
        raise SerializationError(f"graph dictionary is missing key {missing}") from None
    graph = DataGraph(alphabet=payload.get("alphabet", ()), name=payload.get("name", ""))
    for entry in nodes:
        if "id" not in entry:
            raise SerializationError(f"node entry without an id: {entry!r}")
        graph.add_node(entry["id"], entry.get("value"))
    for entry in edges:
        for key in ("source", "label", "target"):
            if key not in entry:
                raise SerializationError(f"edge entry missing {key!r}: {entry!r}")
        graph.add_edge(entry["source"], entry["label"], entry["target"])
    return graph


def graph_to_json(graph: DataGraph, strict: bool = True, indent: int | None = 2) -> str:
    """Serialise a graph to a JSON string."""
    return json.dumps(graph_to_dict(graph, strict=strict), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> DataGraph:
    """Deserialise a graph from a JSON string."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise SerializationError("JSON payload must be an object")
    return graph_from_dict(payload)
