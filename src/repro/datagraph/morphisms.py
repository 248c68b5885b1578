"""Homomorphisms between data graphs.

Two notions of homomorphism from the paper are implemented:

* **Plain homomorphisms** (Section 6): a map ``h`` on node ids such that
  for every edge ``((n1, d1), a, (n2, d2))`` of ``G`` the edge
  ``((h(n1), d1), a, (h(n2), d2))`` is in ``G'``.  Data values are
  preserved exactly.

* **Null-aware homomorphisms** (Section 7): for every edge
  ``((n1, d1), a, (n2, d2))`` of ``G`` there is an edge
  ``((h(n1), d1'), a, (h(n2), d2'))`` in ``G'`` with ``di = di'`` or
  ``di = null``.  Non-null values are preserved; the null may be mapped
  to any value.

The module provides both *verification* (is this map a homomorphism?) and
*search* (does some homomorphism exist, possibly extending a partial
map?).  Search is a backtracking procedure: homomorphism existence is
NP-complete in general, but the instances used by the library (universal
solutions into other solutions, gadget validations, tests) are small.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from .graph import DataGraph
from .node import NodeId
from .values import is_null

__all__ = [
    "is_homomorphism",
    "is_null_homomorphism",
    "find_homomorphism",
    "is_isomorphism",
    "find_isomorphism",
]


def _value_compatible(source_value, target_value, allow_null_relaxation: bool) -> bool:
    """Whether a node value may be mapped onto a target node value."""
    if allow_null_relaxation and is_null(source_value):
        return True
    return source_value == target_value


def is_homomorphism(
    mapping: Mapping[NodeId, NodeId], source: DataGraph, target: DataGraph
) -> bool:
    """Check that *mapping* is a plain homomorphism from *source* to *target*."""
    return _check_homomorphism(mapping, source, target, allow_null_relaxation=False)


def is_null_homomorphism(
    mapping: Mapping[NodeId, NodeId], source: DataGraph, target: DataGraph
) -> bool:
    """Check that *mapping* is a null-aware homomorphism (Section 7)."""
    return _check_homomorphism(mapping, source, target, allow_null_relaxation=True)


def _check_homomorphism(
    mapping: Mapping[NodeId, NodeId],
    source: DataGraph,
    target: DataGraph,
    allow_null_relaxation: bool,
) -> bool:
    for node in source.nodes:
        if node.id not in mapping:
            return False
        image_id = mapping[node.id]
        image = target.get_node(image_id)
        if image is None:
            return False
        if not _value_compatible(node.value, image.value, allow_null_relaxation):
            return False
    for edge_source, label, edge_target in source.edges:
        if not target.has_edge(mapping[edge_source.id], label, mapping[edge_target.id]):
            return False
    return True


def find_homomorphism(
    source: DataGraph,
    target: DataGraph,
    fixed: Optional[Mapping[NodeId, NodeId]] = None,
    allow_null_relaxation: bool = True,
) -> Optional[Dict[NodeId, NodeId]]:
    """Search for a homomorphism from *source* to *target*.

    Parameters
    ----------
    source, target:
        The two data graphs.
    fixed:
        A partial map that the homomorphism must extend (e.g. the identity
        on ``dom(M, G_s)`` in Lemma 1).
    allow_null_relaxation:
        If ``True`` (default), use the null-aware notion of Section 7;
        if ``False``, require exact value preservation everywhere.

    Returns
    -------
    dict or None
        A complete homomorphism as a dict from source node ids to target
        node ids, or ``None`` if none exists.
    """
    fixed = dict(fixed or {})
    for node_id, image_id in fixed.items():
        if not source.has_node(node_id) or not target.has_node(image_id):
            return None
        if not _value_compatible(
            source.node(node_id).value, target.node(image_id).value, allow_null_relaxation
        ):
            return None

    # Order source nodes by decreasing degree for better pruning.
    order = sorted(
        (node for node in source.nodes if node.id not in fixed),
        key=lambda node: -(source.out_degree(node.id) + source.in_degree(node.id)),
    )
    candidates: Dict[NodeId, Tuple[NodeId, ...]] = {}
    for node in order:
        options = tuple(
            candidate.id
            for candidate in target.nodes
            if _value_compatible(node.value, candidate.value, allow_null_relaxation)
        )
        if not options:
            return None
        candidates[node.id] = options

    assignment: Dict[NodeId, NodeId] = dict(fixed)

    def _consistent(node_id: NodeId, image_id: NodeId) -> bool:
        # Check every already-assigned neighbour constraint.
        for label, neighbour in source.successors(node_id):
            if neighbour.id in assignment and not target.has_edge(image_id, label, assignment[neighbour.id]):
                return False
        for label, neighbour in source.predecessors(node_id):
            if neighbour.id in assignment and not target.has_edge(assignment[neighbour.id], label, image_id):
                return False
        # Self-loops.
        for label in source.alphabet:
            if source.has_edge(node_id, label, node_id) and not target.has_edge(image_id, label, image_id):
                return False
        return True

    def _search(index: int) -> bool:
        if index == len(order):
            return True
        node = order[index]
        for image_id in candidates[node.id]:
            if _consistent(node.id, image_id):
                assignment[node.id] = image_id
                if _search(index + 1):
                    return True
                del assignment[node.id]
        return False

    # Validate the fixed part against itself (edges among fixed nodes).
    for edge_source, label, edge_target in source.edges:
        if edge_source.id in fixed and edge_target.id in fixed:
            if not target.has_edge(fixed[edge_source.id], label, fixed[edge_target.id]):
                return None

    if _search(0):
        return dict(assignment)
    return None


def is_isomorphism(mapping: Mapping[NodeId, NodeId], left: DataGraph, right: DataGraph) -> bool:
    """Check that *mapping* is an isomorphism of data graphs.

    Isomorphisms preserve values exactly in both directions and are
    bijections between the node sets with edge sets corresponding
    one-to-one.
    """
    if len(set(mapping.values())) != len(mapping):
        return False
    if set(mapping.keys()) != set(left.node_ids):
        return False
    if set(mapping.values()) != set(right.node_ids):
        return False
    if not is_homomorphism(mapping, left, right):
        return False
    inverse = {image: node_id for node_id, image in mapping.items()}
    return is_homomorphism(inverse, right, left)


def find_isomorphism(left: DataGraph, right: DataGraph) -> Optional[Dict[NodeId, NodeId]]:
    """Search for an isomorphism between two data graphs (values preserved).

    Used by tests to compare solutions "up to renaming of node ids"
    (Section 7 notes universal solutions are unique up to such renaming).
    """
    if left.num_nodes != right.num_nodes or left.num_edges != right.num_edges:
        return None
    # Quick value-multiset check.
    left_values = sorted(repr(node.value) for node in left.nodes)
    right_values = sorted(repr(node.value) for node in right.nodes)
    if left_values != right_values:
        return None

    order = sorted(left.nodes, key=lambda node: -(left.out_degree(node.id) + left.in_degree(node.id)))
    assignment: Dict[NodeId, NodeId] = {}
    used: set = set()

    def _consistent(node_id: NodeId, image_id: NodeId) -> bool:
        if left.node(node_id).value != right.node(image_id).value:
            return False
        if left.out_degree(node_id) != right.out_degree(image_id):
            return False
        if left.in_degree(node_id) != right.in_degree(image_id):
            return False
        for label, neighbour in left.successors(node_id):
            if neighbour.id in assignment:
                if not right.has_edge(image_id, label, assignment[neighbour.id]):
                    return False
        for label, neighbour in left.predecessors(node_id):
            if neighbour.id in assignment:
                if not right.has_edge(assignment[neighbour.id], label, image_id):
                    return False
        return True

    def _search(index: int) -> bool:
        if index == len(order):
            return True
        node = order[index]
        for candidate in right.nodes:
            if candidate.id in used:
                continue
            if _consistent(node.id, candidate.id):
                assignment[node.id] = candidate.id
                used.add(candidate.id)
                if _search(index + 1):
                    return True
                del assignment[node.id]
                used.discard(candidate.id)
        return False

    if _search(0) and is_isomorphism(assignment, left, right):
        return dict(assignment)
    return None
