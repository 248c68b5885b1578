"""Compact CSR storage backend: the int-id twin of :class:`LabelIndex`.

A :class:`CompactLabelIndex` freezes a graph snapshot into flat arrays:
the ``nodes`` tuple stays the id↔int mapping (``nodes[i]`` is the public
:class:`~repro.datagraph.node.NodeId` of integer id ``i``, ``position``
the inverse), every label's adjacency becomes one CSR row pair —
``array('q')`` offsets of length ``n + 1`` plus a neighbors column, kept
both forward and transposed — and the data values become a list indexed
by int id (plus derived columns: dense value ids,
:attr:`CompactLabelIndex.value_ids`, the snapshot's ``Node`` objects,
:attr:`CompactLabelIndex.node_objects`, and their sort ranks,
:attr:`CompactLabelIndex.sort_ranks`).  The int-id kernels in
:mod:`repro.engine.compact` walk these arrays with ``bytearray`` visited
sets and integer-bitmask frontiers instead of hashing ``(NodeId, state)``
tuples and hand back per-target source bitmasks; those are decoded once,
at the answer boundary, against ``nodes`` (id pairs) or ``node_objects``
(``Node`` pairs), so results are bit-identical to the dict-backed kernels.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from .node import Node, NodeId
from .values import DataValue, value_classes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..deltas.delta import GraphDelta
    from .index import LabelIndex

__all__ = ["CompactLabelIndex"]

#: One label's adjacency in CSR form: an ``array('q')`` pair where
#: ``offsets`` has ``num_nodes + 1`` entries and the neighbors of int
#: node ``u`` are ``neighbors[offsets[u]:offsets[u + 1]]``.
CsrRow = Tuple[array, array]


class CompactLabelIndex:
    """A frozen int-id CSR view of one :class:`LabelIndex` snapshot.

    Constructed from — never instead of — a ``LabelIndex``; it inherits
    the index's dense node ordering, so the integer ids here coincide
    with the bit positions the dict-backed mask kernels use and answers
    decode identically.
    """

    __slots__ = (
        "version",
        "nodes",
        "position",
        "values",
        "labels",
        "num_nodes",
        "forward",
        "backward",
        "_counts",
        "_value_ids",
        "_value_classes",
        "_node_objects",
        "_sort_ranks",
    )

    def __init__(
        self,
        version: int,
        nodes: Tuple[NodeId, ...],
        position: Dict[NodeId, int],
        values: List[DataValue],
        labels: FrozenSet[str],
        forward: Dict[str, CsrRow],
        backward: Dict[str, CsrRow],
        counts: Dict[str, int],
    ):
        self.version = version
        self.nodes = nodes
        self.position = position
        self.values = values
        self.labels = labels
        self.num_nodes = len(nodes)
        self.forward = forward
        self.backward = backward
        self._counts = counts
        self._value_ids: Optional[List[int]] = None
        self._value_classes: Optional[Tuple[List[int], int]] = None
        self._node_objects: Optional[Tuple[Node, ...]] = None
        self._sort_ranks: Optional[List[int]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_label_index(
        cls,
        index: "LabelIndex",
        previous: Optional["CompactLabelIndex"] = None,
        delta: Optional["GraphDelta"] = None,
    ) -> "CompactLabelIndex":
        """Freeze a dict-backed :class:`LabelIndex` into CSR arrays.

        Given *previous*, the snapshot the journaled *delta* led from to
        *index*, a write costs what it touched: the CSR rows of every
        label the delta left alone are carried (offsets extended over
        appended nodes), and in a touched label only the forward rows of
        the delta's sources and the backward rows of its targets are
        taken from *index*'s patched rows, every other row slice-copied.
        When no value changed, the ``values`` and ``Node`` columns are
        carried and extended over appended nodes, and when no node was
        appended either, so are the sort ranks.  Unless *index*'s
        ordering extends *previous*'s (a node was removed), everything is
        built afresh."""
        nodes = index.nodes
        position = index.position
        if previous is not None and (
            delta.removed_nodes or nodes[: len(previous.nodes)] != previous.nodes
        ):
            previous = None
        if previous is None or delta.value_changes:
            values = [index.values[node_id] for node_id in nodes]
        else:
            values = previous.values
            if len(nodes) > len(values):
                values = values + [index.values[node_id] for node_id in nodes[len(values) :]]
        forward: Dict[str, CsrRow] = {}
        backward: Dict[str, CsrRow] = {}
        counts: Dict[str, int] = {}
        carry = {} if previous is None else previous.forward
        appended = 0 if previous is None else len(nodes) - len(previous.nodes)
        sources: Dict[str, set] = {}
        targets: Dict[str, set] = {}
        if previous is not None:
            for edges in (delta.added_edges, delta.removed_edges):
                for source, label, target in edges:
                    sources.setdefault(label, set()).add(source)
                    targets.setdefault(label, set()).add(target)
        for label in sorted(index.edge_labels()):
            if label not in carry:
                forward[label] = _csr_from_table(index.successors(label), position, len(nodes))
                backward[label] = _csr_from_table(index.predecessors(label), position, len(nodes))
            elif label not in sources:
                forward[label] = _extended(carry[label], appended)
                backward[label] = _extended(previous.backward[label], appended)
            else:
                forward[label] = _spliced(
                    _extended(carry[label], appended), sources[label], index.successors(label), position
                )
                backward[label] = _spliced(
                    _extended(previous.backward[label], appended), targets[label], index.predecessors(label), position
                )
            counts[label] = len(forward[label][1])
        snapshot = cls(
            index.version, nodes, position, values, index.labels, forward, backward, counts
        )
        column = None if previous is None else previous._node_objects
        if column is not None and not delta.value_changes:
            fresh = tuple(map(Node, nodes[len(column) :], values[len(column) :]))
            snapshot._node_objects = column + fresh
            if not fresh:
                snapshot._sort_ranks = previous._sort_ranks
        return snapshot

    # ------------------------------------------------------------------
    def csr(self, label: str) -> Optional[CsrRow]:
        """The forward CSR row pair for *label* (``None`` when edgeless)."""
        return self.forward.get(label)

    def csr_t(self, label: str) -> Optional[CsrRow]:
        """The transposed (predecessor) CSR row pair for *label*."""
        return self.backward.get(label)

    def edge_labels(self) -> FrozenSet[str]:
        """Labels that actually carry at least one edge."""
        return frozenset(self.forward)

    @property
    def value_ids(self) -> List[int]:
        """``value_ids[u]`` is a dense id of node ``u``'s data value.

        Two nodes share an id exactly when their values are one dict key
        (equal and hash-equal, or the same object), which is how the
        register kernel names a value without hashing it per edge.
        Derived from :attr:`values` on first use and kept for the life of
        this (immutable) snapshot.
        """
        column = self._value_ids
        if column is None:
            ids: Dict[DataValue, int] = {}
            column = self._value_ids = [ids.setdefault(value, len(ids)) for value in self.values]
        return column

    @property
    def value_classes(self) -> Tuple[List[int], int]:
        """:func:`~repro.datagraph.values.value_classes` of :attr:`values`,
        derived on first use.  Not :attr:`value_ids` regrouped: those
        follow dict-key identity, under which a NaN would equal itself."""
        if self._value_classes is None:
            self._value_classes = value_classes(self.values)
        return self._value_classes

    @property
    def node_objects(self) -> Tuple[Node, ...]:
        """``node_objects[u]`` is the :class:`Node` of int node ``u`` —
        the column full relations are decoded against.  Derived from
        :attr:`nodes` and :attr:`values` on first use, like
        :attr:`value_ids`; never serialised."""
        column = self._node_objects
        if column is None:
            column = self._node_objects = tuple(map(Node, self.nodes, self.values))
        return column

    @property
    def sort_ranks(self) -> List[int]:
        """``sort_ranks[u]`` is int node ``u``'s place in :meth:`Node.sort_key`
        order — the order an answer's node column is written in, and
        what :func:`repro.api.wire.encode_entry` sorts a cached
        relation's column by.  Derived from
        :attr:`node_objects` on first use, like it; never serialised."""
        column = self._sort_ranks
        if column is None:
            keys = [node.sort_key() for node in self.node_objects]
            column = [0] * self.num_nodes
            for rank, u in enumerate(sorted(range(self.num_nodes), key=keys.__getitem__)):
                column[u] = rank
            self._sort_ranks = column  # assigned whole: concurrent readers race benignly
        return column

    def edge_count(self, label: str) -> int:
        """Number of edges carrying *label*."""
        return self._counts.get(label, 0)

    # ------------------------------------------------------------------
    # NodeId-level accessors, mirroring LabelIndex for tests and spot use
    # (the kernels never go through these — they walk the arrays).
    # ------------------------------------------------------------------
    def targets(self, label: str, source: NodeId) -> Tuple[NodeId, ...]:
        """Targets of *source* along *label*, as public node ids."""
        row = self.forward.get(label)
        if row is None:
            return ()
        u = self.position.get(source)
        if u is None:
            return ()
        offsets, neighbors = row
        nodes = self.nodes
        return tuple(nodes[neighbors[k]] for k in range(offsets[u], offsets[u + 1]))

    def sources(self, label: str, target: NodeId) -> Tuple[NodeId, ...]:
        """Sources with a *label* edge into *target*, as public node ids."""
        row = self.backward.get(label)
        if row is None:
            return ()
        u = self.position.get(target)
        if u is None:
            return ()
        offsets, neighbors = row
        nodes = self.nodes
        return tuple(nodes[neighbors[k]] for k in range(offsets[u], offsets[u + 1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(self._counts.values())
        return (
            f"<CompactLabelIndex v{self.version}: {self.num_nodes} nodes, {edges} edges, "
            f"{len(self.forward)} labels>"
        )


def _extended(row: CsrRow, appended: int) -> CsrRow:
    """A CSR row pair over *appended* more (edgeless) nodes; the arrays
    are shared, never written, so an unchanged row is carried as is."""
    if not appended:
        return row
    offsets, neighbors = row
    return offsets + array("q", [offsets[-1]] * appended), neighbors


def _spliced(row: CsrRow, touched, table, position: Dict[NodeId, int]) -> CsrRow:
    """*row* with the rows of the *touched* node ids replaced by their
    rows in *table* (a ``node id -> (node ids...)`` map): every run of
    untouched rows between them is slice-copied, its offsets shifted by
    what the touched rows before it grew or shrank."""
    offsets, neighbors = row
    spliced_offsets, spliced_neighbors = array("q"), array("q")
    start = shift = 0
    for u, node_id in sorted((position[node_id], node_id) for node_id in touched):
        spliced_neighbors += neighbors[offsets[start] : offsets[u]]
        spliced_offsets += _shifted(offsets[start:u], shift)
        spliced_offsets.append(len(spliced_neighbors))
        spliced_neighbors.extend(map(position.__getitem__, table.get(node_id, ())))
        start = u + 1
        shift = len(spliced_neighbors) - offsets[start]
    spliced_neighbors += neighbors[offsets[start] :]
    spliced_offsets += _shifted(offsets[start:], shift)
    return spliced_offsets, spliced_neighbors


def _shifted(offsets: array, shift: int) -> array:
    """*offsets* with *shift* added to every entry."""
    return array("q", map(shift.__add__, offsets)) if shift else offsets


def _csr_from_table(table, position: Dict[NodeId, int], num_nodes: int) -> CsrRow:
    """Flatten one ``node id -> (node ids...)`` map into a CSR row pair."""
    degrees = [0] * num_nodes
    total = 0
    for node_id, row in table.items():
        degrees[position[node_id]] = len(row)
        total += len(row)
    offsets = array("q", [0] * (num_nodes + 1))
    running = 0
    for u in range(num_nodes):
        offsets[u] = running
        running += degrees[u]
    offsets[num_nodes] = running
    neighbors = array("q", [0] * total)
    for node_id, row in table.items():
        cursor = offsets[position[node_id]]
        for other in row:
            neighbors[cursor] = position[other]
            cursor += 1
    return offsets, neighbors

