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

:class:`SharedCompactIndex` serialises the same arrays into one
:mod:`multiprocessing.shared_memory` segment so forked shard workers map
a single copy zero-copy: the parent owns (and alone unlinks) the
segment, workers attach by name and view the columns as ``memoryview``
slices — indexing a ``'q'``-cast memoryview is the same C-level access
as indexing the backing ``array``.  The lifecycle rules (who closes,
who unlinks, how a delta remaps) are documented on the class and in
DESIGN.md §6.
"""

from __future__ import annotations

from array import array
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .node import Node, NodeId
from .values import DataValue, value_classes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .index import LabelIndex

__all__ = ["CompactLabelIndex", "SharedCompactIndex", "owner_column"]

#: One label's adjacency in CSR form: ``offsets`` has ``num_nodes + 1``
#: entries and the neighbors of int node ``u`` are
#: ``neighbors[offsets[u]:offsets[u + 1]]``.  Either an ``array('q')``
#: pair (locally built) or ``'q'``-cast memoryviews over shared memory.
CsrRow = Tuple[Sequence[int], Sequence[int]]


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
        "_shared",
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
        shared: Optional["SharedCompactIndex"] = None,
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
        # Keeps the attached segment (and its exported memoryviews)
        # alive for as long as any view-backed index is in use.
        self._shared = shared
        self._value_ids: Optional[List[int]] = None
        self._value_classes: Optional[Tuple[List[int], int]] = None
        self._node_objects: Optional[Tuple[Node, ...]] = None
        self._sort_ranks: Optional[List[int]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_label_index(cls, index: "LabelIndex") -> "CompactLabelIndex":
        """Freeze a dict-backed :class:`LabelIndex` into CSR arrays."""
        nodes = index.nodes
        position = index.position
        values = [index.values[node_id] for node_id in nodes]
        forward: Dict[str, CsrRow] = {}
        backward: Dict[str, CsrRow] = {}
        counts: Dict[str, int] = {}
        for label in sorted(index.edge_labels()):
            forward[label] = _csr_from_table(index.successors(label), position, len(nodes))
            backward[label] = _csr_from_table(index.predecessors(label), position, len(nodes))
            counts[label] = len(forward[label][1])
        return cls(
            index.version, nodes, position, values, index.labels, forward, backward, counts
        )

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
        this (immutable) snapshot — shared-memory views derive their own.
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
        order — the order an answer's node column is written in
        (:func:`repro.api.wire.encode_answers`).  Derived from
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
        backing = "shared" if self._shared is not None else "local"
        return (
            f"<CompactLabelIndex v{self.version}: {self.num_nodes} nodes, {edges} edges, "
            f"{len(self.forward)} labels, {backing}>"
        )


def _csr_from_table(
    table, position: Dict[NodeId, int], num_nodes: int
) -> Tuple[array, array]:
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


# ----------------------------------------------------------------------
# Shared-memory serialization
# ----------------------------------------------------------------------
class SharedCompactIndex:
    """A :class:`CompactLabelIndex`'s CSR arrays in one shared segment.

    Lifecycle rules (enforced by :class:`~repro.server.workers.ShardWorkerPool`
    and asserted by the server tests):

    * the **creating parent** owns the segment: it alone calls
      :meth:`unlink`, exactly once, on pool ``close()`` or just before a
      respawn/remap replaces the segment;
    * **workers** attach by name (:meth:`attach`), build array views with
      :meth:`view`, and only ever :meth:`close` — releasing their views
      first, which :meth:`close` does for every view it handed out;
    * after a mutation the parent rebuilds, creates a **new** segment,
      broadcasts its ``(meta, name)`` so workers re-attach, then unlinks
      the old one (rebuild-and-remap; segments are immutable once built).

    The picklable ``meta`` dict carries element offsets (in ``'q'``
    units) for every column, so attaching costs one ``shm_open`` plus a
    few memoryview slices — no copying, no pickling of adjacency.
    """

    __slots__ = ("shm", "meta", "owns", "_views")

    def __init__(self, shm: shared_memory.SharedMemory, meta: Dict, owns: bool):
        self.shm = shm
        self.meta = meta
        self.owns = owns
        self._views: List[memoryview] = []

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, compact: CompactLabelIndex, owner: Optional[Sequence[int]] = None
    ) -> "SharedCompactIndex":
        """Copy a compact index's arrays into a fresh shared segment.

        *owner* is the optional node→shard assignment column the sharded
        workers route frontier messages by; storing it beside the CSR
        rows means one segment carries everything a worker needs beyond
        its own (copy-on-write) graph snapshot.
        """
        layout: Dict[str, Tuple[int, int, int, int]] = {}
        total = 0
        for label in sorted(compact.forward):
            f_off, f_nbr = compact.forward[label]
            b_off, b_nbr = compact.backward[label]
            layout[label] = (total, total + len(f_off), total + len(f_off) + len(f_nbr), len(b_nbr))
            total += len(f_off) + len(f_nbr) + len(b_off) + len(b_nbr)
        owner_offset = None
        if owner is not None:
            owner_offset = total
            total += compact.num_nodes
        shm = shared_memory.SharedMemory(create=True, size=max(8, total * 8))
        view = memoryview(shm.buf).cast("q")
        try:
            for label, (f0, fn0, b0, _b_len) in layout.items():
                f_off, f_nbr = compact.forward[label]
                b_off, b_nbr = compact.backward[label]
                view[f0 : f0 + len(f_off)] = memoryview(f_off)
                view[fn0 : fn0 + len(f_nbr)] = memoryview(f_nbr)
                view[b0 : b0 + len(b_off)] = memoryview(b_off)
                bn0 = b0 + len(b_off)
                view[bn0 : bn0 + len(b_nbr)] = memoryview(b_nbr)
            if owner_offset is not None:
                view[owner_offset : owner_offset + compact.num_nodes] = memoryview(
                    array("q", owner)
                )
        finally:
            view.release()
        meta = {
            "version": compact.version,
            "num_nodes": compact.num_nodes,
            "labels": sorted(compact.labels),
            "layout": layout,
            "counts": dict(compact._counts),
            "owner": owner_offset,
        }
        return cls(shm, meta, owns=True)

    @classmethod
    def attach(cls, meta: Dict, name: str) -> "SharedCompactIndex":
        """Attach to an existing segment by name (worker side)."""
        return cls(shared_memory.SharedMemory(name=name), meta, owns=False)

    @property
    def name(self) -> str:
        return self.shm.name

    # ------------------------------------------------------------------
    def view(
        self, nodes: Tuple[NodeId, ...], values: List[DataValue]
    ) -> Tuple[CompactLabelIndex, Optional[memoryview]]:
        """A :class:`CompactLabelIndex` whose columns alias this segment.

        *nodes* and *values* are supplied by the caller (a worker derives
        them from its own graph snapshot, whose insertion order matches
        the parent's by construction); the adjacency never leaves shared
        memory.  Also returns the owner column view when the segment
        carries one.
        """
        if len(nodes) != self.meta["num_nodes"]:
            raise ValueError(
                f"shared compact index built over {self.meta['num_nodes']} nodes, "
                f"cannot view it with {len(nodes)}"
            )
        base = memoryview(self.shm.buf).cast("q")
        self._views.append(base)
        forward: Dict[str, CsrRow] = {}
        backward: Dict[str, CsrRow] = {}
        n = self.meta["num_nodes"]
        for label, (f0, fn0, b0, b_len) in self.meta["layout"].items():
            f_off = base[f0 : f0 + n + 1]
            f_nbr = base[fn0 : fn0 + (b0 - fn0)]
            b_off = base[b0 : b0 + n + 1]
            b_nbr = base[b0 + n + 1 : b0 + n + 1 + b_len]
            self._views.extend((f_off, f_nbr, b_off, b_nbr))
            forward[label] = (f_off, f_nbr)
            backward[label] = (b_off, b_nbr)
        owner_view: Optional[memoryview] = None
        if self.meta["owner"] is not None:
            owner_view = base[self.meta["owner"] : self.meta["owner"] + n]
            self._views.append(owner_view)
        compact = CompactLabelIndex(
            self.meta["version"],
            nodes,
            {node_id: i for i, node_id in enumerate(nodes)},
            values,
            frozenset(self.meta["labels"]),
            forward,
            backward,
            dict(self.meta["counts"]),
            shared=self,
        )
        return compact, owner_view

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every handed-out view and unmap the segment (idempotent)."""
        for view in self._views:
            view.release()
        self._views.clear()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a caller still holds a view
            pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, idempotent)."""
        if not self.owns:
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.owns = False


def owner_column(assignment: Dict[NodeId, int], nodes: Iterable[NodeId]) -> array:
    """Flatten a partition's ``node id -> shard`` map into an int column."""
    return array("q", [assignment[node_id] for node_id in nodes])
