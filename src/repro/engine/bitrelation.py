"""The engine's id-level relation currency: per-target source bitmasks.

Phase 3 of every mask kernel ends with, for each node ``v``, the bitmask
of source nodes ``u`` with ``(u, v)`` in the answer — bit ``i`` is the
node at index ``i`` of the dense ordering of the index snapshot the
kernel ran on (the REE algebra computes on such tables from the leaves
up).  :class:`BitRelation` is exactly that table plus the
ordering it is only meaningful against, with the operations its
consumers need and **the** decoder behind every answer set: a mask is
expanded to its members once per distinct value — at C speed
(``bin`` → ``translate`` → :func:`itertools.compress`) unless it is so
sparse that hopping between its set digits is cheaper — and the pairs
stream straight into one ``frozenset``.  A point question reads the rows
instead: one source's targets are one bit across them, a pair one bit.
:class:`CachedRelation` is the session's result-cache entry over them.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from ..datagraph.node import NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.compact import CompactLabelIndex

__all__ = ["BitRelation", "CachedRelation"]

#: ``b"0"`` / ``b"1"`` digits → the falsy / truthy bytes ``compress`` selects by.
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


class BitRelation:
    """A binary relation over one index snapshot's nodes, as bit rows.

    ``rows[v]`` is the non-zero bitmask of the sources paired with the
    node at position ``v``; ``nodes`` / ``position`` are the snapshot's
    dense ordering and its inverse (shared with the index, not copied).
    A relation is only ever decoded against names aligned with *its own*
    ordering — a cached one is kept under the graph version it was
    computed at.
    """

    __slots__ = ("nodes", "position", "rows")

    def __init__(
        self,
        nodes: Sequence[NodeId],
        position: Dict[NodeId, int],
        rows: Dict[int, int],
    ):
        self.nodes = nodes
        self.position = position
        self.rows = rows

    def count(self) -> int:
        """Number of pairs."""
        return sum(map(int.bit_count, self.rows.values()))

    __len__ = count

    def __bool__(self) -> bool:
        return bool(self.rows)  # rows hold non-zero masks only

    def _mask_of(self, node_ids: Iterable[NodeId]) -> int:
        position = self.position
        mask = 0
        for node_id in node_ids:
            at = position.get(node_id)
            if at is not None:
                mask |= 1 << at
        return mask

    def restrict(
        self,
        sources: Optional[Iterable[NodeId]] = None,
        targets: Optional[Iterable[NodeId]] = None,
    ) -> "BitRelation":
        """The pairs whose source is in *sources* and target in *targets*
        (``None`` leaves that side unrestricted; unknown ids match nothing)."""
        rows = self.rows
        if targets is not None:
            position = self.position
            picked = (position.get(node_id) for node_id in targets)
            rows = {at: rows[at] for at in picked if at in rows}
        if sources is not None:
            keep = self._mask_of(sources)
            rows = {at: mask & keep for at, mask in rows.items() if mask & keep}
        return BitRelation(self.nodes, self.position, rows)

    def extended_by(self, other: "BitRelation") -> bool:
        """Whether *other*'s ordering is this one, possibly with nodes
        appended — what an insert-only delta does to an index."""
        mine = self.nodes
        return other.nodes is mine or other.nodes[: len(mine)] == mine

    def minus(self, other: "BitRelation") -> "BitRelation":
        """The pairs not in *other*, on this relation's ordering.

        Either ordering may be a prefix of the other — positions must
        agree on the common prefix, as across an insert-only delta: a bit
        beyond the shorter ordering is only ever set on the longer side,
        so ``old.minus(new)`` is what was lost and ``new.minus(old)`` what
        was gained (see :meth:`extended_by`)."""
        known = other.rows
        rows = {}
        for at, mask in self.rows.items():
            fresh = mask & ~known.get(at, 0)
            if fresh:
                rows[at] = fresh
        return BitRelation(self.nodes, self.position, rows)

    # ------------------------------------------------------------------
    # The decoder
    # ------------------------------------------------------------------
    @staticmethod
    def members(mask: int, names: Sequence) -> Sequence:
        """The entries of *names* at the set bits of *mask*."""
        digits = bin(mask)[:1:-1]
        if mask.bit_count() << 4 >= len(digits):
            return tuple(compress(names, digits.encode().translate(_SELECTORS)))
        # A seeded scan's rows: a few members in a long mask.  Hopping
        # between the set digits costs per member what ``compress`` costs
        # per 16 digits.
        members, member = [], digits.find("1")
        while member >= 0:
            members.append(names[member])
            member = digits.find("1", member + 1)
        return members

    def _row_pairs(self, names: Sequence) -> Iterator[Iterator[Tuple]]:
        # Configurations of one strongly-connected region all carry the
        # same mask, so members are expanded once per distinct mask.
        members: Dict[int, Sequence] = {}
        expand = self.members
        for at, mask in self.rows.items():
            sources = members.get(mask)
            if sources is None:
                sources = members[mask] = expand(mask, names)
            yield zip(sources, repeat(names[at]))

    def id_pairs(self) -> FrozenSet[Tuple[NodeId, NodeId]]:
        """The relation as public ``(source id, target id)`` pairs."""
        return frozenset(chain.from_iterable(self._row_pairs(self.nodes)))

    def _aligned(self, objects: Sequence) -> Sequence:
        if len(objects) != len(self.nodes):
            raise ValueError(
                f"cannot decode a relation over an ordering of {len(self.nodes)} nodes "
                f"against a column of {len(objects)}"
            )
        return objects

    def node_pairs(self, objects: Sequence) -> FrozenSet[Tuple]:
        """The relation as pairs of *objects*, a column aligned with this
        relation's ordering (the snapshot's ``Node`` objects)."""
        return frozenset(chain.from_iterable(self._row_pairs(self._aligned(objects))))

    def targets_of(self, source: NodeId, objects: Sequence) -> FrozenSet:
        """The *objects* of the targets ``v`` whose row mask has the bit
        ``position[source]`` — a point answer read across the rows; no
        pair is built (an id outside the ordering has no targets)."""
        objects = self._aligned(objects)
        at = self.position.get(source)
        if at is None:
            return frozenset()
        return frozenset([objects[v] for v, mask in self.rows.items() if mask >> at & 1])

    def holds(self, source: NodeId, target: NodeId) -> bool:
        """Whether ``(source, target)`` is a pair: one bit of one row."""
        position = self.position
        at, origin = position.get(target), position.get(source)
        return at is not None and origin is not None and self.rows.get(at, 0) >> origin & 1 == 1

    def source_ids(self) -> Sequence[NodeId]:
        """The distinct sources (the OR of the row masks), each once."""
        mask = 0
        for row in self.rows.values():
            mask |= row
        return self.members(mask, self.nodes)

    def target_ids(self) -> Sequence[NodeId]:
        """The distinct targets (the row keys), each once."""
        return list(map(self.nodes.__getitem__, self.rows))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BitRelation {self.count()} pairs over {len(self.rows)} targets>"


class CachedRelation:
    """A result-cache entry, rows first.

    ``bits`` are the full relation's bit rows when a sequential compact
    route computed them in this process (a mask kernel, the bit-row
    algebra, or a binary CRPQ plan ending on bit rows) — what delta
    repair merges into, CRPQ atom scans restrict, points read
    (:meth:`targets_of`) and the next version's answer is patched from
    by their difference.  ``snapshot`` is the
    :class:`~repro.datagraph.compact.CompactLabelIndex` those rows were
    computed on: its ``Node`` column decodes them, its sort ranks order
    their wire document.  The decoded ``(Node, Node)`` answer exists only
    once a read asked for pairs (:meth:`pairs`); a route without rows
    stores only its answer.  ``document`` is the compact JSON text of the
    wire document the daemon first encoded for the entry
    (:func:`repro.api.wire.encode_entry`) — the text alone, the dict is
    not kept — written into the reply frame of every later run of it: an
    entry means one answer over one snapshot's nodes and values, so its
    document never changes.
    """

    __slots__ = ("bits", "snapshot", "answer", "document")

    def __init__(
        self,
        bits: Optional[BitRelation] = None,
        snapshot: Optional["CompactLabelIndex"] = None,
        answer: Optional[frozenset] = None,
    ):
        self.bits = bits
        self.snapshot = snapshot
        self.answer = answer
        self.document: Optional[str] = None

    def pairs(self) -> frozenset:
        """The decoded answer: decoded from the rows on the first call,
        against their own snapshot's column, and kept."""
        answer = self.answer
        if answer is None:
            answer = self.answer = self.bits.node_pairs(self.snapshot.node_objects)
        return answer

    def targets_of(self, source: NodeId) -> frozenset:
        """The targets of *source*: read across the rows, or — for an
        entry without them — scanned from the answer's pairs."""
        if self.bits is not None:
            return self.bits.targets_of(source, self.snapshot.node_objects)
        return frozenset(target for start, target in self.answer if start.id == source)

    def holds(self, source, target) -> bool:
        """Whether the pair of *source* and *target* (current ``Node``
        objects) is an answer: one bit test, or set membership."""
        if self.bits is not None:
            return self.bits.holds(source.id, target.id)
        return (source, target) in self.answer
