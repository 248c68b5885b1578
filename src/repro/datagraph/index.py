"""Label-indexed adjacency snapshots used by the query-evaluation engine.

A :class:`LabelIndex` is an immutable, flattened view of a
:class:`~repro.datagraph.graph.DataGraph`'s adjacency, organised for the
product constructions in :mod:`repro.engine`:

* per-label successor/predecessor maps holding plain tuples of node ids
  (no :class:`~repro.datagraph.node.Node` materialisation, no nested
  ``defaultdict`` machinery on the hot path);
* a dense node ordering (``nodes`` / ``position``) so that sets of nodes
  can be represented as integer bitmasks during multi-source reachability;
* the data-value map needed by the data-RPQ engines.

Indexes are built lazily by :meth:`DataGraph.label_index` and carry the
graph ``version`` they were built against; any mutation of the graph
bumps the version, so a stale index is detected and rebuilt rather than
serving wrong adjacency.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .node import NodeId
from .values import DataValue, value_classes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..deltas.delta import GraphDelta
    from .graph import DataGraph

__all__ = ["LabelIndex"]

#: Empty adjacency map used as the default for labels absent from a graph.
_EMPTY_ADJACENCY: Mapping[NodeId, Tuple[NodeId, ...]] = {}


class LabelIndex:
    """An immutable label-indexed adjacency snapshot of a data graph.

    Instances are cheap to query and safe to share: they never mutate, and
    they remember the graph ``version`` they were built from so callers
    (and :meth:`DataGraph.label_index`) can detect staleness.
    """

    __slots__ = (
        "version", "nodes", "position", "values", "labels", "_succ", "_pred", "_counts",
        "_value_classes",
    )

    def __init__(self, graph: "DataGraph"):
        self.version: int = graph.version
        self.nodes: Tuple[NodeId, ...] = graph.node_ids
        self.position: Dict[NodeId, int] = {
            node_id: index for index, node_id in enumerate(self.nodes)
        }
        self.values: Dict[NodeId, DataValue] = {
            node.id: node.value for node in graph.nodes
        }
        self.labels: FrozenSet[str] = graph.alphabet
        self._value_classes: Optional[Tuple[List[int], int]] = None
        self._succ: Dict[str, Dict[NodeId, Tuple[NodeId, ...]]] = {}
        self._pred: Dict[str, Dict[NodeId, Tuple[NodeId, ...]]] = {}
        self._counts: Dict[str, int] = {}
        for label in sorted(graph.alphabet):
            forward = {
                source: tuple(targets)
                for source, targets in graph.adjacency(label).items()
                if targets
            }
            backward = {
                target: tuple(sources)
                for target, sources in graph.adjacency(label, reverse=True).items()
                if sources
            }
            if forward:
                self._succ[label] = forward
                self._counts[label] = sum(map(len, forward.values()))
            if backward:
                self._pred[label] = backward

    # ------------------------------------------------------------------
    @classmethod
    def patched(cls, base: "LabelIndex", delta: "GraphDelta") -> Optional["LabelIndex"]:
        """A new index equal to *base* with *delta* applied, or ``None``.

        Copy-on-write incremental maintenance: the dense node ordering is
        extended (never reshuffled), only the adjacency maps of labels the
        delta touches are copied, and within those only the touched rows
        are rebuilt — so a small delta patches in time proportional to the
        touched labels, not the graph.  Node removals would perturb the
        dense ordering every bitmask in flight depends on, so they return
        ``None`` and the caller rebuilds from the graph.
        """
        if delta.removed_nodes:
            return None
        index = cls.__new__(cls)
        index.version = delta.new_version if delta.new_version is not None else base.version
        if delta.added_nodes:
            index.nodes = base.nodes + tuple(node_id for node_id, _value in delta.added_nodes)
            position = dict(base.position)
            for offset, (node_id, _value) in enumerate(delta.added_nodes, start=len(base.nodes)):
                position[node_id] = offset
            index.position = position
            values = dict(base.values)
            values.update(delta.added_nodes)
        else:
            index.nodes = base.nodes
            index.position = base.position
            values = base.values
        if delta.value_changes:
            if values is base.values:
                values = dict(base.values)
            for node_id, _old, new in delta.value_changes:
                values[node_id] = new
        index.values = values
        index._value_classes = None
        index.labels = base.labels | frozenset(delta.added_labels) | delta.touched_labels

        added_forward: Dict[Tuple[str, NodeId], List[NodeId]] = {}
        added_backward: Dict[Tuple[str, NodeId], List[NodeId]] = {}
        removed_forward: Dict[Tuple[str, NodeId], Set[NodeId]] = {}
        removed_backward: Dict[Tuple[str, NodeId], Set[NodeId]] = {}
        for source, label, target in delta.added_edges:
            added_forward.setdefault((label, source), []).append(target)
            added_backward.setdefault((label, target), []).append(source)
        for source, label, target in delta.removed_edges:
            removed_forward.setdefault((label, source), set()).add(target)
            removed_backward.setdefault((label, target), set()).add(source)

        index._succ = cls._patched_table(base._succ, delta.touched_labels, added_forward, removed_forward)
        index._pred = cls._patched_table(base._pred, delta.touched_labels, added_backward, removed_backward)
        counts = dict(base._counts)
        for _source, label, _target in delta.added_edges:
            counts[label] = counts.get(label, 0) + 1
        for _source, label, _target in delta.removed_edges:
            counts[label] -= 1
            if not counts[label]:
                del counts[label]
        index._counts = counts
        return index

    @staticmethod
    def _patched_table(
        base_table: Dict[str, Dict[NodeId, Tuple[NodeId, ...]]],
        touched_labels: Iterable[str],
        added: Dict[Tuple[str, NodeId], List[NodeId]],
        removed: Dict[Tuple[str, NodeId], Set[NodeId]],
    ) -> Dict[str, Dict[NodeId, Tuple[NodeId, ...]]]:
        table = dict(base_table)
        touched_rows: Dict[str, Set[NodeId]] = {}
        for label, node_id in added:
            touched_rows.setdefault(label, set()).add(node_id)
        for label, node_id in removed:
            touched_rows.setdefault(label, set()).add(node_id)
        for label in touched_labels:
            rows = touched_rows.get(label)
            if not rows:
                continue
            adjacency = dict(table.get(label, ()))
            for node_id in rows:
                existing = adjacency.get(node_id, ())
                dropped = removed.get((label, node_id), ())
                if dropped:
                    existing = tuple(other for other in existing if other not in dropped)
                appended = added.get((label, node_id), ())
                if appended:
                    existing = existing + tuple(appended)
                if existing:
                    adjacency[node_id] = existing
                else:
                    adjacency.pop(node_id, None)
            if adjacency:
                table[label] = adjacency
            else:
                table.pop(label, None)
        return table

    # ------------------------------------------------------------------
    def successors(self, label: str) -> Mapping[NodeId, Tuple[NodeId, ...]]:
        """The successor map ``source id -> (target ids...)`` for *label*."""
        return self._succ.get(label, _EMPTY_ADJACENCY)

    def predecessors(self, label: str) -> Mapping[NodeId, Tuple[NodeId, ...]]:
        """The predecessor map ``target id -> (source ids...)`` for *label*."""
        return self._pred.get(label, _EMPTY_ADJACENCY)

    def targets(self, label: str, source: NodeId) -> Tuple[NodeId, ...]:
        """Targets of *source* along *label* (empty tuple when none)."""
        return self._succ.get(label, _EMPTY_ADJACENCY).get(source, ())

    def sources(self, label: str, target: NodeId) -> Tuple[NodeId, ...]:
        """Sources with a *label* edge into *target* (empty tuple when none)."""
        return self._pred.get(label, _EMPTY_ADJACENCY).get(target, ())

    def pairs(self, label: str) -> Iterator[Tuple[NodeId, NodeId]]:
        """All ``(source id, target id)`` pairs of the *label* edge relation."""
        for source, targets in self._succ.get(label, _EMPTY_ADJACENCY).items():
            for target in targets:
                yield (source, target)

    def edge_labels(self) -> FrozenSet[str]:
        """Labels that actually carry at least one edge."""
        return frozenset(self._succ)

    def edge_count(self, label: str) -> int:
        """Number of edges carrying *label* — the base statistic of the
        CRPQ planner's cardinality estimates.  Kept per label, not summed
        over its rows."""
        return self._counts.get(label, 0)

    # ------------------------------------------------------------------
    def mask_of(self, node_ids: Iterable[NodeId]) -> int:
        """Bitmask of the given node ids under this index's node ordering."""
        position = self.position
        mask = 0
        for node_id in node_ids:
            mask |= 1 << position[node_id]
        return mask

    def nodes_of(self, mask: int) -> Iterator[NodeId]:
        """Node ids whose bits are set in *mask* (inverse of :meth:`mask_of`)."""
        nodes = self.nodes
        while mask:
            low = mask & -mask
            yield nodes[low.bit_length() - 1]
            mask ^= low

    @property
    def value_classes(self) -> Tuple[List[int], int]:
        """:func:`~repro.datagraph.values.value_classes` of the values in
        node order, derived on first use and kept for this snapshot."""
        if self._value_classes is None:
            self._value_classes = value_classes([self.values[node_id] for node_id in self.nodes])
        return self._value_classes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(self._counts.values())
        return (
            f"<LabelIndex v{self.version}: {len(self.nodes)} nodes, {edges} edges, "
            f"{len(self._succ)} labels>"
        )
