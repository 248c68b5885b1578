"""Graph deltas: structural changes as first-class values.

A :class:`GraphDelta` is an immutable record of the *net* effect of a
batch of mutations on a :class:`~repro.datagraph.graph.DataGraph` —
added/removed nodes, added/removed edges, value changes and newly
declared labels — together with the version lineage it connects
(``base_version -> new_version``).  Deltas are produced by the batch
mutation API (:meth:`DataGraph.batch` / :meth:`DataGraph.apply`),
journaled per graph (:mod:`repro.deltas.journal`), and consumed by the
repair machinery (:mod:`repro.deltas.repair`, ``LabelIndex.patched``,
``SqlStore.refresh``) to patch warm state in place instead of rebuilding
it.

The :class:`_NetChanges` recorder is the shared normalisation engine:
both the batch context manager and :meth:`GraphDelta.compose` replay
individual change events through it so that add/remove pairs cancel and
value changes fold (``a -> b`` then ``b -> c`` nets to ``a -> c``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..datagraph.node import NodeId
from ..datagraph.values import DataValue

__all__ = ["GraphDelta"]

#: An edge change is recorded by endpoints and label, all by node id.
EdgeTriple = Tuple[NodeId, str, NodeId]


@dataclass(frozen=True)
class GraphDelta:
    """The net effect of one committed mutation batch.

    ``added_nodes`` / ``removed_nodes`` carry ``(id, value)`` pairs (the
    removed value is the one the node held before removal, so a delta is
    invertible); ``value_changes`` carries ``(id, old, new)`` triples.
    ``base_version`` / ``new_version`` tie the delta into the graph's
    version lineage; they are ``None`` for hand-built deltas that have
    not been committed yet.
    """

    added_nodes: Tuple[Tuple[NodeId, DataValue], ...] = ()
    removed_nodes: Tuple[Tuple[NodeId, DataValue], ...] = ()
    added_edges: Tuple[EdgeTriple, ...] = ()
    removed_edges: Tuple[EdgeTriple, ...] = ()
    value_changes: Tuple[Tuple[NodeId, DataValue, DataValue], ...] = ()
    added_labels: Tuple[str, ...] = ()
    base_version: Optional[int] = field(default=None, compare=False)
    new_version: Optional[int] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the delta records no structural change at all."""
        return not (
            self.added_nodes
            or self.removed_nodes
            or self.added_edges
            or self.removed_edges
            or self.value_changes
            or self.added_labels
        )

    @property
    def insert_only(self) -> bool:
        """Whether the delta only *adds* structure.

        Insert-only deltas are the monotone case: every path that existed
        before still exists, so cached reachability-shaped answers can be
        repaired by union instead of recomputed.
        """
        return not (self.removed_nodes or self.removed_edges or self.value_changes)

    @property
    def size(self) -> int:
        """Total number of recorded changes (all categories)."""
        return (
            len(self.added_nodes)
            + len(self.removed_nodes)
            + len(self.added_edges)
            + len(self.removed_edges)
            + len(self.value_changes)
            + len(self.added_labels)
        )

    @property
    def touched_nodes(self) -> FrozenSet[NodeId]:
        """Ids of every node involved in the delta (endpoints included)."""
        ids = {node_id for node_id, _value in self.added_nodes}
        ids.update(node_id for node_id, _value in self.removed_nodes)
        ids.update(node_id for node_id, _old, _new in self.value_changes)
        for source, _label, target in self.added_edges:
            ids.add(source)
            ids.add(target)
        for source, _label, target in self.removed_edges:
            ids.add(source)
            ids.add(target)
        return frozenset(ids)

    @property
    def touched_labels(self) -> FrozenSet[str]:
        """Labels whose edge relation the delta modifies."""
        labels = {label for _s, label, _t in self.added_edges}
        labels.update(label for _s, label, _t in self.removed_edges)
        return frozenset(labels)

    @property
    def digest(self) -> str:
        """A short content digest identifying the delta's changes.

        Lineage caches key repaired results on
        ``(base_version -> new_version, digest)`` so that two different
        change sets between the same versions can never be confused.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            payload = repr(
                (
                    self.added_nodes,
                    self.removed_nodes,
                    self.added_edges,
                    self.removed_edges,
                    self.value_changes,
                    self.added_labels,
                )
            ).encode("utf-8")
            cached = hashlib.sha256(payload).hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached

    def summary(self) -> Dict[str, int]:
        """Per-category change counts (the server's mutate-reply shape)."""
        return {
            "nodes_added": len(self.added_nodes),
            "nodes_removed": len(self.removed_nodes),
            "edges_added": len(self.added_edges),
            "edges_removed": len(self.removed_edges),
            "values_changed": len(self.value_changes),
            "labels_added": len(self.added_labels),
        }

    # ------------------------------------------------------------------
    @classmethod
    def compose(
        cls,
        deltas: Iterable["GraphDelta"],
        base_version: Optional[int] = None,
        new_version: Optional[int] = None,
    ) -> "GraphDelta":
        """Merge consecutive deltas into one net delta.

        Changes are replayed in order through the same normalisation the
        batch recorder uses, so an edge added by one delta and removed by
        the next cancels out entirely.
        """
        net = _NetChanges()
        for delta in deltas:
            net.replay(delta)
        return net.to_delta(base_version, new_version)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lineage = ""
        if self.base_version is not None or self.new_version is not None:
            lineage = f" v{self.base_version}->v{self.new_version}"
        counts = ", ".join(f"{key}={count}" for key, count in self.summary().items() if count)
        return f"<GraphDelta{lineage}: {counts or 'empty'}>"


class _NetChanges:
    """Mutable recorder that folds change events into a net delta.

    Ordered dicts double as ordered sets so that cancellation (``del``)
    and deterministic tuple ordering both fall out of insertion order.
    """

    __slots__ = (
        "nodes_added",
        "nodes_removed",
        "edges_added",
        "edges_removed",
        "value_changes",
        "labels_added",
    )

    def __init__(self) -> None:
        self.nodes_added: Dict[NodeId, DataValue] = {}
        self.nodes_removed: Dict[NodeId, DataValue] = {}
        self.edges_added: Dict[EdgeTriple, None] = {}
        self.edges_removed: Dict[EdgeTriple, None] = {}
        self.value_changes: Dict[NodeId, Tuple[DataValue, DataValue]] = {}
        self.labels_added: Dict[str, None] = {}

    @property
    def is_empty(self) -> bool:
        return not (
            self.nodes_added
            or self.nodes_removed
            or self.edges_added
            or self.edges_removed
            or self.value_changes
            or self.labels_added
        )

    # ------------------------------------------------------------------
    def record(self, event: Tuple) -> None:
        """Fold one mutation event into the net change set.

        Events mirror the ``DataGraph`` mutators: ``("node+", id, value)``,
        ``("node-", id, old_value)``, ``("edge+", s, label, t)``,
        ``("edge-", s, label, t)``, ``("value", id, old, new)`` and
        ``("label+", label)``.
        """
        kind = event[0]
        if kind == "edge+":
            triple = (event[1], event[2], event[3])
            if triple in self.edges_removed:
                del self.edges_removed[triple]
            else:
                self.edges_added[triple] = None
        elif kind == "edge-":
            triple = (event[1], event[2], event[3])
            if triple in self.edges_added:
                del self.edges_added[triple]
            else:
                self.edges_removed[triple] = None
        elif kind == "node+":
            _, node_id, value = event
            removed = self.nodes_removed.get(node_id, _MISSING)
            if removed is not _MISSING and removed == value:
                # Remove followed by an identical re-add nets to nothing.
                del self.nodes_removed[node_id]
            else:
                self.nodes_added[node_id] = value
        elif kind == "node-":
            _, node_id, value = event
            if node_id in self.nodes_added:
                # The node only ever existed inside this batch.
                del self.nodes_added[node_id]
            else:
                pending = self.value_changes.pop(node_id, None)
                if pending is not None:
                    value = pending[0]  # report the pre-batch value
                self.nodes_removed[node_id] = value
        elif kind == "value":
            _, node_id, old, new = event
            if node_id in self.nodes_added:
                self.nodes_added[node_id] = new
            else:
                first_old = self.value_changes.get(node_id, (old, None))[0]
                if first_old == new:
                    self.value_changes.pop(node_id, None)
                else:
                    self.value_changes[node_id] = (first_old, new)
        elif kind == "label+":
            self.labels_added[event[1]] = None
        else:  # pragma: no cover - mutators only emit the kinds above
            raise ValueError(f"unknown mutation event kind {kind!r}")

    def replay(self, delta: GraphDelta) -> None:
        """Fold a whole delta, in the same order :meth:`DataGraph.apply` uses."""
        for source, label, target in delta.removed_edges:
            self.record(("edge-", source, label, target))
        for node_id, value in delta.removed_nodes:
            self.record(("node-", node_id, value))
        for node_id, value in delta.added_nodes:
            self.record(("node+", node_id, value))
        for node_id, old, new in delta.value_changes:
            self.record(("value", node_id, old, new))
        for source, label, target in delta.added_edges:
            self.record(("edge+", source, label, target))
        for label in delta.added_labels:
            self.record(("label+", label))

    def to_delta(
        self, base_version: Optional[int], new_version: Optional[int]
    ) -> GraphDelta:
        return GraphDelta(
            added_nodes=tuple(self.nodes_added.items()),
            removed_nodes=tuple(self.nodes_removed.items()),
            added_edges=tuple(self.edges_added),
            removed_edges=tuple(self.edges_removed),
            value_changes=tuple(
                (node_id, old, new) for node_id, (old, new) in self.value_changes.items()
            ),
            added_labels=tuple(self.labels_added),
            base_version=base_version,
            new_version=new_version,
        )


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
