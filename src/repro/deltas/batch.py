"""The batch mutation context manager.

``with graph.batch() as b: ...`` routes any number of mutations through
one atomic commit: the graph version bumps **once**, the cached
:class:`LabelIndex` is patched in place (or invalidated when the delta
is not patchable), and the net :class:`GraphDelta` is recorded in the
graph's journal so downstream caches can repair instead of rebuild.  If
the block raises, every recorded change is rolled back and the version
does not move.

Mutations inside the batch observe the graph's live structure, but the
graph *version* (and therefore every version-keyed cache and the cached
index snapshot) stays at the pre-batch state until commit — readers that
go through ``label_index()`` mid-batch see a consistent snapshot of the
base version.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..datagraph.node import Node, NodeId
from ..datagraph.values import NULL, DataValue
from ..exceptions import GraphError
from .delta import GraphDelta, _NetChanges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph, Edge

__all__ = ["MutationBatch"]


class MutationBatch:
    """Records mutations against a graph and commits them as one delta.

    Obtained from :meth:`DataGraph.batch`; also usable as a plain
    mutation facade (``b.add_edge(...)`` simply delegates to the graph,
    which reports the change back to the batch).  After a successful
    ``with`` block, :attr:`delta` holds the committed net delta.
    """

    __slots__ = ("graph", "delta", "_net", "_active")

    def __init__(self, graph: "DataGraph"):
        self.graph = graph
        self.delta: Optional[GraphDelta] = None
        self._net = _NetChanges()
        self._active = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "MutationBatch":
        if self.graph._batch is not None:
            raise GraphError(
                "mutation batches do not nest; commit the open batch first"
            )
        if self.delta is not None:
            raise GraphError("a MutationBatch cannot be re-entered after commit")
        self.graph._batch = self
        self._active = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        graph = self.graph
        graph._batch = None
        self._active = False
        if exc_type is not None:
            graph._rollback_batch(self._net)
            return False
        self.delta = graph._commit_batch(self._net)
        return False

    def _record(self, event: Tuple) -> None:
        """Called by the graph's mutators while this batch is open."""
        self._net.record(event)

    def _check_active(self) -> None:
        if not self._active or self.graph._batch is not self:
            raise GraphError("this mutation batch is not active")

    # ------------------------------------------------------------------
    # Convenience delegates mirroring the DataGraph mutator surface.
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, value: DataValue = NULL) -> Node:
        self._check_active()
        return self.graph.add_node(node_id, value)

    def remove_node(self, node_id: NodeId) -> None:
        self._check_active()
        self.graph.remove_node(node_id)

    def set_value(self, node_id: NodeId, value: DataValue) -> Node:
        self._check_active()
        return self.graph.set_value(node_id, value)

    def add_edge(self, source: NodeId, label: str, target: NodeId) -> "Edge":
        self._check_active()
        return self.graph.add_edge(source, label, target)

    def remove_edge(self, source: NodeId, label: str, target: NodeId) -> None:
        self._check_active()
        self.graph.remove_edge(source, label, target)

    def add_path(self, node_ids: Iterable[NodeId], labels: Iterable[str]) -> None:
        self._check_active()
        self.graph.add_path(node_ids, labels)

    def declare_labels(self, labels: Iterable[str]) -> None:
        self._check_active()
        self.graph.declare_labels(labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self._active else ("committed" if self.delta else "new")
        return f"<MutationBatch {state} on {self.graph!r}>"
