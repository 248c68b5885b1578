"""The data graph model.

A data graph (Section 2 of the paper) is ``G = <V, E>`` where ``V`` is a
finite set of nodes — pairs of a node id and a data value, with no two
nodes sharing an id — and ``E ⊆ V × Σ × V`` is a set of labelled edges
over a finite alphabet ``Σ`` of edge labels.

:class:`DataGraph` stores nodes indexed by id and edges indexed both
forwards and backwards per label, so that query evaluators can follow
edges in either direction in O(1) per step.  A data graph can also be
viewed as a relational structure ``<V, (E_a)_{a in Σ}>``; the
:meth:`DataGraph.edge_relation` accessor exposes that view and the
:mod:`repro.datagraph.relational_view` module produces the full
relational instance ``D_G`` of Section 6.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..exceptions import DuplicateNodeError, InvalidEdgeError, UnknownNodeError
from .node import Node, NodeId
from .values import NULL, DataValue, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..deltas.batch import MutationBatch
    from ..deltas.delta import GraphDelta, _NetChanges
    from ..deltas.journal import DeltaJournal
    from .compact import CompactLabelIndex
    from .index import LabelIndex

__all__ = ["Edge", "DataGraph"]

#: An edge is a triple ``(source node, label, target node)``.
Edge = Tuple[Node, str, Node]


class DataGraph:
    """A finite, edge-labelled directed graph whose nodes carry data values.

    Parameters
    ----------
    alphabet:
        Optional iterable of edge labels.  Labels used by edges are always
        added automatically; declaring an alphabet up front is useful when
        a graph must be over a specific alphabet even if some labels are
        unused (e.g. target graphs of a schema mapping).
    name:
        Optional human-readable name used in ``repr`` and error messages.

    Examples
    --------
    >>> g = DataGraph(alphabet={"knows"})
    >>> alice = g.add_node("alice", "Alice")
    >>> bob = g.add_node("bob", "Bob")
    >>> _ = g.add_edge("alice", "knows", "bob")
    >>> g.has_edge("alice", "knows", "bob")
    True
    """

    # __weakref__ keeps the class slotted while still allowing weak refs.
    __slots__ = (
        "_nodes",
        "_succ",
        "_pred",
        "_alphabet",
        "_edge_count",
        "_version",
        "_index",
        "_compact",
        "_stats",
        "_journal",
        "_batch",
        "name",
        "__weakref__",
    )

    def __init__(self, alphabet: Iterable[str] = (), name: str = ""):
        self._nodes: Dict[NodeId, Node] = {}
        # _succ[label][source id] -> set of target ids
        self._succ: Dict[str, Dict[NodeId, Set[NodeId]]] = defaultdict(lambda: defaultdict(set))
        # _pred[label][target id] -> set of source ids
        self._pred: Dict[str, Dict[NodeId, Set[NodeId]]] = defaultdict(lambda: defaultdict(set))
        self._alphabet: Set[str] = set(alphabet)
        self._edge_count = 0
        self._version = 0
        self._index: Optional["LabelIndex"] = None
        self._compact: Optional["CompactLabelIndex"] = None
        # Planner statistics catalogue (repro.planner.stats.GraphStatistics),
        # cached here by graph_statistics() under the label_index() version
        # discipline so the planner layer owns the type, not the datagraph.
        self._stats = None
        self._journal: Optional["DeltaJournal"] = None
        self._batch: Optional["MutationBatch"] = None
        self.name = name

    def _mutated(self, event: Optional[Tuple] = None) -> None:
        """Record a structural change.

        Outside a batch this bumps the version and invalidates any cached
        label index, exactly as every single-op mutator always has.
        Inside a batch the change event is recorded instead; the version
        moves once at commit and the index is patched or invalidated then.
        """
        batch = self._batch
        if batch is not None and event is not None:
            batch._record(event)
            return
        self._version += 1
        self._index = None

    # ------------------------------------------------------------------
    # Batch mutation: deltas, journal, atomic commit
    # ------------------------------------------------------------------
    def batch(self) -> "MutationBatch":
        """A context manager committing many mutations as one delta.

        ``with graph.batch() as b: b.add_edge(...)`` bumps the version
        once, patches the cached label index in place when possible, and
        records the net :class:`~repro.deltas.delta.GraphDelta` in the
        graph's journal (see :attr:`journal`).  Mutations may equally be
        made on the graph itself while the batch is open.  If the block
        raises, all recorded changes are rolled back.
        """
        from ..deltas.batch import MutationBatch

        return MutationBatch(self)

    @property
    def journal(self) -> "DeltaJournal":
        """The bounded journal of committed batch deltas (built lazily).

        Only *batch* commits are journaled; single-op mutators bump the
        version without an entry, which downstream consumers observe as
        a broken lineage and answer with a full recompute.
        """
        journal = self._journal
        if journal is None:
            from ..deltas.journal import DeltaJournal

            journal = DeltaJournal()
            self._journal = journal
        return journal

    def _commit_batch(self, net: "_NetChanges") -> "GraphDelta":
        """Commit a batch's net changes: one version bump, patched index."""
        base = self._version
        if net.is_empty:
            return net.to_delta(base, base)
        new = base + 1
        delta = net.to_delta(base, new)
        self._version = new
        index = self._index
        self._index = None
        if index is not None and index.version == base:
            from .index import LabelIndex

            # None (unpatchable, e.g. node removals) leaves the index to
            # rebuild lazily on next access.
            self._index = LabelIndex.patched(index, delta)
        self.journal.record(delta)
        return delta

    def _rollback_batch(self, net: "_NetChanges") -> None:
        """Undo a failed batch's net changes; the version never moved."""
        for source, label, target in net.edges_added:
            targets = self._succ.get(label, {}).get(source)
            if targets is not None and target in targets:
                targets.discard(target)
                self._pred[label][target].discard(source)
                self._edge_count -= 1
        for node_id in net.nodes_added:
            self._nodes.pop(node_id, None)
        for node_id, (old, _new) in net.value_changes.items():
            node = self._nodes.get(node_id)
            if node is not None:
                self._nodes[node_id] = node.with_value(old)
        for node_id, value in net.nodes_removed.items():
            self._nodes[node_id] = Node(node_id, value)
        for source, label, target in net.edges_removed:
            self._succ[label][source].add(target)
            self._pred[label][target].add(source)
            self._edge_count += 1
        for label in net.labels_added:
            self._alphabet.discard(label)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every structural change.

        Query engines key cached derived structures (the label index,
        per-graph memo tables) on this counter so that mutating the graph
        transparently invalidates them.
        """
        return self._version

    def label_index(self) -> "LabelIndex":
        """The label-indexed adjacency snapshot for the current graph state.

        Built lazily on first use and cached until the next mutation; see
        :class:`repro.datagraph.index.LabelIndex`.

        While a mutation batch is open, a previously cached index keeps
        serving the consistent pre-batch snapshot; if none is cached, a
        throwaway index over the live (partially mutated) structure is
        built but *not* cached, so the commit-time patch always starts
        from a true base-version snapshot.
        """
        index = self._index
        if index is None or index.version != self._version:
            from .index import LabelIndex

            index = LabelIndex(self)
            if self._batch is None:
                self._index = index
        return index

    def compact_index(self) -> "CompactLabelIndex":
        """The CSR (int-id) adjacency snapshot for the current graph state.

        Built lazily from :meth:`label_index` and cached beside it under
        the same version discipline: any mutation invalidates, and while
        a batch is open a throwaway snapshot over the pre-batch index is
        served but not cached.  After journaled batches the new snapshot
        carries the previous one's rows for the labels they left alone
        (:meth:`~repro.datagraph.compact.CompactLabelIndex.from_label_index`).  See
        :class:`repro.datagraph.compact.CompactLabelIndex`.
        """
        compact = self._compact
        if compact is None or compact.version != self._version:
            from .compact import CompactLabelIndex

            index = self.label_index()
            delta = None
            if compact is not None and self._batch is None:
                delta = self.journal.composed(compact.version, index.version)
            compact = CompactLabelIndex.from_label_index(
                index, compact if delta is not None else None, delta
            )
            if self._batch is None and compact.version == self._version:
                self._compact = compact
        return compact

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, value: DataValue = NULL) -> Node:
        """Add a node with the given id and data value and return it.

        Raises
        ------
        DuplicateNodeError
            If a node with the same id but a *different* data value is
            already present.  Re-adding an identical node is a no-op.
        """
        existing = self._nodes.get(node_id)
        if existing is not None:
            if existing.value == value or (is_null(existing.value) and is_null(value)):
                return existing
            raise DuplicateNodeError(
                f"node id {node_id!r} already present with value {existing.value!r}, "
                f"cannot re-add with value {value!r}"
            )
        node = Node(node_id, value)
        self._nodes[node_id] = node
        self._mutated(("node+", node_id, node.value))
        return node

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and every edge incident to it.

        Raises
        ------
        UnknownNodeError
            If the node id is not present.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise UnknownNodeError(f"unknown node id {node_id!r}")
        for label in list(self._alphabet):
            for target in list(self._succ[label].get(node_id, ())):
                self.remove_edge(node_id, label, target)
            for source in list(self._pred[label].get(node_id, ())):
                self.remove_edge(source, label, node_id)
        del self._nodes[node_id]
        self._mutated(("node-", node_id, node.value))

    def has_node(self, node_id: NodeId) -> bool:
        """Whether a node with the given id exists."""
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> Node:
        """Return the node with the given id.

        Raises
        ------
        UnknownNodeError
            If no node with that id exists.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id!r}") from None

    def get_node(self, node_id: NodeId) -> Optional[Node]:
        """Return the node with the given id, or ``None`` if absent."""
        return self._nodes.get(node_id)

    def value_of(self, node_id: NodeId) -> DataValue:
        """Return ``delta(v)``, the data value of the node with this id."""
        return self.node(node_id).value

    def set_value(self, node_id: NodeId, value: DataValue) -> Node:
        """Replace the data value of an existing node, returning the new node."""
        old = self.node(node_id)
        new = old.with_value(value)
        self._nodes[node_id] = new
        self._mutated(("value", node_id, old.value, new.value))
        return new

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in insertion order."""
        return tuple(self._nodes.values())

    @property
    def node_ids(self) -> Tuple[NodeId, ...]:
        """All node ids, in insertion order."""
        return tuple(self._nodes.keys())

    def null_nodes(self) -> Tuple[Node, ...]:
        """All nodes whose data value is the SQL null."""
        return tuple(node for node in self._nodes.values() if node.is_null)

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_edge(self, source: NodeId, label: str, target: NodeId) -> Edge:
        """Add a labelled edge between two existing nodes and return it.

        Both endpoints must already be present; this keeps the invariant
        that a graph's node set fully determines which ids are valid and
        avoids silently creating nodes with default (null) values.

        Raises
        ------
        UnknownNodeError
            If either endpoint is not a node of the graph.
        InvalidEdgeError
            If the label is not a non-empty string.
        """
        if not isinstance(label, str) or not label:
            raise InvalidEdgeError(f"edge label must be a non-empty string, got {label!r}")
        src = self.node(source)
        dst = self.node(target)
        if label not in self._alphabet:
            self._alphabet.add(label)
            self._mutated(("label+", label))
        if target not in self._succ[label][source]:
            self._succ[label][source].add(target)
            self._pred[label][target].add(source)
            self._edge_count += 1
            self._mutated(("edge+", source, label, target))
        return (src, label, dst)

    def add_path(self, node_ids: Iterable[NodeId], labels: Iterable[str]) -> None:
        """Add edges forming a path through existing nodes.

        ``node_ids`` must have exactly one more element than ``labels``.
        """
        ids = list(node_ids)
        labs = list(labels)
        if len(ids) != len(labs) + 1:
            raise InvalidEdgeError(
                f"a path over {len(labs)} labels needs {len(labs) + 1} nodes, got {len(ids)}"
            )
        for i, label in enumerate(labs):
            self.add_edge(ids[i], label, ids[i + 1])

    def remove_edge(self, source: NodeId, label: str, target: NodeId) -> None:
        """Remove an edge; missing edges are ignored."""
        if target in self._succ.get(label, {}).get(source, set()):
            self._succ[label][source].discard(target)
            self._pred[label][target].discard(source)
            self._edge_count -= 1
            self._mutated(("edge-", source, label, target))

    def has_edge(self, source: NodeId, label: str, target: NodeId) -> bool:
        """Whether the edge ``(source, label, target)`` is present."""
        return target in self._succ.get(label, {}).get(source, set())

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as ``(source node, label, target node)`` triples."""
        result = []
        for label in sorted(self._succ.keys()):
            for source_id, targets in self._succ[label].items():
                for target_id in targets:
                    result.append((self._nodes[source_id], label, self._nodes[target_id]))
        return tuple(result)

    def edge_relation(self, label: str) -> FrozenSet[Tuple[Node, Node]]:
        """The binary relation ``E_a`` for label ``a`` (Section 2)."""
        pairs = set()
        for source_id, targets in self._succ.get(label, {}).items():
            for target_id in targets:
                pairs.add((self._nodes[source_id], self._nodes[target_id]))
        return frozenset(pairs)

    def adjacency(self, label: str, reverse: bool = False) -> Mapping[NodeId, Set[NodeId]]:
        """The raw per-label adjacency map (``source -> targets``, by id).

        With ``reverse=True`` the predecessor map (``target -> sources``)
        is returned instead.  The mapping is a read-only view of internal
        state; callers must not mutate it (use :meth:`add_edge` /
        :meth:`remove_edge`).  :meth:`label_index` builds an immutable
        flattened snapshot on top of this for the query engine.
        """
        table = self._pred if reverse else self._succ
        return table.get(label, {})

    def successors(self, node_id: NodeId, label: Optional[str] = None) -> Iterator[Tuple[str, Node]]:
        """Yield ``(label, node)`` pairs reachable by one edge from *node_id*.

        If *label* is given, only edges with that label are followed.
        """
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node id {node_id!r}")
        labels = [label] if label is not None else sorted(self._succ.keys())
        for lab in labels:
            for target_id in self._succ.get(lab, {}).get(node_id, ()):
                yield (lab, self._nodes[target_id])

    def predecessors(self, node_id: NodeId, label: Optional[str] = None) -> Iterator[Tuple[str, Node]]:
        """Yield ``(label, node)`` pairs with an edge into *node_id*."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node id {node_id!r}")
        labels = [label] if label is not None else sorted(self._pred.keys())
        for lab in labels:
            for source_id in self._pred.get(lab, {}).get(node_id, ()):
                yield (lab, self._nodes[source_id])

    def out_degree(self, node_id: NodeId) -> int:
        """Number of outgoing edges of a node (over all labels)."""
        return sum(len(self._succ.get(label, {}).get(node_id, ())) for label in self._alphabet)

    def in_degree(self, node_id: NodeId) -> int:
        """Number of incoming edges of a node (over all labels)."""
        return sum(len(self._pred.get(label, {}).get(node_id, ())) for label in self._alphabet)

    # ------------------------------------------------------------------
    # Graph-level views and operations
    # ------------------------------------------------------------------
    @property
    def alphabet(self) -> FrozenSet[str]:
        """The edge alphabet Σ (declared labels plus labels used by edges)."""
        return frozenset(self._alphabet)

    def declare_labels(self, labels: Iterable[str]) -> None:
        """Add labels to the alphabet without adding edges."""
        for label in labels:
            if not isinstance(label, str) or not label:
                raise InvalidEdgeError(f"edge label must be a non-empty string, got {label!r}")
            if label not in self._alphabet:
                self._alphabet.add(label)
                self._mutated(("label+", label))

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._edge_count

    def size(self) -> int:
        """Size of the graph: number of nodes plus number of edges."""
        return self.num_nodes + self.num_edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def copy(self, name: str = "") -> "DataGraph":
        """Return a deep structural copy of this graph."""
        clone = DataGraph(alphabet=self._alphabet, name=name or self.name)
        for node in self._nodes.values():
            clone.add_node(node.id, node.value)
        for source, label, target in self.edges:
            clone.add_edge(source.id, label, target.id)
        return clone

    def subgraph(self, node_ids: Iterable[NodeId]) -> "DataGraph":
        """The induced subgraph on the given node ids."""
        keep = set(node_ids)
        sub = DataGraph(alphabet=self._alphabet, name=self.name)
        for node_id in keep:
            node = self.node(node_id)
            sub.add_node(node.id, node.value)
        for source, label, target in self.edges:
            if source.id in keep and target.id in keep:
                sub.add_edge(source.id, label, target.id)
        return sub

    def union(self, other: "DataGraph") -> "DataGraph":
        """Union of two data graphs sharing consistent node ids.

        Raises
        ------
        DuplicateNodeError
            If both graphs contain the same node id with different values.
        """
        merged = self.copy()
        for node in other.nodes:
            merged.add_node(node.id, node.value)
        for source, label, target in other.edges:
            merged.add_edge(source.id, label, target.id)
        return merged

    def map_values(self, transform: Callable[[Node], DataValue]) -> "DataGraph":
        """Return a copy whose node values are replaced by ``transform(node)``."""
        mapped = DataGraph(alphabet=self._alphabet, name=self.name)
        for node in self._nodes.values():
            mapped.add_node(node.id, transform(node))
        for source, label, target in self.edges:
            mapped.add_edge(source.id, label, target.id)
        return mapped

    def contains_graph(self, other: "DataGraph") -> bool:
        """Whether *other* is a subgraph of this graph (``other ⊆ self``).

        Node ids must match exactly, values must match exactly, and all
        edges of *other* must be present here.
        """
        for node in other.nodes:
            mine = self.get_node(node.id)
            if mine is None or mine.value != node.value:
                return False
        for source, label, target in other.edges:
            if not self.has_edge(source.id, label, target.id):
                return False
        return True

    # ------------------------------------------------------------------
    # Reachability helpers used throughout the query engines
    # ------------------------------------------------------------------
    def reachable_from(self, node_id: NodeId, labels: Optional[Iterable[str]] = None) -> Set[NodeId]:
        """Node ids reachable from *node_id* by any path over *labels*.

        The start node itself is always included (reachability by the
        empty path).  With ``labels=None`` all labels may be used, which
        corresponds to the reachability RPQ ``Σ*``.
        """
        allowed = set(labels) if labels is not None else set(self._succ.keys())
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for label in allowed:
                for nxt in self._succ.get(label, {}).get(current, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return seen

    # ------------------------------------------------------------------
    # Comparison and display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes (ids and values) and same edges."""
        if not isinstance(other, DataGraph):
            return NotImplemented
        if set(self._nodes.values()) != set(other._nodes.values()):
            return False
        return set(self.edge_set()) == set(other.edge_set())

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable; identity hash
        return id(self)

    def edge_set(self) -> Set[Tuple[NodeId, str, NodeId]]:
        """Edges as ``(source id, label, target id)`` triples."""
        triples = set()
        for label, sources in self._succ.items():
            for source_id, targets in sources.items():
                for target_id in targets:
                    triples.add((source_id, label, target_id))
        return triples

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<DataGraph{label}: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"alphabet={sorted(self._alphabet)}>"
        )

    def pretty(self) -> str:
        """A multi-line human-readable rendering, useful in examples."""
        lines = [repr(self)]
        for node in self._nodes.values():
            lines.append(f"  {node}")
        for source, label, target in self.edges:
            lines.append(f"  {source} -[{label}]-> {target}")
        return "\n".join(lines)
