"""Nodes of data graphs.

Following Section 2 of the paper, a node is a pair ``(n, d)`` where
``n`` is a node id drawn from a countably infinite set ``N`` and ``d``
is a data value from ``D`` (or the null value of ``D_n``, Section 7).
No two nodes of the same graph may share a node id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Collection, Dict, Hashable, Iterable, List, Tuple

from .values import NULL, DataValue, is_null

__all__ = ["NodeId", "Node", "make_node", "null_node", "sorted_column", "index_rows"]

#: Type alias for node identifiers: any hashable object.
NodeId = Hashable


class _HashSlot:
    """The one non-field slot of :class:`Node`: its hash, as a C callable.

    The slot is named ``__hash__`` and is :class:`Node`'s ``__hash__``:
    ``hash(node)`` calls what construction stored there (the hash's bound
    ``__index__``) and never enters the interpreter.  Answer sets hash two
    nodes per pair; against a Python ``__hash__`` the ``supplier_s`` closures
    decode at ~430 ns a pair, not ~550 (2-core Xeon, collector paused).
    Declared on a base class so the ``slots=True`` dataclass keeps it out of
    ``dataclasses.fields`` (and so out of ``repr``, ``==``, ``asdict`` and
    pickles).  A slot, not an instance ``__dict__`` entry: per-node dicts
    de-specialise every ``node.id`` load on the point-lookup path.
    """

    __slots__ = ("__hash__",)


@dataclass(frozen=True, order=False, slots=True, init=False)
class Node(_HashSlot):
    """A data graph node: a node id together with a data value.

    The pair is immutable and hashable so nodes can be used as dictionary
    keys and set members, and so query answers (sets of node tuples) can
    be represented as ordinary Python sets.  Answer sets hash every node
    once per pair, so the hash is computed once, at construction, and
    hashing a node runs no Python code (:class:`_HashSlot`).

    Attributes
    ----------
    id:
        The node identifier (unique within a graph).
    value:
        The data value carried by the node; may be :data:`~repro.datagraph.values.NULL`.
    """

    id: NodeId
    value: DataValue = NULL

    def __init__(self, id: NodeId, value: DataValue = NULL):
        _set_id(self, id)
        _set_value(self, value)
        try:
            _set_hash(self, hash((id, value)).__index__)
        except TypeError:  # unhashable id or value: raise if ever hashed
            _set_hash(self, partial(hash, (id, value)))

    @property
    def data(self) -> DataValue:
        """The data value ``delta(v)`` of the node (alias of :attr:`value`)."""
        return self.value

    @property
    def is_null(self) -> bool:
        """Whether this is a *null node*, i.e. its data value is the SQL null."""
        return is_null(self.value)

    def with_value(self, value: DataValue) -> "Node":
        """Return a copy of this node carrying *value* instead."""
        return Node(self.id, value)

    def with_id(self, node_id: NodeId) -> "Node":
        """Return a copy of this node with a different id but the same value."""
        return Node(node_id, self.value)

    __hash__ = _HashSlot.__dict__["__hash__"]  # calls the slot's C callable

    def __reduce__(self):
        # Only (id, value) ever leaves the process: ``str`` hashes are
        # salted per interpreter, so a shipped hash would be wrong
        # in a spawn worker or after a restart.
        return (Node, (self.id, self.value))

    def __repr__(self) -> str:
        return f"Node({self.id!r}, {self.value!r})"

    def __str__(self) -> str:
        return f"({self.id}:{self.value})"

    # Explicit ordering helper so sorted() works on mixed id types used in
    # tests and deterministic output, without making Node totally ordered
    # in a way that would silently compare values of incompatible types.
    def sort_key(self) -> tuple[str, str]:
        """A deterministic sort key based on the repr of id and value."""
        return (repr(self.id), repr(self.value))


# The slots' own setters: what ``object.__setattr__(node, name, value)``
# resolves to on a frozen instance, minus the per-call name lookup (a
# third off a construction, and answers decoded off the wire build two
# nodes per row).
_set_id = Node.__dict__["id"].__set__
_set_value = Node.__dict__["value"].__set__
_set_hash = _HashSlot.__dict__["__hash__"].__set__


def sorted_column(nodes: Iterable[Node]) -> Tuple[List[Node], Dict[Node, int]]:
    """The distinct *nodes* in :meth:`Node.sort_key` order — the order
    serialised answers are written in, at one key (two ``repr`` calls) per
    distinct node instead of per node per row — and each one's index."""
    column = sorted(set(nodes), key=Node.sort_key)
    return column, dict(zip(column, range(len(column))))


def index_rows(
    rows: Collection[Tuple[Node, ...]], arity: int
) -> Tuple[List[Node], List[Tuple[int, ...]]]:
    """Node tuples of one *arity* as their :func:`sorted_column` plus the
    sorted tuples of indices into it (the rows' order by node sort keys)."""
    flat = list(chain.from_iterable(rows))
    column, index = sorted_column(flat)
    if not arity:
        return column, sorted(rows)  # the empty tuple, or nothing
    return column, sorted(zip(*[map(index.__getitem__, flat)] * arity))


def make_node(node_id: NodeId, value: DataValue = NULL) -> Node:
    """Create a :class:`Node`; convenience wrapper used by builders."""
    return Node(node_id, value)


def null_node(node_id: NodeId) -> Node:
    """Create a *null node* (a node whose data value is the SQL null)."""
    return Node(node_id, NULL)
