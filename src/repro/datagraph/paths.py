"""Paths and data paths.

Section 2 of the paper defines a *path* in a data graph as an alternating
sequence ``v1 a1 v2 ... vn an v(n+1)`` of nodes and edge labels where each
``(vi, ai, v(i+1))`` is an edge, and the corresponding *data path*
``delta(pi)`` as the sequence obtained by replacing each node with its
data value.  Data paths are essentially data words with one extra data
value; they are the inputs of data RPQ expressions (REM / REE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..exceptions import PathError
from .graph import DataGraph
from .node import Node
from .values import DataValue

__all__ = ["Path", "DataPath"]


@dataclass(frozen=True)
class Path:
    """A path ``v1 a1 v2 ... an v(n+1)`` in a data graph.

    Attributes
    ----------
    nodes:
        The node sequence ``v1 ... v(n+1)``; never empty (a single node is
        a path of length 0).
    labels:
        The label sequence ``a1 ... an``; exactly one element shorter
        than :attr:`nodes`.
    """

    nodes: Tuple[Node, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) == 0:
            raise PathError("a path must contain at least one node")
        if len(self.nodes) != len(self.labels) + 1:
            raise PathError(
                f"path with {len(self.labels)} labels must have {len(self.labels) + 1} nodes, "
                f"got {len(self.nodes)}"
            )

    @property
    def source(self) -> Node:
        """The first node of the path."""
        return self.nodes[0]

    @property
    def target(self) -> Node:
        """The last node of the path."""
        return self.nodes[-1]

    def __len__(self) -> int:
        """The length ``|pi|`` of the path: the number of edges."""
        return len(self.labels)

    @property
    def label(self) -> str:
        """The label ``lambda(pi)`` of the path as a plain string.

        Only meaningful when every edge label is a single character; for
        multi-character labels use :attr:`label_word`.
        """
        return "".join(self.labels)

    @property
    def label_word(self) -> Tuple[str, ...]:
        """The label of the path as a tuple of edge labels."""
        return self.labels

    def data_path(self) -> "DataPath":
        """The data path ``delta(pi)`` obtained by projecting node values."""
        return DataPath(tuple(node.value for node in self.nodes), self.labels)

    def concat(self, other: "Path") -> "Path":
        """Concatenate two paths sharing the last/first node."""
        if self.target != other.source:
            raise PathError(
                f"cannot concatenate: {self.target} is not the source {other.source} of the second path"
            )
        return Path(self.nodes + other.nodes[1:], self.labels + other.labels)

    def steps(self) -> Iterator[Tuple[Node, str, Node]]:
        """Yield the edges ``(vi, ai, v(i+1))`` of the path in order."""
        for i, label in enumerate(self.labels):
            yield (self.nodes[i], label, self.nodes[i + 1])

    def is_valid_in(self, graph: DataGraph) -> bool:
        """Whether every step of the path is an edge of *graph*."""
        for source, label, target in self.steps():
            if not graph.has_edge(source.id, label, target.id):
                return False
            if graph.get_node(source.id) != source or graph.get_node(target.id) != target:
                return False
        return True

    def __str__(self) -> str:
        parts: List[str] = [str(self.nodes[0])]
        for label, node in zip(self.labels, self.nodes[1:]):
            parts.append(f"-[{label}]->")
            parts.append(str(node))
        return " ".join(parts)


@dataclass(frozen=True)
class DataPath:
    """A data path ``d1 a1 d2 ... an d(n+1)``: data values alternating with labels.

    Attributes
    ----------
    values:
        The data value sequence; never empty.
    labels:
        The label sequence; one element shorter than :attr:`values`.
    """

    values: Tuple[DataValue, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise PathError("a data path must contain at least one data value")
        if len(self.values) != len(self.labels) + 1:
            raise PathError(
                f"data path with {len(self.labels)} labels must have {len(self.labels) + 1} values, "
                f"got {len(self.values)}"
            )

    @classmethod
    def single(cls, value: DataValue) -> "DataPath":
        """The data path consisting of a single data value (length 0)."""
        return cls((value,), ())

    @classmethod
    def from_sequence(cls, items: Sequence[object]) -> "DataPath":
        """Build a data path from an alternating ``[d1, a1, d2, ..., an, d(n+1)]`` list."""
        if len(items) % 2 == 0:
            raise PathError("alternating sequence must have odd length (values at both ends)")
        values = tuple(items[0::2])
        labels = tuple(items[1::2])
        for label in labels:
            if not isinstance(label, str):
                raise PathError(f"labels must be strings, got {label!r}")
        return cls(values, tuple(str(label) for label in labels))

    @property
    def first_value(self) -> DataValue:
        """The first data value of the path."""
        return self.values[0]

    @property
    def last_value(self) -> DataValue:
        """The last data value of the path."""
        return self.values[-1]

    def __len__(self) -> int:
        """The length of the data path: the number of labels."""
        return len(self.labels)

    @property
    def label_word(self) -> Tuple[str, ...]:
        """The underlying word of edge labels (data projected away)."""
        return self.labels

    def concat(self, other: "DataPath") -> "DataPath":
        """Concatenation of data paths sharing the last/first data value.

        Follows the paper's definition: ``w · w'`` is defined only when the
        last value of ``w`` equals the first value of ``w'``, and the shared
        value appears once in the result.
        """
        if self.last_value != other.first_value:
            raise PathError(
                f"cannot concatenate data paths: last value {self.last_value!r} differs from "
                f"first value {other.first_value!r}"
            )
        return DataPath(self.values + other.values[1:], self.labels + other.labels)

    def slice(self, start: int, end: int) -> "DataPath":
        """The sub-data-path spanning label positions ``start`` to ``end`` (exclusive).

        ``slice(i, i)`` is the single-value data path at position ``i``.
        """
        if not (0 <= start <= end <= len(self.labels)):
            raise PathError(f"invalid slice [{start}:{end}] of a data path of length {len(self.labels)}")
        return DataPath(self.values[start : end + 1], self.labels[start:end])

    def splits(self) -> Iterator[Tuple["DataPath", "DataPath"]]:
        """Yield every way of writing this data path as ``w1 · w2``."""
        for i in range(len(self.labels) + 1):
            yield (self.slice(0, i), self.slice(i, len(self.labels)))

    def items(self) -> Tuple[object, ...]:
        """The alternating sequence ``(d1, a1, d2, ..., an, d(n+1))``."""
        result: List[object] = [self.values[0]]
        for label, value in zip(self.labels, self.values[1:]):
            result.append(label)
            result.append(value)
        return tuple(result)

    def __str__(self) -> str:
        return " ".join(str(item) for item in self.items())
