"""The bounded per-graph delta journal.

Every committed mutation batch appends its :class:`GraphDelta` here,
keyed by the version it was applied against.  Consumers — the session's
result-repair path, the point-cache snapshot loader, plan retention,
the SQL store — ask for the chain of deltas connecting two versions; if any hop
is missing (evicted by the bound, or the graph was mutated through the
single-op mutators which bypass the journal), the chain is reported as
broken (``None``) and the caller falls back to a full recompute.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..exceptions import GraphError
from .delta import GraphDelta

__all__ = ["DeltaJournal"]

#: Default number of committed deltas retained per graph.
DEFAULT_JOURNAL_BOUND = 64


class DeltaJournal:
    """A bounded FIFO of committed deltas with O(1) chain lookup."""

    __slots__ = ("maxlen", "_entries", "_by_base")

    def __init__(self, maxlen: int = DEFAULT_JOURNAL_BOUND):
        if maxlen < 1:
            raise GraphError(f"journal bound must be at least 1, got {maxlen}")
        self.maxlen = maxlen
        self._entries: Deque[GraphDelta] = deque()
        self._by_base: Dict[int, GraphDelta] = {}

    def record(self, delta: GraphDelta) -> None:
        """Append a committed delta; empty / unversioned deltas are ignored."""
        if delta.base_version is None or delta.new_version is None:
            return
        if delta.new_version == delta.base_version or delta.is_empty:
            return
        self._entries.append(delta)
        self._by_base[delta.base_version] = delta
        while len(self._entries) > self.maxlen:
            evicted = self._entries.popleft()
            if self._by_base.get(evicted.base_version) is evicted:
                del self._by_base[evicted.base_version]

    def path(self, base: Optional[int], new: Optional[int]) -> Optional[Tuple[GraphDelta, ...]]:
        """The contiguous delta chain from *base* to *new*, or ``None``.

        ``None`` means the lineage is broken: a hop was evicted, or a
        version bump happened outside the batch API.  An equal pair
        yields the empty chain.
        """
        if base is None or new is None or base > new:
            return None
        if base == new:
            return ()
        chain = []
        version = base
        while version < new:
            delta = self._by_base.get(version)
            if delta is None or delta.new_version is None or delta.new_version > new:
                return None
            chain.append(delta)
            version = delta.new_version
        return tuple(chain)

    def composed(self, base: Optional[int], new: Optional[int]) -> Optional[GraphDelta]:
        """The net delta from *base* to *new*, or ``None`` on a broken chain."""
        chain = self.path(base, new)
        if chain is None:
            return None
        if len(chain) == 1:  # one committed delta is already net
            return chain[0]
        return GraphDelta.compose(chain, base_version=base, new_version=new)

    def deltas(self) -> Tuple[GraphDelta, ...]:
        """All retained deltas, oldest first."""
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._by_base.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._entries:
            return f"<DeltaJournal empty, bound={self.maxlen}>"
        first = self._entries[0].base_version
        last = self._entries[-1].new_version
        return (
            f"<DeltaJournal {len(self._entries)} deltas v{first}->v{last}, "
            f"bound={self.maxlen}>"
        )
