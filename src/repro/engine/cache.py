"""LRU-bounded caches with hit/miss accounting for the evaluation engine.

The engine keeps one cache per compilation artefact family (Thompson
NFAs, register automata, ...).  Keys are the hashable query ASTs (all
query ASTs in this project are frozen dataclasses), so two structurally
equal queries — however they were constructed or parsed — share one
compiled automaton.  Every cache is LRU-bounded so long-running services
evaluating millions of ad-hoc queries cannot grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["CacheStats", "LRUCache"]

V = TypeVar("V")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's effectiveness."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache(Generic[V]):
    """A small LRU cache: bounded, with hit/miss/eviction counters.

    ``get_or_build(key, build)`` is the only lookup path; it moves hits to
    the most-recently-used end and evicts the least-recently-used entry
    when full.  Not thread-safe: neither this cache nor the engine facade
    takes locks, so callers sharing an engine across threads must
    serialise access themselves (or give each thread its own
    :class:`~repro.engine.engine.EvaluationEngine`).
    """

    __slots__ = ("maxsize", "_entries", "_hits", "_misses", "_evictions")

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """Return the cached value for *key*, building and storing it on a miss."""
        entries = self._entries
        try:
            value = entries[key]
        except KeyError:
            self._misses += 1
            value = build()
            entries[key] = value
            if len(entries) > self.maxsize:
                entries.popitem(last=False)
                self._evictions += 1
            return value
        self._hits += 1
        entries.move_to_end(key)
        return value

    def peek(self, key: Hashable, default=None):
        """The cached value for *key* without touching recency or counters.

        The repair path inspects *previous-version* entries this way:
        a stale entry consulted as repair input should neither count as
        a hit nor be promoted over entries still serving live lookups.
        """
        return self._entries.get(key, default)

    def discard(self, key: Hashable) -> None:
        """Drop *key*'s entry if present.  Not an eviction: the caller
        knows the entry can never be asked for again."""
        self._entries.pop(key, None)

    def items(self):
        """A snapshot of ``(key, value)`` pairs, least-recently-used first.

        Read-only: neither counters nor recency are touched, so sessions
        can serialise their caches (point-cache snapshots) without
        distorting the statistics.
        """
        return tuple(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the lifetime)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """A snapshot of the cache counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )
