"""Server metrics: counters, latency histograms, in-flight queries.

Everything the daemon's ``metrics`` operation reports is accumulated
here, behind one lock, as plain numbers — no external metrics libraries.
The histogram uses fixed millisecond bucket bounds (powers-of-ten-ish,
the usual service-latency shape) and estimates percentiles by linear
interpolation inside the winning bucket, which is exact enough for a
p95 gate and keeps the state O(#buckets).

Cache hit rates come straight from the sessions' and engines'
:class:`~repro.engine.cache.CacheStats` snapshots, rendered by the
daemon.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

__all__ = ["LatencyHistogram", "ServerMetrics"]

#: Default latency bucket upper bounds, in milliseconds.
DEFAULT_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)


class LatencyHistogram:
    """A fixed-bucket latency histogram with interpolated percentiles."""

    def __init__(self, buckets_ms: Sequence[float] = DEFAULT_BUCKETS_MS):
        self.bounds = tuple(sorted(buckets_ms))
        # counts[i] pairs with bounds[i]; the final slot is the overflow
        # bucket (observations beyond the largest bound).
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, elapsed_ms: float) -> None:
        self.total += 1
        self.sum_ms += elapsed_ms
        if elapsed_ms > self.max_ms:
            self.max_ms = elapsed_ms
        for index, bound in enumerate(self.bounds):
            if elapsed_ms <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def percentile(self, fraction: float) -> Optional[float]:
        """The latency (ms) at *fraction* of observations, or ``None`` when empty.

        Linear interpolation inside the winning bucket; the overflow
        bucket reports the maximum observed value.
        """
        if not self.total:
            return None
        rank = fraction * self.total
        seen = 0.0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            count = self.counts[index]
            if seen + count >= rank:
                if not count:  # pragma: no cover - rank lands on an empty bucket edge
                    return lower
                return lower + (bound - lower) * (rank - seen) / count
            seen += count
            lower = bound
        return self.max_ms

    def snapshot(self) -> Dict:
        return {
            "count": self.total,
            "mean_ms": (self.sum_ms / self.total) if self.total else None,
            "p50_ms": self.percentile(0.50),
            "p95_ms": self.percentile(0.95),
            "p99_ms": self.percentile(0.99),
            "max_ms": self.max_ms if self.total else None,
            "buckets": {
                **{f"le_{bound}": self.counts[i] for i, bound in enumerate(self.bounds)},
                "overflow": self.counts[-1],
            },
        }


class ServerMetrics:
    """All daemon-side counters, guarded by one lock.

    The daemon calls the ``record_*`` methods from its connection and
    query threads; :meth:`snapshot` renders a JSON-compatible view for
    the ``metrics`` operation.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.queries = LatencyHistogram()
        self.counters: Dict[str, int] = {
            "queries_total": 0,
            "queries_failed": 0,
            "queries_timed_out": 0,
            "queries_rejected": 0,
            "connections_total": 0,
            "connections_active": 0,
            "protocol_errors": 0,
            "disconnects_mid_query": 0,
            "unsendable_replies": 0,
            "mutations_total": 0,
            "result_repairs": 0,
            "result_recomputes": 0,
            "result_patched": 0,
        }
        self._inflight = 0
        self._inflight_peak = 0

    # ------------------------------------------------------------------
    def increment(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def record_query(self, elapsed_seconds: float, failed: bool = False) -> None:
        with self._lock:
            self.counters["queries_total"] += 1
            if failed:
                self.counters["queries_failed"] += 1
            self.queries.observe(elapsed_seconds * 1000.0)

    def query_started(self) -> None:
        with self._lock:
            self._inflight += 1
            if self._inflight > self._inflight_peak:
                self._inflight_peak = self._inflight

    def query_finished(self) -> None:
        with self._lock:
            self._inflight -= 1

    # ------------------------------------------------------------------
    def snapshot(self, cache_stats: Optional[Dict] = None) -> Dict:
        """A JSON-compatible view of every metric.

        *cache_stats* is the daemon-aggregated cache view (hit rates per
        cache), attached verbatim so the wire shape has one source.
        """
        with self._lock:
            view = {
                "uptime_seconds": time.monotonic() - self._started,
                "counters": dict(self.counters),
                "inflight": self._inflight,
                "inflight_peak": self._inflight_peak,
                "latency": self.queries.snapshot(),
            }
        if cache_stats is not None:
            view["caches"] = cache_stats
        return view


def cache_stats_view(stats: Dict) -> Dict[str, Dict]:
    """Render ``{name: CacheStats}`` mappings as JSON-compatible dicts."""
    view: Dict[str, Dict] = {}
    for name, snap in stats.items():
        view[name] = {
            "hits": snap.hits,
            "misses": snap.misses,
            "evictions": snap.evictions,
            "size": snap.size,
            "maxsize": snap.maxsize,
            "hit_rate": snap.hit_rate,
        }
    return view

