"""Incremental maintenance: graph deltas, journals and cache repair.

The write path for live graphs.  Instead of every mutation bumping
``graph.version`` and nuking all warm state, a batch of mutations
commits as one :class:`GraphDelta`, journaled per graph, which lets the
label index, session result caches, point-cache snapshots and the SQL
store *patch* themselves instead of rebuilding:

- :class:`GraphDelta` — the immutable net-change value object.
- :class:`DeltaJournal` — bounded per-graph history with chain lookup.
- :class:`MutationBatch` — ``with graph.batch() as b`` context manager.
- :func:`repair_full_relation` — the one re-answer of a cached full
  relation after a delta: kept when the delta cannot change it, else
  re-evaluated with the session's row memo and decoded by difference.
"""

from .batch import MutationBatch
from .delta import GraphDelta
from .journal import DeltaJournal
from .repair import backward_touched_closure, repair_full_relation

__all__ = [
    "GraphDelta",
    "DeltaJournal",
    "MutationBatch",
    "backward_touched_closure",
    "repair_full_relation",
]
