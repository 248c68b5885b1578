"""Per-label statistics for the v2 planner: degree summaries and value histograms.

The v1 cost model (:mod:`repro.planner.cost`) sees exactly one number per
label — :meth:`LabelIndex.edge_count` — so it prices every data atom as
if value-equality tests were free and every closure as if all labels
fanned out alike.  Skewed value distributions defeat both: a
``(a.b)=`` atom over a graph whose values are nearly all distinct is a
tiny relation, not a huge one, and a closure over a fanout-8 label grows
far faster than one over a fanout-1 chain.

:class:`GraphStatistics` fixes this with two lazily built summaries:

* per-label :class:`LabelStats` — edge count, distinct endpoints, fanout
  and the measured fraction of edges whose endpoints carry equal data
  values — priced into closure growth and single-step equality tests;
* a graph-wide value histogram collapsed to
  :attr:`~GraphStatistics.value_match_probability` — the probability
  that two independently drawn nodes carry the same value
  (``Σ (f_v / N)²``, the self-join selectivity of the value column) —
  priced into multi-step equality tests whose endpoints are far apart.

Statistics are cached on the graph (see :func:`graph_statistics`) under
the same version discipline as :meth:`DataGraph.label_index`, and are
repaired per touched label across journaled deltas via :meth:`patched`
instead of being discarded on every version bump: untouched labels keep
their summaries, and the value histogram survives any delta that leaves
node values alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..datagraph.index import LabelIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph
    from ..deltas.delta import GraphDelta

__all__ = [
    "LabelStats",
    "GraphStatistics",
    "graph_statistics",
    "MIN_SELECTIVITY",
    "MAX_CLOSURE_GROWTH",
]

#: Selectivity floor: estimates never claim a relation is empty, so join
#: ordering stays total and misestimates stay finitely wrong.
MIN_SELECTIVITY = 1e-6

#: Cap on the measured closure growth factor.  Beyond this the closure
#: saturates the reachable component anyway and the |V|² clamp in
#: :func:`repro.planner.cost.regex_estimate` takes over.
MAX_CLOSURE_GROWTH = 64.0


@dataclass(frozen=True)
class LabelStats:
    """Degree and value summary of one label's edge relation."""

    edge_count: int
    distinct_sources: int
    distinct_targets: int
    max_fanout: int
    #: Edges whose endpoints carry equal data values — the exact answer
    #: size of a single-step equality test such as ``(a)=``.
    eq_edges: int

    @property
    def fanout(self) -> float:
        """Mean out-degree over sources that have at least one edge."""
        if not self.distinct_sources:
            return 0.0
        return self.edge_count / self.distinct_sources

    @property
    def eq_fraction(self) -> float:
        """Measured fraction of edges whose endpoints share a value."""
        if not self.edge_count:
            return MIN_SELECTIVITY
        return max(self.eq_edges / self.edge_count, MIN_SELECTIVITY)


def _label_stats(index: LabelIndex, label: str) -> LabelStats:
    values = index.values
    edge_count = 0
    max_fanout = 0
    eq_edges = 0
    targets_seen = set()
    successors = index.successors(label)
    for source, targets in successors.items():
        degree = len(targets)
        edge_count += degree
        if degree > max_fanout:
            max_fanout = degree
        targets_seen.update(targets)
        source_value = values.get(source)
        for target in targets:
            if values.get(target) == source_value:
                eq_edges += 1
    return LabelStats(
        edge_count=edge_count,
        distinct_sources=len(successors),
        distinct_targets=len(targets_seen),
        max_fanout=max_fanout,
        eq_edges=eq_edges,
    )


class GraphStatistics:
    """Lazily built statistics catalogue over one :class:`LabelIndex`.

    Per-label entries are computed on first use and memoised; the value
    histogram is collapsed once to ``(match probability, distinct count)``
    the first time any value selectivity is asked for.  Instances carry
    the index ``version`` they describe, like the index itself.
    """

    __slots__ = ("version", "num_nodes", "_index", "_labels", "_value_profile")

    def __init__(self, index: LabelIndex):
        self.version: int = index.version
        self.num_nodes: int = len(index.nodes)
        self._index = index
        self._labels: Dict[str, LabelStats] = {}
        self._value_profile: Optional[Tuple[float, int]] = None

    # ------------------------------------------------------------------
    def label(self, label: str) -> LabelStats:
        """The (memoised) summary of *label*'s edge relation."""
        stats = self._labels.get(label)
        if stats is None:
            stats = _label_stats(self._index, label)
            self._labels[label] = stats
        return stats

    def _profile(self) -> Tuple[float, int]:
        profile = self._value_profile
        if profile is None:
            histogram: Dict[object, int] = {}
            for value in self._index.values.values():
                histogram[value] = histogram.get(value, 0) + 1
            total = sum(histogram.values())
            if total:
                match = sum(count * count for count in histogram.values()) / (total * total)
                profile = (match, len(histogram))
            else:
                profile = (1.0, 0)
            self._value_profile = profile
        return profile

    @property
    def value_match_probability(self) -> float:
        """Probability that two independently drawn nodes share a value.

        ``Σ (f_v / N)²`` over the value histogram — ``≈ 1/N`` when values
        are distinct, ``1.0`` when they are constant.  This is the
        self-join selectivity of the value column, and the multiplier a
        multi-step equality test applies to its underlying path relation.
        """
        return max(self._profile()[0], MIN_SELECTIVITY)

    @property
    def distinct_values(self) -> int:
        """Number of distinct data values in the graph."""
        return self._profile()[1]

    # ------------------------------------------------------------------
    def eq_selectivity(self, labels: Iterable[str]) -> float:
        """Fraction of a path relation's endpoint pairs expected to pass
        a value-equality test.

        Single-label paths use the label's *measured* equal-endpoint
        fraction (exact for one-step tests such as ``(a)=``); longer or
        multi-label paths fall back to the graph-wide match probability,
        treating far-apart endpoints as independent draws.
        """
        counted = [label for label in labels if self.label(label).edge_count]
        if len(counted) == 1:
            return self.label(counted[0]).eq_fraction
        return self.value_match_probability

    def closure_growth(self, labels: Iterable[str], default: float) -> float:
        """Growth factor of one Kleene iteration over *labels*.

        A closure's frontier multiplies by roughly the densest label's
        fanout each round before saturating, so dense labels earn a
        ``fanout²`` factor (two rounds beyond the base estimate) while
        sparse chains keep the textbook *default*.  The result never
        drops below *default*: measured statistics may sharpen a closure
        estimate upward, but the conservative floor keeps closure-free
        comparisons (and the SQL auto thresholds) stable.
        """
        fanout = 0.0
        for label in labels:
            stats = self.label(label)
            if stats.fanout > fanout:
                fanout = stats.fanout
        return min(MAX_CLOSURE_GROWTH, max(default, fanout * fanout))

    # ------------------------------------------------------------------
    @classmethod
    def patched(
        cls, base: "GraphStatistics", index: LabelIndex, delta: "GraphDelta"
    ) -> "GraphStatistics":
        """Statistics over *index* retaining *base*'s unaffected summaries.

        Label summaries survive unless the delta touched the label's
        edges, removed a node or changed any node value (equal-endpoint
        counts depend on values); the collapsed value histogram survives any delta that
        added no nodes, removed none and rewrote no values.  After an
        insert-only delta a touched label's summary is derived from its
        base summary and the added edges (:func:`_inserted`), not
        recounted.
        """
        stats = cls(index)
        if delta.removed_nodes or delta.value_changes:
            return stats
        touched = delta.touched_labels
        for label, entry in base._labels.items():
            if label not in touched:
                stats._labels[label] = entry
            elif delta.insert_only:
                stats._labels[label] = _inserted(entry, index, label, delta.added_edges)
        if not delta.added_nodes:
            stats._value_profile = base._value_profile
        return stats


def _inserted(base: LabelStats, index: LabelIndex, label: str, added_edges) -> LabelStats:
    """*label*'s summary over *index* after an insert-only delta whose
    edges are *added_edges*, derived from its *base* summary: the counts
    are the index's map sizes, the fanout peak is checked at the added
    edges' sources only and the added edges with equal endpoint values
    join ``eq_edges``."""
    values = index.values
    successors = index.successors(label)
    max_fanout, eq_edges = base.max_fanout, base.eq_edges
    for source, edge_label, target in added_edges:
        if edge_label == label:
            max_fanout = max(max_fanout, len(successors[source]))
            if values.get(target) == values.get(source):
                eq_edges += 1
    return LabelStats(
        edge_count=index.edge_count(label),
        distinct_sources=len(successors),
        distinct_targets=len(index.predecessors(label)),
        max_fanout=max_fanout,
        eq_edges=eq_edges,
    )


def graph_statistics(graph: "DataGraph") -> GraphStatistics:
    """The graph's statistics catalogue, cached beside its label index.

    Follows the :meth:`DataGraph.label_index` version discipline: built
    lazily, cached until the next mutation (never cached while a batch
    is open), and — when the delta journal covers the gap — repaired per
    touched label via :meth:`GraphStatistics.patched` instead of rebuilt.
    """
    stats = graph._stats
    version = graph.version
    if stats is not None and stats.version == version:
        return stats
    index = graph.label_index()
    if stats is not None and graph._batch is None:
        delta = graph.journal.composed(stats.version, version)
        if delta is not None:
            patched = GraphStatistics.patched(stats, index, delta)
            graph._stats = patched
            return patched
    fresh = GraphStatistics(index)
    if graph._batch is None:
        graph._stats = fresh
    return fresh
