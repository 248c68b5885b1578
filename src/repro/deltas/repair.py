"""Delta-driven repair of cached full-relation results.

For an **insert-only** delta on a reachability-shaped dialect, the new
answer is a superset of the cached one, and every *new* pair's witness
path must traverse at least one added edge or added node.  The touched
nodes are the added nodes and the endpoints of added edges whose label
the query mentions: an edge it cannot read carries no witness path, and
a delta touching nothing leaves the cached answer standing.

On a sequential compact route whose session :class:`~repro.engine.data.RowMemo`
still holds the expression's bit rows from the cached answer's version,
the repair is the evaluation itself with that warm memo: sub-expressions
the delta did not touch are reused, touched ones continue from what they
gained — a closure resumes from its new steps — and the new answer is
the cached one patched by the rows' difference.

Elsewhere (dict / sql kernels, partitioned drivers, cross-scope REMs,
an entry whose rows the memo no longer holds) every new pair's source
lies in the **backward closure** of the touched nodes — following
predecessor edges on the *new* index, restricted to the labels the
query mentions — so the route's seeded scan from that closure (linear
in the closure, not the graph), unioned into the cached answer,
reproduces the fresh evaluation bit for bit.

The repair declines (returns ``None``) whenever the argument does not
hold or would not pay off: removals or value changes (non-monotone),
dialects whose semantics are not per-source monotone under edge
insertion (GXPath negation/inverses, CRPQ's existential side atoms), or
— for the seeded scan — a touched closure so large that seeding it
approaches a full recompute.
:func:`decline_reason` names the first kind of decline.

Whether repaired or recomputed, a re-answer whose previous entry kept bit
rows is decoded by difference (:func:`patched_answer`): the old answer
minus the pairs the new rows lost, plus the pairs they gained.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Set

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..engine.bitrelation import BitRelation, CachedRelation
from .delta import GraphDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph
    from ..engine.data import RowMemo
    from ..engine.engine import EvaluationEngine
    from ..planner.router import Route

__all__ = [
    "backward_touched_closure", "decline_reason", "patched_answer", "repair_full_relation",
    "REPAIRABLE_KINDS",
]

#: Query kinds whose full relation is per-source monotone under inserts.
REPAIRABLE_KINDS = frozenset({"rpq", "data_rpq"})

#: Above this fraction of seeded nodes a repair stops being cheaper than
#: a full recompute (the seeded kernels would re-explore most of the
#: product anyway), so the session falls back.
DEFAULT_MAX_SEED_FRACTION = 0.5


def backward_touched_closure(
    index: LabelIndex,
    touched: Iterable[NodeId],
    labels: Optional[Iterable[str]] = None,
) -> Set[NodeId]:
    """Nodes that can reach a touched node over edges with the given labels.

    Computed on the (already patched) *new* index so that edges added by
    the delta are themselves followed backwards.  The touched nodes are
    included; ids unknown to the index are ignored.
    """
    position = index.position
    seen = {node_id for node_id in touched if node_id in position}
    if not seen:
        return seen
    relevant = index.labels if labels is None else frozenset(labels) & index.labels
    predecessor_maps = [index.predecessors(label) for label in relevant]
    predecessor_maps = [table for table in predecessor_maps if table]
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for table in predecessor_maps:
            for source in table.get(node, ()):
                if source not in seen:
                    seen.add(source)
                    frontier.append(source)
    return seen


def decline_reason(plan, delta: GraphDelta) -> Optional[str]:
    """Why no repair of *plan*'s cached answer can absorb *delta*, or
    ``None`` when only the size of the touched closure can still decline
    it (then the reason is ``"seed fraction"``)."""
    if getattr(plan.kind, "value", plan.kind) not in REPAIRABLE_KINDS:
        return "query kind"
    if delta.removed_nodes:
        return "node removal"
    if delta.value_changes:
        return "value change"
    if delta.removed_edges:
        return "removal"
    return None


def patched_answer(
    base: CachedRelation, delta: GraphDelta, new: BitRelation, objects: Sequence
) -> Optional[frozenset]:
    """*new*'s decoded answer, patched from *base* — the lineage's entry
    from before *delta* — by their bit-row difference: the old answer
    minus ``decode(old ∖ new)`` plus ``decode(new ∖ old)``, where
    *objects* is the ``Node`` column aligned with *new*'s ordering.

    ``None`` when the patch would not be exact and the caller decodes
    *new* in full: *base* kept no bit rows, its ordering is not a prefix
    of *new*'s, or *delta* removed a node or changed a value (either one
    rewrites ``Node`` objects in pairs the difference does not name).
    An insert-only *delta* loses no pair — every dialect patched here is
    monotone under insertion — so its ``old ∖ new`` is never computed.
    """
    answer, bits = base
    if bits is None or delta.removed_nodes or delta.value_changes or not bits.extended_by(new):
        return None
    lost = None if delta.insert_only else bits.minus(new)
    gained = new.minus(bits)
    if lost:
        answer = answer - lost.node_pairs(objects[: len(lost.nodes)])
    if gained:
        answer = answer | gained.node_pairs(objects)
    return answer


def repair_full_relation(
    engine: "EvaluationEngine",
    graph: "DataGraph",
    plan,
    null_semantics: bool,
    cached: CachedRelation,
    delta: GraphDelta,
    route: "Route",
    max_seed_fraction: float = DEFAULT_MAX_SEED_FRACTION,
    memo: Optional["RowMemo"] = None,
) -> Optional[CachedRelation]:
    """Union the delta's new pairs into a cached full-relation answer.

    *plan* is a ``Query`` (``plan.kind`` / ``plan.plan`` / ``plan.labels()``), *cached*
    the ``(rows, bit rows)`` entry of the delta's base version and
    *route* the query's route on the current graph, whose kernel family
    derives the new pairs: by the evaluation with a warm *memo* (the
    session's) when that holds the expression's rows from the base
    version, else by a sequential scan seeded at the touched closure.
    Returns the repaired entry — with bit rows, its answer patched by
    their difference, when the cached one had them and the delta only
    appended to its node ordering; *cached* itself when the delta
    touches nothing the query reads — or ``None`` when the delta is not
    repairable and the caller recomputes.
    """
    if decline_reason(plan, delta) is not None:
        return None
    if delta.is_empty:
        return cached
    labels = plan.labels()  # the regex's letters, or the REM's / REE's labels
    touched = {node_id for node_id, _value in delta.added_nodes}
    for source, label, target in delta.added_edges:
        if label in labels:
            touched.update((source, target))
    if not touched:
        return cached
    rows, bits = cached
    if (
        memo is not None
        and bits is not None
        and route.kernel == "compact"
        and route.driver == "sequential"
        and memo.holds(plan.plan.expression, null_semantics, delta.base_version)
    ):
        new = engine.atom_bits(graph, plan.plan, route, null_semantics=null_semantics, memo=memo)
        objects = graph.compact_index().node_objects
        answer = patched_answer(cached, delta, new, objects)
        return (new.node_pairs(objects) if answer is None else answer), new
    index = graph.label_index()
    seeds = backward_touched_closure(index, touched, labels)
    total = len(index.nodes)
    if total and len(seeds) > max_seed_fraction * total:
        return None
    ordered = sorted(seeds, key=index.position.__getitem__)
    if route.driver != "sequential":
        route = dataclasses.replace(route, driver="sequential", workers=1)
    new = engine.atom_bits(
        graph, plan.plan, route, sources=ordered, null_semantics=null_semantics
    )
    if new is not None:
        objects = graph.compact_index().node_objects
        if bits is not None and bits.extended_by(new):
            bits = bits.union(new)
            return patched_answer(cached, delta, bits, objects), bits
        return (rows | new.node_pairs(objects) if new else rows), None
    new_pairs = engine.evaluate_atom_ids(
        graph, plan.plan, sources=ordered, null_semantics=null_semantics, route=route
    )
    node = graph.node
    return rows.union((node(source), node(target)) for source, target in new_pairs), None
