"""Re-answering a cached full relation after a journaled delta.

A session re-answers a query from its *lineage* — the entry (a
:class:`~repro.engine.bitrelation.CachedRelation`: on a bit-row route its
:class:`~repro.engine.bitrelation.BitRelation`, and its decoded answer
once a read asked for one) of an earlier version plus the journal's
composed delta since — through one call, :func:`repair_full_relation`:

* the **cached entry stands** (:func:`_entry_stands`) when the query is
  an RPQ or data RPQ and the delta adds or removes no node, changes no
  value and adds or removes no edge with a label the query reads;
* otherwise the query is **evaluated with the session's**
  :class:`~repro.engine.data.RowMemo`; when the entry holds a decoded
  answer the new rows' answer is **patched by difference** from it
  (:func:`patched_answer`), else the new entry holds the rows alone and
  is decoded on its first read — a base nobody read gives an entry
  nothing decodes until somebody does;
* a route that yields **no rows** (forced ``dict`` / ``sql``, a GXPath
  node expression, a CRPQ whose plan does not end on rows) is
  re-evaluated in full.

A :meth:`~repro.api.GraphSession.run_many` batch re-answers each plan
with a lineage in place, through the same call as ``run``.

:func:`backward_touched_closure` serves the point-cache snapshot's
survival check (:meth:`repro.api.GraphSession.load_point_cache`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Set, Tuple, Union

from ..datagraph.index import LabelIndex
from ..datagraph.node import NodeId
from ..engine.bitrelation import BitRelation, CachedRelation
from .delta import GraphDelta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datagraph.graph import DataGraph

__all__ = [
    "backward_touched_closure",
    "patched_answer",
    "repair_full_relation",
    "REPAIRABLE_KINDS",
]

#: Query kinds whose answer depends only on the nodes, their values and
#: the edges of the labels they read (and, for a point answer, is
#: per-source monotone under inserts).
REPAIRABLE_KINDS = frozenset({"rpq", "data_rpq"})


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


def patched_answer(
    base: CachedRelation,
    delta: GraphDelta,
    new: BitRelation,
    objects: Sequence,
    monotone: bool,
) -> Optional[frozenset]:
    """*new*'s decoded answer, patched from *base* — the lineage's entry
    from before *delta* — by their bit-row difference: the old answer
    minus ``decode(old ∖ new)`` plus ``decode(new ∖ old)``, where
    *objects* is the ``Node`` column aligned with *new*'s ordering.

    ``None`` when there is nothing exact to patch and the new entry keeps
    *new*'s rows undecoded: *base* holds no decoded answer (nobody read
    it) or no bit rows, its ordering is not a prefix of *new*'s, or
    *delta* removed a node or changed a value (either one rewrites
    ``Node`` objects in pairs the difference does not name).  An
    insert-only *delta* loses no pair of a *monotone* answer, so its
    ``old ∖ new`` is then never computed; a GXPath path is not monotone
    (``¬⟨b⟩`` loses a pair when a ``b`` edge is added) and always
    computes it.
    """
    answer, bits = base.answer, base.bits
    if (
        answer is None
        or bits is None
        or delta.removed_nodes
        or delta.value_changes
        or not bits.extended_by(new)
    ):
        return None
    lost = None if delta.insert_only and monotone else bits.minus(new)
    gained = new.minus(bits)
    if lost:
        answer = answer - lost.node_pairs(objects[: len(lost.nodes)])
    if gained:
        answer = answer | gained.node_pairs(objects)
    return answer


def _entry_stands(plan, delta: GraphDelta) -> bool:
    """Whether *plan*'s (a ``Query``) answer is unchanged by *delta*: an
    RPQ or data RPQ reads only the nodes, their values and the edges of
    its labels, and *delta* adds or removes no node, changes no value
    and touches none of those labels."""
    return (
        plan.kind.value in REPAIRABLE_KINDS
        and not (delta.added_nodes or delta.removed_nodes or delta.value_changes)
        and not delta.touched_labels & plan.labels()
    )


def repair_full_relation(
    graph: "DataGraph",
    plan,
    lineage: Tuple[CachedRelation, GraphDelta],
    evaluate: Callable[[], Union[BitRelation, frozenset]],
) -> Tuple[CachedRelation, str]:
    """Re-answer *plan* (a ``Query``) from its *lineage* — the cached
    entry and the composed delta since — as ``(entry, outcome)``.
    *evaluate* runs the plan with the session's row memo: the new bit
    rows, or a route's decoded answer.  The outcome is ``"kept"``,
    ``"patched"``, ``"rows"`` (the new rows, decoded on their first
    read: there was nothing exact to patch) or ``"no rows"`` (the module
    docstring's three cases).
    """
    cached, delta = lineage
    if _entry_stands(plan, delta):
        return cached, "kept"
    new = evaluate()
    if not isinstance(new, BitRelation):
        return CachedRelation(answer=new), "no rows"
    snapshot = graph.compact_index()
    monotone = plan.kind.value != "gxpath_path"  # GXPath's ¬ can lose pairs on insert
    answer = patched_answer(cached, delta, new, snapshot.node_objects, monotone)
    return CachedRelation(new, snapshot, answer), "rows" if answer is None else "patched"
