"""Cost-ordered planning of conjunctive (data) RPQs.

:func:`plan_crpq` first **eliminates existential path variables**
(:func:`eliminate`), so a query runs in as few kernel calls as its shape
allows:

* *chain fusion* — a variable that is not in the head and occurs in
  exactly two endpoint positions, as the target of one plain-RPQ atom
  and the source of a different one, is removed and the two atoms
  become one: ``∃y. e1(x, y) ∧ e2(y, z)`` **is** ``(e1·e2)(x, z)`` by
  the definition of concatenation.  Applied to a fixpoint; a fused
  ``(x, e, x)`` is an ordinary self-loop atom.  Never fused: a head
  variable, a variable with any third occurrence, one that is the
  target (or the source) of both atoms, ``(v, e, v)``, and a data-RPQ
  neighbour (register valuations do not concatenate);
* *live columns* — every scan emits only the endpoints that are in the
  head or shared with another atom (projection commutes with a join it
  shares no column with), so an atom whose far endpoint occurs nowhere
  else is a one-column relation and its join a filter.

It then turns the eliminated atoms into a left-deep tree of the logical
operators in :mod:`repro.planner.logical`, greedily ordered by the
cardinality estimates of :mod:`repro.planner.cost`:

1. start from the atom with the smallest estimated relation;
2. repeatedly pick, among the atoms sharing a variable with the plan so
   far (ties broken by estimate, then by atom position), the cheapest
   one, scan it **seeded** by the bound variables (semijoin pushdown
   into the engine kernels) and hash-join it on the shared variables;
3. when no remaining atom is connected — the query has a cartesian
   component — fall back to the globally cheapest remaining atom and
   join with an empty key set;
4. project onto the head.

Self-loop atoms ``(x, e, x)`` scan into a primed column and are wrapped
in a ``Filter(x = x′)``, which is both how the planner expresses the
equality and the structural fix for the historical bug where the naive
join admitted pairs with ``source != target``.

The resulting :class:`CrpqPlan` is immutable and hashable; sessions
cache one per ``(graph.version, query.key)`` next to the versioned
result cache, so replanning costs nothing until the graph (and with it
the statistics) moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..datagraph.index import LabelIndex
from ..query.crpq import Atom, ConjunctiveRPQ
from ..query.rpq import RPQ
from ..regular import concat
from .cost import atom_estimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stats import GraphStatistics
from .logical import (
    AtomScan,
    Filter,
    HashJoin,
    PlanOp,
    Project,
    SeededScan,
    atom_columns,
    atom_text,
    loop_column,
    render_plan,
)

__all__ = ["CrpqPlan", "plan_crpq", "eliminate", "reorder_remaining"]


@dataclass(frozen=True)
class CrpqPlan:
    """A planned CRPQ: the operator tree plus how it was chosen.

    ``query`` is the CRPQ as written, ``eliminated`` the one that runs
    (:func:`eliminate`; ``rewrites`` says how one became the other, a
    line per rewrite).  Everything positional — ``atom_order``,
    ``estimates``, ``emits``, the scans' ``index``, a
    :class:`~repro.planner.execute.PlanTrace` — indexes
    ``eliminated.atoms``.  ``stats_version`` is the label-index version
    the estimates were read from (``None`` when planned without a
    graph), so a cached plan is exactly as stale as the index it was
    costed on.
    """

    query: ConjunctiveRPQ
    eliminated: ConjunctiveRPQ
    rewrites: Tuple[str, ...]
    root: PlanOp
    atom_order: Tuple[int, ...]
    stats_version: Optional[int]
    #: Per-atom cardinality estimates and live columns, aligned with
    #: ``eliminated.atoms`` (not ``atom_order``).
    estimates: Tuple[float, ...]
    emits: Tuple[Tuple[str, ...], ...]

    def explain(self) -> str:
        """The human-readable plan tree (``Query.explain()`` / ``--explain``)."""
        head = ", ".join(self.query.head)
        order = " → ".join(f"#{index}" for index in self.atom_order)
        atoms = f"{len(self.eliminated.atoms)}"
        if len(self.query.atoms) != len(self.eliminated.atoms):
            atoms += f" (of {len(self.query.atoms)} written)"
        header = f"CRPQ plan: head=({head}) atoms={atoms} join order: {order}"
        return "\n".join((header, *self.rewrites, render_plan(self.root)))


def eliminate(query: ConjunctiveRPQ) -> Tuple[ConjunctiveRPQ, Tuple[str, ...]]:
    """Chain-fuse *query*'s existential path variables, to a fixpoint.

    Returns the fused query (same head, same answers) and one explain
    line per fusion.  See the module docstring for the rule, its
    soundness and the shapes it leaves alone.
    """
    head = set(query.head)
    atoms = list(query.atoms)
    #: the written atoms each current atom stands for, e.g. ``#0·#1``
    origin = [f"#{index}" for index in range(len(atoms))]
    while True:
        places: Dict[str, List[Tuple[int, bool]]] = {}
        for position, atom in enumerate(atoms):
            places.setdefault(atom.source, []).append((position, False))
            places.setdefault(atom.target, []).append((position, True))
        for variable, found in places.items():
            if variable in head or len(found) != 2:
                continue
            (first, first_is_target), (second, second_is_target) = found
            if first == second or first_is_target == second_is_target:
                continue
            into, out_of = (first, second) if first_is_target else (second, first)
            left, right = atoms[into], atoms[out_of]
            if not (isinstance(left.query, RPQ) and isinstance(right.query, RPQ)):
                continue
            keep, drop = min(into, out_of), max(into, out_of)
            atoms[keep] = Atom(
                left.source,
                RPQ(concat(left.query.expression, right.query.expression)),
                right.target,
            )
            origin[keep] = f"{origin[into]}·{origin[out_of]}"
            del atoms[drop], origin[drop]
            break
        else:
            break
    if len(atoms) == len(query.atoms):
        return query, ()
    lines = tuple(
        f"fused {label} → #{position} {atom_text(atom)}"
        for position, (label, atom) in enumerate(zip(origin, atoms))
        if "·" in label
    )
    return ConjunctiveRPQ(query.head, tuple(atoms)), lines


def _live_columns(query: ConjunctiveRPQ) -> Tuple[Tuple[str, ...], ...]:
    """Per atom, the columns its scan emits: endpoints in the head or
    shared with another atom.  A self-loop atom keeps both of its
    columns — the equality filter above its scan reads them."""
    mentions: Dict[str, int] = {}
    for atom in query.atoms:
        for variable in {atom.source, atom.target}:
            mentions[variable] = mentions.get(variable, 0) + 1
    live = set(query.head) | {v for v, count in mentions.items() if count >= 2}
    return tuple(
        atom_columns(atom)
        if atom.source == atom.target
        else tuple(v for v in (atom.source, atom.target) if v in live)
        for atom in query.atoms
    )


def _scan(
    atom: Atom, index: int, estimate: float, bound: Set[str], emits: Tuple[str, ...]
) -> PlanOp:
    """The scan operator for one atom given the variables already bound.

    Unbound atoms become full :class:`AtomScan`\\ s; atoms with a bound
    source and/or target become :class:`SeededScan`\\ s so the engine
    evaluates them only from the surviving bindings.  Self-loop atoms
    are wrapped in the equality :class:`Filter` (and, when bound, seed
    both sides from the same variable).  *emits* are the atom's live
    columns.
    """
    self_loop = atom.source == atom.target
    seed_sources = atom.source if atom.source in bound else None
    seed_targets = (atom.target if atom.target in bound else None) if not self_loop else seed_sources
    if seed_sources is None and seed_targets is None:
        scan: PlanOp = AtomScan(atom, index, estimate, emits)
    else:
        scan = SeededScan(atom, index, estimate, emits, seed_sources, seed_targets)
    if self_loop:
        return Filter(scan, atom.source, loop_column(atom.source))
    return scan


def plan_crpq(
    query: ConjunctiveRPQ,
    index: Optional[LabelIndex] = None,
    stats: Optional["GraphStatistics"] = None,
) -> CrpqPlan:
    """Plan *query* against the statistics of *index*.

    Without an index (no graph at hand — e.g. ``Query.explain()`` before
    execution) all estimates collapse to 1.0 and the plan follows the
    query's written atom order; the operator structure (seeded scans,
    hash joins, filters, projection) is the same either way.  With a
    :class:`~repro.planner.stats.GraphStatistics` catalogue the
    estimates additionally price value-test selectivity and measured
    closure growth (the v2 cost model) — sessions pass the graph's
    cached catalogue, direct callers may omit it.
    """
    eliminated, rewrites = eliminate(query)
    atoms = eliminated.atoms
    emits = _live_columns(eliminated)
    rewrites += tuple(
        f"#{position} {atom_text(atom)} emits ({', '.join(columns)})"
        for position, (atom, columns) in enumerate(zip(atoms, emits))
        if len(columns) < 2
    )
    estimates = [atom_estimate(atom, index, stats) for atom in atoms]
    remaining = list(range(len(atoms)))

    # 1. The cheapest atom opens the plan.
    first = min(remaining, key=lambda i: (estimates[i], i))
    remaining.remove(first)
    order: List[int] = [first]
    bound: Set[str] = set()
    root = _scan(atoms[first], first, estimates[first], bound, emits[first])
    bound.update({atoms[first].source, atoms[first].target})

    # 2./3. Greedily extend: connected-and-cheapest, else cheapest.
    while remaining:
        connected = [
            i for i in remaining if atoms[i].source in bound or atoms[i].target in bound
        ]
        pool = connected if connected else remaining
        chosen = min(pool, key=lambda i: (estimates[i], i))
        remaining.remove(chosen)
        order.append(chosen)
        atom = atoms[chosen]
        scan = _scan(atom, chosen, estimates[chosen], bound, emits[chosen])
        keys = tuple(
            variable
            for variable in dict.fromkeys((atom.source, atom.target))
            if variable in bound
        )
        root = HashJoin(root, scan, keys)
        bound.update({atom.source, atom.target})

    root = Project(root, tuple(query.head))
    return CrpqPlan(
        query=query,
        eliminated=eliminated,
        rewrites=rewrites,
        root=root,
        atom_order=tuple(order),
        stats_version=index.version if index is not None else None,
        estimates=tuple(estimates),
        emits=emits,
    )


def reorder_remaining(
    atoms: Sequence[Atom],
    estimates: Sequence[float],
    remaining: Iterable[int],
    bound: Iterable[str],
    observed: float,
    num_nodes: int,
) -> List[int]:
    """Re-derive the greedy join order for the *remaining* atoms.

    Used by the adaptive executor after a misestimate: the same
    connected-and-cheapest policy as :func:`plan_crpq`, but atoms
    touching an already-bound variable are priced as *seeded* scans —
    their estimate scaled by the observed binding count over ``|V|`` —
    so a join that just came out far smaller (or larger) than planned
    re-ranks everything still to run.  Deterministic: ties break by atom
    position, like the planner.
    """
    nodes = float(max(1, num_nodes))
    pending = list(remaining)
    bound_now: Set[str] = set(bound)
    size = max(1.0, observed)
    order: List[int] = []
    while pending:
        connected = [
            i
            for i in pending
            if atoms[i].source in bound_now or atoms[i].target in bound_now
        ]
        pool = connected if connected else pending

        def seeded_cost(i: int) -> Tuple[float, int]:
            estimate = estimates[i]
            if atoms[i].source in bound_now or atoms[i].target in bound_now:
                estimate *= min(1.0, size / nodes)
            return (estimate, i)

        chosen = min(pool, key=seeded_cost)
        pending.remove(chosen)
        order.append(chosen)
        bound_now.update({atoms[chosen].source, atoms[chosen].target})
    return order
