"""The logical plan IR of the CRPQ planner.

A plan is a small immutable operator tree over *named columns* (the CRPQ
variables).  Five operators cover everything the planner emits:

``AtomScan``
    Materialise one atom's full binary relation through the engine,
    emitting only its **live** columns — the endpoints that are in the
    head or shared with another atom.  An atom whose far endpoint
    occurs nowhere else is a one-column relation (and its join a
    filter); one with no live endpoint is an existence test.
``SeededScan``
    Materialise one atom's relation restricted to the values an earlier
    join already bound for its source and/or target variable — the
    semijoin pushdown into the engine kernels
    (:func:`repro.engine.product.seeded_product_relation`).  A seeded
    scan only ever appears as the right child of a :class:`HashJoin`,
    which supplies the bindings at execution time.
``HashJoin``
    Join two subplans on their shared variables with a hash table built
    on the smaller side (an empty key tuple is a cartesian product —
    CRPQs may have disconnected components).
``Filter``
    Keep rows where two columns are equal and drop the second — how
    self-loop atoms ``(x, e, x)`` are expressed: the scan runs with a
    primed target column, the filter collapses it back onto ``x``.
``Project``
    Keep the head variables, in head order (an empty head is a Boolean
    query: the projection of any non-empty input is ``{()}``).

Plans are built by :func:`repro.planner.planner.plan_crpq`, executed by
:func:`repro.planner.execute.execute_plan` and rendered by
:func:`render_plan` (the string behind ``Query.explain()`` and the CLI's
``--explain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..query.crpq import Atom

__all__ = [
    "PlanNode",
    "AtomScan",
    "SeededScan",
    "HashJoin",
    "Filter",
    "Project",
    "loop_column",
    "atom_columns",
    "atom_text",
    "render_plan",
]

#: Ordered column names of a plan node's output relation.
Columns = Tuple[str, ...]


def loop_column(variable: str) -> str:
    """The primed target column a self-loop atom's scan binds.

    ``Atom(x, e, x)`` cannot expose two columns named ``x``; its scan
    binds ``(x, x′)`` and the planner wraps it in ``Filter(x = x′)``.
    The prime cannot clash with user variables — the CRPQ text syntax
    never produces it.
    """
    return variable + "′"


class PlanNode:
    """Base class of logical plan operators.

    Every node knows its output :attr:`columns`; subclasses are frozen
    dataclasses so whole plans are hashable and safe to cache alongside
    the session's versioned result cache.
    """

    __slots__ = ()

    @property
    def columns(self) -> Columns:
        raise NotImplementedError


def atom_columns(atom: Atom) -> Columns:
    """The two columns an atom's relation binds (a self-loop atom's
    target under its primed name)."""
    if atom.source == atom.target:
        return (atom.source, loop_column(atom.source))
    return (atom.source, atom.target)


def atom_text(atom: Atom) -> str:
    return f"({atom.source}, {atom.query.expression}, {atom.target})"


def _emits_text(scan: "AtomScan | SeededScan") -> str:
    """`` emits (z)`` for a scan that drops a dead column, else nothing."""
    if len(scan.emits) == 2:
        return ""
    return f" emits ({', '.join(scan.emits)})"


@dataclass(frozen=True)
class AtomScan(PlanNode):
    """One atom's full relation, evaluated through the engine kernels.

    ``index`` is the atom's position among the plan's (eliminated) atoms
    (used by explain output and by the executor to look the atom up);
    ``estimate`` is the planner's cardinality estimate, kept on the node
    so explain output shows why the join order was chosen; ``emits`` are
    the live columns the scan hands on, in atom order.
    """

    atom: Atom
    index: int
    estimate: float
    emits: Columns

    @property
    def columns(self) -> Columns:
        return self.emits

    def describe(self) -> str:
        return (
            f"AtomScan #{self.index} {atom_text(self.atom)}"
            f"{_emits_text(self)} est≈{self.estimate:.0f}"
        )


@dataclass(frozen=True)
class SeededScan(PlanNode):
    """One atom's relation seeded by the join's already-bound variables.

    ``seed_sources`` / ``seed_targets`` name the variables whose bound
    values restrict the atom's source / target side (``None`` leaves
    that side unrestricted).  At least one side is always seeded — an
    unseeded scan is an :class:`AtomScan`.
    """

    atom: Atom
    index: int
    estimate: float
    emits: Columns
    seed_sources: Optional[str] = None
    seed_targets: Optional[str] = None

    @property
    def columns(self) -> Columns:
        return self.emits

    def describe(self) -> str:
        seeds = []
        if self.seed_sources is not None:
            seeds.append(f"sources←{self.seed_sources}")
        if self.seed_targets is not None:
            seeds.append(f"targets←{self.seed_targets}")
        return (
            f"SeededScan #{self.index} {atom_text(self.atom)}{_emits_text(self)} "
            f"[{', '.join(seeds)}] est≈{self.estimate:.0f}"
        )


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep rows whose *left* and *right* columns are equal; drop *right*."""

    child: "PlanOp"
    left: str
    right: str

    @property
    def columns(self) -> Columns:
        return tuple(column for column in self.child.columns if column != self.right)

    def describe(self) -> str:
        return f"Filter {self.left} = {self.right}"


@dataclass(frozen=True)
class HashJoin(PlanNode):
    """Hash join of two subplans on their shared variables.

    ``keys`` are the join variables (columns present on both sides);
    empty keys mean a cartesian product.  Output columns are the left
    columns followed by the right-only columns, so variable positions
    are stable for the parent operators.
    """

    left: "PlanOp"
    right: "PlanOp"
    keys: Columns

    @property
    def columns(self) -> Columns:
        left = self.left.columns
        return left + tuple(c for c in self.right.columns if c not in left)

    def describe(self) -> str:
        if not self.keys:
            return "HashJoin ⨯ (cartesian)"
        return f"HashJoin on ({', '.join(self.keys)})"


@dataclass(frozen=True)
class Project(PlanNode):
    """Keep the head variables, in head order (dropping duplicates late)."""

    child: "PlanOp"
    head: Columns

    @property
    def columns(self) -> Columns:
        return self.head

    def describe(self) -> str:
        return f"Project [{', '.join(self.head)}]" if self.head else "Project [] (boolean)"


#: Any operator of the plan IR.
PlanOp = Union[AtomScan, SeededScan, HashJoin, Filter, Project]


def render_plan(node: PlanOp) -> str:
    """Render a plan as an indented operator tree (the ``--explain`` text)."""
    lines: List[str] = []

    def walk(node: PlanOp, prefix: str, tail: str) -> None:
        lines.append(prefix + tail + node.describe())
        children = []
        if isinstance(node, (Project, Filter)):
            children = [node.child]
        elif isinstance(node, HashJoin):
            children = [node.left, node.right]
        deeper = prefix + ("   " if tail == "└─ " else "│  ") if tail else prefix
        for position, child in enumerate(children):
            last = position == len(children) - 1
            walk(child, deeper, "└─ " if last else "├─ ")

    walk(node, "", "")
    return "\n".join(lines)
