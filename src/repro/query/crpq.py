"""Conjunctive (data) RPQs.

Section 5 of the paper notes that the navigational query-answering results
of [8, 12] also hold for *conjunctive RPQs* (CRPQs) and their extensions.
A CRPQ is a conjunction of RPQ atoms sharing variables, with a tuple of
output variables::

    Q(x, y)  :-  (x, e1, z), (z, e2, y), (y, e3, x)

This module implements CRPQs whose atoms may be plain RPQs or data RPQs.
Production evaluation routes through :mod:`repro.planner` (cost-ordered
hash joins over seeded engine kernels); the historical tuple-at-a-time
nested-loop join is retired to :func:`evaluate_crpq_naive`, the
executable specification the planner is equivalence-tested against.
:func:`parse_crpq` supplies the textual syntax used by
``Query.parse(..., dialect="crpq")`` and the CLI's ``--crpq`` flag::

    x, y :- (x, knows.knows, z), (z, rem:!r.(bridge[r=])+, y)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple, Union

from ..datagraph.graph import DataGraph
from ..datagraph.node import Node
from ..exceptions import EvaluationError, ParseError
from .data_rpq import DataRPQ
from .rpq import RPQ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import EvaluationEngine
    from ..planner.router import Route

__all__ = [
    "Atom",
    "ConjunctiveRPQ",
    "parse_crpq",
    "evaluate_crpq_naive",
    "evaluate_crpq_with_engine",
]

QueryLike = Union[RPQ, DataRPQ]


@dataclass(frozen=True)
class Atom:
    """An atom ``(x, e, y)``: variable *source*, query *query*, variable *target*."""

    source: str
    query: QueryLike
    target: str

    def __str__(self) -> str:
        return f"({self.source}, {self.query.expression}, {self.target})"


@dataclass(frozen=True)
class ConjunctiveRPQ:
    """A conjunctive (data) RPQ with designated output variables.

    Attributes
    ----------
    head:
        The output variables, in order.
    atoms:
        The conjunction of atoms; every head variable must occur in some atom.
    """

    head: Tuple[str, ...]
    atoms: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        mentioned = self.variables()
        for variable in self.head:
            if variable not in mentioned:
                raise EvaluationError(f"head variable {variable!r} does not occur in any atom")
        if not self.atoms:
            raise EvaluationError("a conjunctive RPQ needs at least one atom")

    @property
    def arity(self) -> int:
        """Number of output variables."""
        return len(self.head)

    def variables(self) -> FrozenSet[str]:
        """All variables occurring in the atoms."""
        result = set()
        for atom in self.atoms:
            result.add(atom.source)
            result.add(atom.target)
        return frozenset(result)

    def is_boolean(self) -> bool:
        """Whether the query has no output variables."""
        return not self.head

    def __str__(self) -> str:
        """The textual form :func:`parse_crpq` reads (modulo expression
        pretty-printing)."""
        atoms = ", ".join(str(atom) for atom in self.atoms)
        return f"{', '.join(self.head)} :- {atoms}"


def _parse_atom_query(text: str) -> QueryLike:
    """Parse one atom's query part, honouring an optional dialect prefix."""
    from ..datapaths import parse_ree, parse_rem
    from ..regular import parse_regex

    stripped = text.strip()
    for prefix, parse, wrap in (
        ("rpq:", parse_regex, RPQ),
        ("ree:", parse_ree, DataRPQ),
        ("rem:", parse_rem, DataRPQ),
    ):
        if stripped.startswith(prefix):
            return wrap(parse(stripped[len(prefix):].strip()))
    for parse, wrap in ((parse_regex, RPQ), (parse_ree, DataRPQ), (parse_rem, DataRPQ)):
        try:
            return wrap(parse(stripped))
        except ParseError:
            continue
    raise ParseError(
        f"cannot parse atom query {stripped!r} as RPQ, REE or REM "
        "(pin the dialect with an 'rpq:'/'ree:'/'rem:' prefix)"
    )


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside parentheses or brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def _parse_head(text: str) -> Tuple[str, ...]:
    """The head variables of the textual form: ``x, y`` / ``Q(x, y)`` / empty."""
    stripped = text.strip()
    if not stripped or stripped == "()":
        return ()
    if stripped.endswith(")") and "(" in stripped:
        stripped = stripped[stripped.index("(") + 1 : -1].strip()
        if not stripped:
            return ()
    variables = tuple(part.strip() for part in stripped.split(","))
    if any(not variable.isidentifier() for variable in variables):
        raise ParseError(f"malformed CRPQ head {text.strip()!r}")
    return variables


def parse_crpq(text: str) -> ConjunctiveRPQ:
    """Parse the textual CRPQ syntax into a :class:`ConjunctiveRPQ`.

    The grammar mirrors the paper's rule notation::

        head :- (x, query, y), (y, query, z), ...

    where *head* is a comma-separated variable list — optionally written
    ``Q(x, y)`` — or empty / ``()`` for a Boolean query, and each atom's
    query part is RPQ text by default, or REE / REM text behind an
    explicit ``ree:`` / ``rem:`` prefix (unprefixed text is tried in
    that order).  ``<-`` is accepted in place of ``:-``.
    """
    for separator in (":-", "<-"):
        if separator in text:
            head_text, _, body = text.partition(separator)
            break
    else:
        raise ParseError(f"a CRPQ needs a ':-' between head and atoms: {text!r}")
    head = _parse_head(head_text)
    atoms: List[Atom] = []
    for part in _split_top_level(body):
        stripped = part.strip()
        if not stripped:
            continue
        if not (stripped.startswith("(") and stripped.endswith(")")):
            raise ParseError(f"malformed CRPQ atom {stripped!r}; expected '(x, query, y)'")
        pieces = _split_top_level(stripped[1:-1])
        if len(pieces) != 3:
            raise ParseError(
                f"malformed CRPQ atom {stripped!r}; expected three comma-separated parts"
            )
        source, query_text, target = (piece.strip() for piece in pieces)
        if not source.isidentifier() or not target.isidentifier():
            raise ParseError(f"malformed CRPQ atom variables in {stripped!r}")
        atoms.append(Atom(source, _parse_atom_query(query_text), target))
    if not atoms:
        raise ParseError(f"a CRPQ needs at least one atom: {text!r}")
    return ConjunctiveRPQ(head, tuple(atoms))


def evaluate_crpq_naive(
    graph: DataGraph,
    query: ConjunctiveRPQ,
    null_semantics: bool = False,
    engine: Optional["EvaluationEngine"] = None,
) -> FrozenSet[Tuple[Node, ...]]:
    """The retired nested-loop join, kept as the executable specification.

    Materialises every atom's full relation, then joins tuple by tuple
    over partial variable assignments.  Quadratically slower than the
    planner path on anything non-trivial — its only job is to pin the
    semantics the planner's equivalence tests check against.  Self-loop
    atoms ``(x, e, x)`` admit only pairs with ``source == target``
    (historically the target assignment silently overwrote the source,
    admitting arbitrary pairs).  Atoms are evaluated on the dict
    kernels, independent of the compact route the default policy runs.
    """
    from ..planner.router import Route

    if engine is None:
        from ..engine import default_engine

        engine = default_engine()
    route = Route("dict", "the executable specification")
    # Evaluate every atom once.
    atom_relations: List[Tuple[Atom, FrozenSet[Tuple[Node, Node]]]] = []
    for atom in query.atoms:
        if isinstance(atom.query, DataRPQ):
            relation = engine.evaluate_data_rpq(
                graph, atom.query, null_semantics=null_semantics, route=route
            )
        elif isinstance(atom.query, RPQ):
            relation = engine.evaluate_rpq(graph, atom.query, route)
        else:  # pragma: no cover - defensive
            raise EvaluationError(f"unsupported atom query {atom.query!r}")
        atom_relations.append((atom, relation))

    # Join atom by atom, keeping partial assignments of variables to nodes.
    assignments: List[Dict[str, Node]] = [{}]
    # Order atoms to join connected variables early (greedy heuristic).
    remaining = list(atom_relations)
    ordered: List[Tuple[Atom, FrozenSet[Tuple[Node, Node]]]] = []
    bound_vars: set = set()
    while remaining:
        index = next(
            (
                i
                for i, (atom, _) in enumerate(remaining)
                if atom.source in bound_vars or atom.target in bound_vars
            ),
            0,
        )
        atom, relation = remaining.pop(index)
        ordered.append((atom, relation))
        bound_vars.update({atom.source, atom.target})

    for atom, relation in ordered:
        self_loop = atom.source == atom.target
        next_assignments: List[Dict[str, Node]] = []
        for assignment in assignments:
            for source, target in relation:
                if self_loop and source != target:
                    continue
                if atom.source in assignment and assignment[atom.source] != source:
                    continue
                if atom.target in assignment and assignment[atom.target] != target:
                    continue
                extended = dict(assignment)
                extended[atom.source] = source
                extended[atom.target] = target
                next_assignments.append(extended)
        assignments = next_assignments
        if not assignments:
            return frozenset()

    results = set()
    for assignment in assignments:
        results.add(tuple(assignment[variable] for variable in query.head))
    return frozenset(results)


def evaluate_crpq_with_engine(
    graph: DataGraph,
    query: ConjunctiveRPQ,
    null_semantics: bool = False,
    engine: Optional["EvaluationEngine"] = None,
    route: Optional["Route"] = None,
) -> FrozenSet[Tuple[Node, ...]]:
    """Evaluate a conjunctive (data) RPQ through the query planner.

    Returns the set of tuples of nodes for the head variables; a Boolean
    query returns ``{()}`` when satisfied and ``frozenset()`` otherwise.
    This is the internal evaluator behind the CRPQ kind of the unified
    :class:`repro.api.Query` IR; *engine* defaults to the process-wide
    shared engine.  Since the planner landed this plans against the
    graph's label-index statistics and executes cost-ordered hash joins
    with semijoin-seeded kernels (see :mod:`repro.planner`); sessions
    additionally cache the plan — use
    :meth:`repro.api.GraphSession.run` for that.
    """
    from ..planner import execute_plan, plan_crpq

    plan = plan_crpq(query, graph.label_index())
    return execute_plan(plan, graph, engine=engine, null_semantics=null_semantics, route=route)
