"""Atom patterns and their homomorphisms into relational instances.

Relational schema mappings (Section 6) express the right-hand sides of
st-tgds as conjunctions of atoms over the target schema; the chase and
the mapping-satisfaction checks both search for the homomorphisms of
such a conjunction into an instance.  The search extends partial
assignments atom by atom, with variables and constants distinguished by
the :class:`Variable` wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Tuple

from .schema import Instance

__all__ = ["Variable", "AtomPattern", "homomorphisms"]


@dataclass(frozen=True)
class Variable:
    """A query variable, distinct from every constant."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Hashable  # either a constant / marked null, or a Variable


@dataclass(frozen=True)
class AtomPattern:
    """An atom ``R(t1, ..., tk)`` whose terms are variables or constants."""

    relation: str
    terms: Tuple[Term, ...]

    def variables(self) -> FrozenSet[Variable]:
        """The variables occurring in the atom."""
        return frozenset(term for term in self.terms if isinstance(term, Variable))


def _match_atom(
    instance: Instance, atom: AtomPattern, assignment: Dict[Variable, Hashable]
) -> Iterator[Dict[Variable, Hashable]]:
    """All extensions of *assignment* matching *atom* against the instance."""
    for fact in instance.facts(atom.relation):
        extended = dict(assignment)
        ok = True
        for term, value in zip(atom.terms, fact):
            if isinstance(term, Variable):
                if term in extended and extended[term] != value:
                    ok = False
                    break
                extended[term] = value
            elif term != value:
                ok = False
                break
        if ok:
            yield extended


def homomorphisms(
    instance: Instance,
    atoms: Sequence[AtomPattern],
    seed: Optional[Dict[Variable, Hashable]] = None,
) -> Iterator[Dict[Variable, Hashable]]:
    """All assignments of variables to instance terms satisfying every atom."""
    assignments: List[Dict[Variable, Hashable]] = [dict(seed or {})]
    for atom in atoms:
        next_assignments: List[Dict[Variable, Hashable]] = []
        for assignment in assignments:
            next_assignments.extend(_match_atom(instance, atom, assignment))
        assignments = next_assignments
        if not assignments:
            return
    yield from assignments
