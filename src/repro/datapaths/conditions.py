"""Conditions and valuations for regular expressions with memory.

Section 3 of the paper defines conditions over a set ``X`` of variables
(registers) by the grammar::

    c := x=  |  x≠  |  c ∧ c  |  c ∨ c

Satisfaction is defined with respect to a pair ``(σ, d)`` where ``σ`` is
a partial valuation of the variables and ``d`` is a data value:

* ``σ, d ⊨ x=``  iff  ``σ(x) = d``;
* ``σ, d ⊨ x≠``  iff  ``σ(x) ≠ d``;

with the usual rules for ``∧`` and ``∨``.  Conditions are closed under
negation by pushing ``¬`` to the leaves and swapping ``x=`` with ``x≠``.

Section 7 modifies the rules over the extended domain ``D ∪ {null}``:
a comparison is only true when neither side is null (the SQL rule).  The
evaluation functions take a ``null_semantics`` flag selecting between
the two readings; Remark 2 of the paper shows the two-valued reading
used here coincides with SQL's three-valued logic for data RPQs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional

from ..datagraph.values import DataValue, is_null
from ..exceptions import UnboundVariableError

__all__ = [
    "Condition",
    "Equal",
    "NotEqual",
    "And",
    "Or",
    "TrueCondition",
    "Valuation",
    "EMPTY_VALUATION",
    "equal",
    "not_equal",
    "conj",
    "disj",
    "negate",
    "evaluate_condition",
]


class Condition:
    """Base class of REM conditions."""

    def variables(self) -> FrozenSet[str]:
        """The set of variables mentioned by the condition."""
        raise NotImplementedError

    def negated(self) -> "Condition":
        """The negation, pushed to the leaves (x= ↔ x≠)."""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """The always-true condition (used for unconditioned sub-expressions)."""

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def negated(self) -> "Condition":
        # There is no "false" in the paper's grammar; callers never negate
        # the trivial condition, so we keep closure by returning a condition
        # that can never hold: x= ∧ x≠ over a reserved variable would need a
        # binding, so instead we raise to surface misuse early.
        raise ValueError("the trivial condition has no negation in the REM condition grammar")

    def __str__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class Equal(Condition):
    """The atomic condition ``x=``: the current data value equals σ(x)."""

    variable: str

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.variable})

    def negated(self) -> "Condition":
        return NotEqual(self.variable)

    def __str__(self) -> str:
        return f"{self.variable}="


@dataclass(frozen=True)
class NotEqual(Condition):
    """The atomic condition ``x≠``: the current data value differs from σ(x)."""

    variable: str

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.variable})

    def negated(self) -> "Condition":
        return Equal(self.variable)

    def __str__(self) -> str:
        return f"{self.variable}≠"


@dataclass(frozen=True)
class And(Condition):
    """Conjunction of two conditions."""

    left: Condition
    right: Condition

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def negated(self) -> "Condition":
        return Or(self.left.negated(), self.right.negated())

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"


@dataclass(frozen=True)
class Or(Condition):
    """Disjunction of two conditions."""

    left: Condition
    right: Condition

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def negated(self) -> "Condition":
        return And(self.left.negated(), self.right.negated())

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"


def equal(variable: str) -> Equal:
    """The condition ``variable=``."""
    return Equal(variable)


def not_equal(variable: str) -> NotEqual:
    """The condition ``variable≠``."""
    return NotEqual(variable)


def conj(*conditions: Condition) -> Condition:
    """Conjunction of several conditions (``⊤`` for the empty conjunction)."""
    useful = [c for c in conditions if not isinstance(c, TrueCondition)]
    if not useful:
        return TrueCondition()
    result = useful[0]
    for condition in useful[1:]:
        result = And(result, condition)
    return result


def disj(*conditions: Condition) -> Condition:
    """Disjunction of several conditions."""
    if not conditions:
        raise ValueError("disjunction of zero conditions is undefined")
    result = conditions[0]
    for condition in conditions[1:]:
        result = Or(result, condition)
    return result


def negate(condition: Condition) -> Condition:
    """The negation of a condition, pushed to the leaves."""
    return condition.negated()


class Valuation:
    """An immutable partial map from variables (registers) to data values.

    The paper writes valuations as ``σ : X → D ∪ {⊥}`` with finite
    support.  Unbound variables are simply absent from the mapping.
    """

    __slots__ = ("_assignment", "_hash")

    def __init__(self, assignment: Optional[Mapping[str, DataValue]] = None):
        # A private copy nobody mutates after construction; the hash is
        # computed on first use (register-product configurations hash
        # their valuation on every mask lookup).
        self._assignment: Dict[str, DataValue] = dict(assignment or {})
        self._hash: Optional[int] = None

    def get(self, variable: str) -> Optional[DataValue]:
        """The value bound to *variable*, or ``None`` (⊥) if unbound."""
        return self._assignment.get(variable)

    def is_bound(self, variable: str) -> bool:
        """Whether *variable* has been assigned a value."""
        return variable in self._assignment

    def bind(self, variables: Iterable[str] | str, value: DataValue) -> "Valuation":
        """Return a new valuation with the given variable(s) bound to *value*.

        This implements the ``σ_{x̄ = d}`` update used by the ``↓x̄.e``
        construct of REM expressions.
        """
        if isinstance(variables, str):
            variables = (variables,)
        updated = dict(self._assignment)
        for variable in variables:
            updated[variable] = value
        return Valuation(updated)

    def as_dict(self) -> Dict[str, DataValue]:
        """A plain-dict copy of the assignment."""
        return dict(self._assignment)

    def support(self) -> FrozenSet[str]:
        """The set of bound variables."""
        return frozenset(self._assignment)

    def restrict(self, variables: Iterable[str]) -> "Valuation":
        """The valuation restricted to the given variables."""
        keep = set(variables)
        return Valuation({var: val for var, val in self._assignment.items() if var in keep})

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(frozenset(self._assignment.items()))
        return cached

    def __reduce__(self):
        # Rebuild from the plain dict: the cached hash must not travel
        # (string hashes differ between interpreter processes).
        return (Valuation, (dict(self._assignment),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{var}={val!r}" for var, val in sorted(self._assignment.items()))
        return f"Valuation({{{inner}}})"


#: The empty valuation ⊥ (every variable undefined).
EMPTY_VALUATION = Valuation()


def evaluate_condition(
    condition: Condition,
    valuation: Valuation,
    value: DataValue,
    null_semantics: bool = False,
) -> bool:
    """Evaluate ``σ, d ⊨ c``.

    Parameters
    ----------
    condition:
        The condition ``c``.
    valuation:
        The valuation ``σ``.
    value:
        The current data value ``d``.
    null_semantics:
        When ``True``, apply the SQL-null rule of Section 7: a comparison
        is true only if neither ``σ(x)`` nor ``d`` is the null value.

    Raises
    ------
    UnboundVariableError
        If the condition refers to a variable that ``σ`` does not bind
        (the pathological case the paper's Remark in Section 3 excludes)
        and ``null_semantics`` is off.  Under null semantics an unbound
        register behaves like a null (no comparison with it is true).
    """
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, (Equal, NotEqual)):
        bound = valuation.is_bound(condition.variable)
        if not bound:
            if null_semantics:
                return False
            raise UnboundVariableError(
                f"condition {condition} refers to unbound register {condition.variable!r}"
            )
        stored = valuation.get(condition.variable)
        if null_semantics and (is_null(stored) or is_null(value)):
            return False
        if isinstance(condition, Equal):
            return stored == value
        return stored != value
    if isinstance(condition, And):
        return evaluate_condition(condition.left, valuation, value, null_semantics) and evaluate_condition(
            condition.right, valuation, value, null_semantics
        )
    if isinstance(condition, Or):
        return evaluate_condition(condition.left, valuation, value, null_semantics) or evaluate_condition(
            condition.right, valuation, value, null_semantics
        )
    raise TypeError(f"unknown condition {condition!r}")  # pragma: no cover - defensive
