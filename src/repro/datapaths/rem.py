"""Regular expressions with memory (REM) and their semantics on data paths.

Section 3 of the paper defines the class ``REM(Σ, X)`` by the grammar::

    e := ε | a | e + e | e · e | e+ | e[c] | ↓x̄.e

where ``a`` ranges over edge labels, ``c`` over conditions and ``x̄`` over
tuples of variables (registers).  The semantics is the derivation
relation ``(e, w, σ) ⊢ σ'``: starting from valuation ``σ`` and parsing
the data path ``w`` according to ``e`` one may end in valuation ``σ'``.
The language is ``L(e) = {w | ∃σ : (e, w, ⊥) ⊢ σ}``.

This module implements the ASTs, the derivation relation (via dynamic
programming over sub-paths of ``w``), language membership, and the
fragment checks used elsewhere (``REM=`` — no inequality conditions,
Section 8).  The SQL-null evaluation mode of Section 7 is supported via
the ``null_semantics`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..datagraph.paths import DataPath
from ..exceptions import EvaluationError
from .conditions import (
    EMPTY_VALUATION,
    And,
    Condition,
    Equal,
    NotEqual,
    Or,
    TrueCondition,
    Valuation,
    evaluate_condition,
)

__all__ = [
    "RegexWithMemory",
    "RemEpsilon",
    "RemLetter",
    "RemConcat",
    "RemUnion",
    "RemPlus",
    "RemTest",
    "RemBind",
    "rem_epsilon",
    "rem_letter",
    "rem_concat",
    "rem_union",
    "rem_plus",
    "rem_star",
    "rem_test",
    "rem_bind",
    "derive",
    "rem_matches",
]


class RegexWithMemory:
    """Base class of REM expression nodes."""

    def variables(self) -> FrozenSet[str]:
        """Variables (registers) mentioned anywhere in the expression."""
        raise NotImplementedError

    def labels(self) -> FrozenSet[str]:
        """Edge labels used by the expression."""
        raise NotImplementedError

    def uses_inequality(self) -> bool:
        """Whether any condition in the expression uses ``x≠`` (outside REM=)."""
        raise NotImplementedError

    def __add__(self, other: "RegexWithMemory") -> "RegexWithMemory":
        return RemUnion(self, other)

    def __mul__(self, other: "RegexWithMemory") -> "RegexWithMemory":
        return RemConcat(self, other)


@dataclass(frozen=True)
class RemEpsilon(RegexWithMemory):
    """The expression ε: matches any single data value, leaves σ unchanged."""

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def labels(self) -> FrozenSet[str]:
        return frozenset()

    def uses_inequality(self) -> bool:
        return False

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class RemLetter(RegexWithMemory):
    """A single letter ``a``: matches data paths ``d a d'``."""

    symbol: str

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def labels(self) -> FrozenSet[str]:
        return frozenset({self.symbol})

    def uses_inequality(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class RemConcat(RegexWithMemory):
    """Concatenation ``e1 · e2`` (splitting the data path at a shared value)."""

    left: RegexWithMemory
    right: RegexWithMemory

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def labels(self) -> FrozenSet[str]:
        return self.left.labels() | self.right.labels()

    def uses_inequality(self) -> bool:
        return self.left.uses_inequality() or self.right.uses_inequality()

    def __str__(self) -> str:
        return f"({self.left}·{self.right})"


@dataclass(frozen=True)
class RemUnion(RegexWithMemory):
    """Union ``e1 + e2``."""

    left: RegexWithMemory
    right: RegexWithMemory

    def variables(self) -> FrozenSet[str]:
        return self.left.variables() | self.right.variables()

    def labels(self) -> FrozenSet[str]:
        return self.left.labels() | self.right.labels()

    def uses_inequality(self) -> bool:
        return self.left.uses_inequality() or self.right.uses_inequality()

    def __str__(self) -> str:
        return f"({self.left}+{self.right})"


@dataclass(frozen=True)
class RemPlus(RegexWithMemory):
    """One-or-more repetition ``e+`` (valuations thread through iterations)."""

    inner: RegexWithMemory

    def variables(self) -> FrozenSet[str]:
        return self.inner.variables()

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        return self.inner.uses_inequality()

    def __str__(self) -> str:
        return f"({self.inner})+"


@dataclass(frozen=True)
class RemTest(RegexWithMemory):
    """Condition test ``e[c]``: after matching ``e`` the last value must satisfy ``c``."""

    inner: RegexWithMemory
    condition: Condition

    def variables(self) -> FrozenSet[str]:
        return self.inner.variables() | self.condition.variables()

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        if self.inner.uses_inequality():
            return True
        return _condition_uses_inequality(self.condition)

    def __str__(self) -> str:
        return f"{self.inner}[{self.condition}]"


@dataclass(frozen=True)
class RemBind(RegexWithMemory):
    """Binding ``↓x̄.e``: store the first data value in the registers ``x̄``."""

    variables_bound: Tuple[str, ...]
    inner: RegexWithMemory

    def variables(self) -> FrozenSet[str]:
        return frozenset(self.variables_bound) | self.inner.variables()

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        return self.inner.uses_inequality()

    def __str__(self) -> str:
        bound = ",".join(self.variables_bound)
        return f"↓{bound}.{self.inner}"


def _condition_uses_inequality(condition: Condition) -> bool:
    if isinstance(condition, NotEqual):
        return True
    if isinstance(condition, (Equal, TrueCondition)):
        return False
    if isinstance(condition, (And, Or)):
        return _condition_uses_inequality(condition.left) or _condition_uses_inequality(condition.right)
    raise TypeError(f"unknown condition {condition!r}")  # pragma: no cover - defensive


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def rem_epsilon() -> RemEpsilon:
    """The ε expression."""
    return RemEpsilon()


def rem_letter(symbol: str) -> RemLetter:
    """A single-letter expression."""
    if not isinstance(symbol, str) or not symbol:
        raise ValueError(f"REM letters must be non-empty strings, got {symbol!r}")
    return RemLetter(symbol)


def rem_concat(*parts: RegexWithMemory) -> RegexWithMemory:
    """Concatenation of several REM expressions."""
    if not parts:
        return RemEpsilon()
    result = parts[0]
    for part in parts[1:]:
        result = RemConcat(result, part)
    return result


def rem_union(*parts: RegexWithMemory) -> RegexWithMemory:
    """Union of several REM expressions."""
    if not parts:
        raise ValueError("union of zero REM expressions is undefined")
    result = parts[0]
    for part in parts[1:]:
        result = RemUnion(result, part)
    return result


def rem_plus(inner: RegexWithMemory) -> RemPlus:
    """One-or-more repetition of an expression."""
    return RemPlus(inner)


def rem_star(inner: RegexWithMemory) -> RegexWithMemory:
    """Zero-or-more repetition, defined as ``ε + e+`` (as in the paper: Σ* = ε + Σ+)."""
    return RemUnion(RemEpsilon(), RemPlus(inner))


def rem_test(inner: RegexWithMemory, condition: Condition) -> RemTest:
    """The test expression ``e[c]``."""
    return RemTest(inner, condition)


def rem_bind(variables: Iterable[str] | str, inner: RegexWithMemory) -> RemBind:
    """The binding expression ``↓x̄.e``."""
    if isinstance(variables, str):
        variables = (variables,)
    bound = tuple(variables)
    if not bound:
        raise ValueError("↓ must bind at least one variable")
    return RemBind(bound, inner)


# ----------------------------------------------------------------------
# Semantics: the derivation relation (e, w, σ) ⊢ σ'
# ----------------------------------------------------------------------
def derive(
    expression: RegexWithMemory,
    data_path: DataPath,
    valuation: Valuation = EMPTY_VALUATION,
    null_semantics: bool = False,
) -> FrozenSet[Valuation]:
    """All valuations ``σ'`` with ``(e, w, σ) ⊢ σ'``.

    The computation is a dynamic program over sub-paths ``w[i..j]`` of the
    input data path, memoised on ``(expression, i, j, σ)``.
    """
    evaluator = _Derivation(data_path, null_semantics)
    return frozenset(evaluator.run(expression, 0, len(data_path), valuation))


def rem_matches(
    expression: RegexWithMemory,
    data_path: DataPath,
    valuation: Valuation = EMPTY_VALUATION,
    null_semantics: bool = False,
) -> bool:
    """Whether ``w ∈ L(e)`` (starting from the given valuation, default ⊥)."""
    return bool(derive(expression, data_path, valuation, null_semantics))


class _Derivation:
    """Memoised evaluator of the derivation relation over one data path."""

    def __init__(self, data_path: DataPath, null_semantics: bool):
        self.path = data_path
        self.null_semantics = null_semantics
        self._memo: Dict[Tuple[int, int, int, Valuation], FrozenSet[Valuation]] = {}

    def run(
        self, expression: RegexWithMemory, start: int, end: int, valuation: Valuation
    ) -> FrozenSet[Valuation]:
        key = (id(expression), start, end, valuation)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Seed the memo with the empty set to cut ill-founded cycles
        # (can only arise through zero-length Plus iterations).
        self._memo[key] = frozenset()
        result = frozenset(self._compute(expression, start, end, valuation))
        self._memo[key] = result
        return result

    # The sub-path w[i..j] spans label positions i..j-1 and data values i..j.
    def _compute(
        self, expression: RegexWithMemory, start: int, end: int, valuation: Valuation
    ) -> Set[Valuation]:
        if isinstance(expression, RemEpsilon):
            return {valuation} if start == end else set()

        if isinstance(expression, RemLetter):
            if end == start + 1 and self.path.labels[start] == expression.symbol:
                return {valuation}
            return set()

        if isinstance(expression, RemConcat):
            results: Set[Valuation] = set()
            for split in range(start, end + 1):
                intermediate = self.run(expression.left, start, split, valuation)
                for sigma in intermediate:
                    results.update(self.run(expression.right, split, end, sigma))
            return results

        if isinstance(expression, RemUnion):
            return set(self.run(expression.left, start, end, valuation)) | set(
                self.run(expression.right, start, end, valuation)
            )

        if isinstance(expression, RemPlus):
            # Reachability over (position, valuation) states via one or more
            # applications of the inner expression.
            results: Set[Valuation] = set()
            seen: Set[Tuple[int, Valuation]] = set()
            frontier: list[Tuple[int, Valuation]] = [(start, valuation)]
            while frontier:
                next_frontier: list[Tuple[int, Valuation]] = []
                for position, sigma in frontier:
                    for split in range(position, end + 1):
                        for sigma_next in self.run(expression.inner, position, split, sigma):
                            if split == end:
                                results.add(sigma_next)
                            state = (split, sigma_next)
                            if state not in seen:
                                seen.add(state)
                                next_frontier.append(state)
                frontier = next_frontier
            return results

        if isinstance(expression, RemTest):
            results = set()
            last_value = self.path.values[end]
            for sigma in self.run(expression.inner, start, end, valuation):
                if evaluate_condition(expression.condition, sigma, last_value, self.null_semantics):
                    results.add(sigma)
            return results

        if isinstance(expression, RemBind):
            first_value = self.path.values[start]
            bound = valuation.bind(expression.variables_bound, first_value)
            return set(self.run(expression.inner, start, end, bound))

        raise EvaluationError(f"unknown REM expression node {expression!r}")  # pragma: no cover
