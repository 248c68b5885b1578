"""Regular expressions with equality (REE) and their semantics on data paths.

Section 3 of the paper defines the class ``REE(Σ)`` by the grammar::

    e := ε | a | e + e | e · e | e+ | e= | e≠

The language ``L(e)`` of data paths is defined structurally; the two
subscripted forms restrict the sub-language to data paths whose first and
last data values are equal (``e=``) or different (``e≠``).

These expressions are strictly weaker than register automata but enjoy
PTIME nonemptiness and membership; the paper's Theorem 1 shows that even
this simple class makes certain-answer query answering undecidable under
reachability mappings, while Sections 7–8 give tractable algorithms for
them under relational mappings.

The SQL-null mode (Section 7) makes the ``e=``/``e≠`` tests false when
either endpoint value is the null.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from ..datagraph.paths import DataPath
from ..datagraph.values import values_differ, values_equal
from ..exceptions import EvaluationError

__all__ = [
    "RegexWithEquality",
    "ReeEpsilon",
    "ReeLetter",
    "ReeConcat",
    "ReeUnion",
    "ReePlus",
    "ReeEqualTest",
    "ReeNotEqualTest",
    "ree_epsilon",
    "ree_letter",
    "ree_concat",
    "ree_union",
    "ree_plus",
    "ree_star",
    "ree_equal",
    "ree_not_equal",
    "ree_word",
    "ree_any_of",
    "ree_universal",
    "ree_matches",
]


class RegexWithEquality:
    """Base class of REE expression nodes."""

    def labels(self) -> FrozenSet[str]:
        """Edge labels used by the expression."""
        raise NotImplementedError

    def uses_inequality(self) -> bool:
        """Whether the expression contains an ``e≠`` subscript (outside REE=)."""
        raise NotImplementedError

    def inequality_count(self) -> int:
        """Number of ``e≠`` subscripts (Proposition 4 cares about ≤ 1)."""
        raise NotImplementedError

    def __add__(self, other: "RegexWithEquality") -> "RegexWithEquality":
        return ReeUnion(self, other)

    def __mul__(self, other: "RegexWithEquality") -> "RegexWithEquality":
        return ReeConcat(self, other)


@dataclass(frozen=True)
class ReeEpsilon(RegexWithEquality):
    """ε: matches every single data value."""

    def labels(self) -> FrozenSet[str]:
        return frozenset()

    def uses_inequality(self) -> bool:
        return False

    def inequality_count(self) -> int:
        return 0

    def __str__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class ReeLetter(RegexWithEquality):
    """A single letter ``a``: matches data paths ``d a d'``."""

    symbol: str

    def labels(self) -> FrozenSet[str]:
        return frozenset({self.symbol})

    def uses_inequality(self) -> bool:
        return False

    def inequality_count(self) -> int:
        return 0

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True)
class ReeConcat(RegexWithEquality):
    """Concatenation ``e · e'``."""

    left: RegexWithEquality
    right: RegexWithEquality

    def labels(self) -> FrozenSet[str]:
        return self.left.labels() | self.right.labels()

    def uses_inequality(self) -> bool:
        return self.left.uses_inequality() or self.right.uses_inequality()

    def inequality_count(self) -> int:
        return self.left.inequality_count() + self.right.inequality_count()

    def __str__(self) -> str:
        return f"({self.left}·{self.right})"


@dataclass(frozen=True)
class ReeUnion(RegexWithEquality):
    """Union ``e + e'``."""

    left: RegexWithEquality
    right: RegexWithEquality

    def labels(self) -> FrozenSet[str]:
        return self.left.labels() | self.right.labels()

    def uses_inequality(self) -> bool:
        return self.left.uses_inequality() or self.right.uses_inequality()

    def inequality_count(self) -> int:
        return self.left.inequality_count() + self.right.inequality_count()

    def __str__(self) -> str:
        return f"({self.left}+{self.right})"


@dataclass(frozen=True)
class ReePlus(RegexWithEquality):
    """One-or-more repetition ``e+``."""

    inner: RegexWithEquality

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        return self.inner.uses_inequality()

    def inequality_count(self) -> int:
        return self.inner.inequality_count()

    def __str__(self) -> str:
        return f"({self.inner})+"


@dataclass(frozen=True)
class ReeEqualTest(RegexWithEquality):
    """Equality subscript ``e=``: first and last data value must coincide."""

    inner: RegexWithEquality

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        return self.inner.uses_inequality()

    def inequality_count(self) -> int:
        return self.inner.inequality_count()

    def __str__(self) -> str:
        return f"({self.inner})="


@dataclass(frozen=True)
class ReeNotEqualTest(RegexWithEquality):
    """Inequality subscript ``e≠``: first and last data value must differ."""

    inner: RegexWithEquality

    def labels(self) -> FrozenSet[str]:
        return self.inner.labels()

    def uses_inequality(self) -> bool:
        return True

    def inequality_count(self) -> int:
        return self.inner.inequality_count() + 1

    def __str__(self) -> str:
        return f"({self.inner})≠"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def ree_epsilon() -> ReeEpsilon:
    """The ε expression."""
    return ReeEpsilon()


def ree_letter(symbol: str) -> ReeLetter:
    """A single-letter expression."""
    if not isinstance(symbol, str) or not symbol:
        raise ValueError(f"REE letters must be non-empty strings, got {symbol!r}")
    return ReeLetter(symbol)


def ree_concat(*parts: RegexWithEquality) -> RegexWithEquality:
    """Concatenation of several REE expressions."""
    if not parts:
        return ReeEpsilon()
    result = parts[0]
    for part in parts[1:]:
        result = ReeConcat(result, part)
    return result


def ree_union(*parts: RegexWithEquality) -> RegexWithEquality:
    """Union of several REE expressions."""
    if not parts:
        raise ValueError("union of zero REE expressions is undefined")
    result = parts[0]
    for part in parts[1:]:
        result = ReeUnion(result, part)
    return result


def ree_plus(inner: RegexWithEquality) -> ReePlus:
    """One-or-more repetition."""
    return ReePlus(inner)


def ree_star(inner: RegexWithEquality) -> RegexWithEquality:
    """Zero-or-more repetition, defined as ``ε + e+`` as in the paper."""
    return ReeUnion(ReeEpsilon(), ReePlus(inner))


def ree_equal(inner: RegexWithEquality) -> ReeEqualTest:
    """The equality subscript ``e=``."""
    return ReeEqualTest(inner)


def ree_not_equal(inner: RegexWithEquality) -> ReeNotEqualTest:
    """The inequality subscript ``e≠``."""
    return ReeNotEqualTest(inner)


def ree_word(labels: Tuple[str, ...] | List[str]) -> RegexWithEquality:
    """The expression matching exactly this sequence of labels (any data)."""
    return ree_concat(*[ree_letter(symbol) for symbol in labels]) if labels else ReeEpsilon()


def ree_any_of(alphabet) -> RegexWithEquality:
    """The expression ``a1 + ... + ak`` over the sorted alphabet."""
    letters = sorted(set(alphabet))
    if not letters:
        raise ValueError("ree_any_of needs a non-empty alphabet")
    return ree_union(*[ree_letter(symbol) for symbol in letters])


def ree_universal(alphabet) -> RegexWithEquality:
    """The reachability expression ``Σ*`` over the given alphabet."""
    return ree_star(ree_any_of(alphabet))


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------
def ree_matches(
    expression: RegexWithEquality, data_path: DataPath, null_semantics: bool = False
) -> bool:
    """Whether the data path belongs to ``L(e)``."""
    return _Matcher(data_path, null_semantics).run(expression, 0, len(data_path))


class _Matcher:
    """Memoised membership evaluator over one data path."""

    def __init__(self, data_path: DataPath, null_semantics: bool):
        self.path = data_path
        self.null_semantics = null_semantics
        self._memo: Dict[Tuple[int, int, int], bool] = {}

    def run(self, expression: RegexWithEquality, start: int, end: int) -> bool:
        key = (id(expression), start, end)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._memo[key] = False  # cut ill-founded cycles through zero-length Plus parts
        result = self._compute(expression, start, end)
        self._memo[key] = result
        return result

    def _endpoint_test(self, start: int, end: int, want_equal: bool) -> bool:
        first = self.path.values[start]
        last = self.path.values[end]
        if self.null_semantics:
            return values_equal(first, last) if want_equal else values_differ(first, last)
        return (first == last) if want_equal else (first != last)

    def _compute(self, expression: RegexWithEquality, start: int, end: int) -> bool:
        if isinstance(expression, ReeEpsilon):
            return start == end
        if isinstance(expression, ReeLetter):
            return end == start + 1 and self.path.labels[start] == expression.symbol
        if isinstance(expression, ReeConcat):
            return any(
                self.run(expression.left, start, split) and self.run(expression.right, split, end)
                for split in range(start, end + 1)
            )
        if isinstance(expression, ReeUnion):
            return self.run(expression.left, start, end) or self.run(expression.right, start, end)
        if isinstance(expression, ReePlus):
            # Reachability over positions by one or more applications of inner.
            reached: Set[int] = set()
            frontier = [start]
            while frontier:
                next_frontier: List[int] = []
                for position in frontier:
                    for split in range(position, end + 1):
                        if self.run(expression.inner, position, split):
                            if split == end:
                                return True
                            if split not in reached:
                                reached.add(split)
                                next_frontier.append(split)
                frontier = next_frontier
            return False
        if isinstance(expression, ReeEqualTest):
            return self.run(expression.inner, start, end) and self._endpoint_test(start, end, True)
        if isinstance(expression, ReeNotEqualTest):
            return self.run(expression.inner, start, end) and self._endpoint_test(start, end, False)
        raise EvaluationError(f"unknown REE expression node {expression!r}")  # pragma: no cover
