"""Paths with tests — the simplest data RPQs (data path queries).

Section 3 of the paper singles out the fragment ``e := a | e·e | e= | e≠``
of regular expressions with equality, called *paths with tests*: a word of
labels where some sub-words are annotated with an equality or inequality
test between their first and last data values.  RPQs based on such
expressions are called *data path queries*; they feature in:

* Proposition 3 — certain answering of a data path query under a LAV
  relational mapping is coNP-hard (the query there uses three
  inequalities);
* Proposition 4 — with at most one inequality sub-expression, data
  complexity drops to NLogspace;
* Proposition 5 — for data path queries, certain answers are decidable
  (coNP) under *arbitrary* GSMs, because rules producing words longer
  than the query are useless.

This module provides recognition of the fragment inside general REE
expressions, the inequality count used by Proposition 4, and the query
length bound used by Proposition 5.
"""

from __future__ import annotations

from typing import Optional

from .ree import (
    ReeConcat,
    ReeEpsilon,
    ReeEqualTest,
    ReeLetter,
    ReeNotEqualTest,
    ReePlus,
    ReeUnion,
    RegexWithEquality,
)

__all__ = [
    "is_path_with_tests",
    "path_length",
    "equality_subexpressions",
]


def is_path_with_tests(expression: RegexWithEquality) -> bool:
    """Whether the expression belongs to the ``a | e·e | e= | e≠`` fragment.

    Union, Kleene plus and ε are excluded, exactly as in the paper's
    definition (the expressions are "just words, where some subwords carry
    an annotation").
    """
    if isinstance(expression, ReeLetter):
        return True
    if isinstance(expression, ReeConcat):
        return is_path_with_tests(expression.left) and is_path_with_tests(expression.right)
    if isinstance(expression, (ReeEqualTest, ReeNotEqualTest)):
        return is_path_with_tests(expression.inner)
    return False


def path_length(expression: RegexWithEquality) -> Optional[int]:
    """The number of labels matched by a path-with-tests expression.

    Every data path in the language of a path with tests has the same
    length (the number of letters in the underlying word); this is the
    bound Proposition 5 uses to prune mapping rules.  Returns ``None`` if
    the expression is not a path with tests.
    """
    if not is_path_with_tests(expression):
        return None
    return _length(expression)


def _length(expression: RegexWithEquality) -> int:
    if isinstance(expression, ReeLetter):
        return 1
    if isinstance(expression, ReeConcat):
        return _length(expression.left) + _length(expression.right)
    if isinstance(expression, (ReeEqualTest, ReeNotEqualTest)):
        return _length(expression.inner)
    raise AssertionError("not a path with tests")  # pragma: no cover - guarded by caller


def equality_subexpressions(expression: RegexWithEquality) -> int:
    """Number of ``e=`` annotations in the expression."""
    if isinstance(expression, ReeEqualTest):
        return 1 + equality_subexpressions(expression.inner)
    if isinstance(expression, ReeNotEqualTest):
        return equality_subexpressions(expression.inner)
    if isinstance(expression, (ReeConcat, ReeUnion)):
        return equality_subexpressions(expression.left) + equality_subexpressions(expression.right)
    if isinstance(expression, ReePlus):
        return equality_subexpressions(expression.inner)
    if isinstance(expression, (ReeLetter, ReeEpsilon)):
        return 0
    raise TypeError(f"unknown REE node {expression!r}")  # pragma: no cover - defensive
