"""Word RPQs and finite-language utilities.

Definition 3 of the paper calls a mapping *relational* when every
right-hand-side query is a *word RPQ* — a regular expression denoting a
single word — and the remark after Proposition 2 extends this to finite
unions ``w1 + ... + wm``.  This module provides the recognition and
extraction routines the mapping classifier and the certain-answer
algorithms rely on.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

from .ast import Regex, Star
from .parser import parse_regex

__all__ = ["as_word", "as_finite_language", "is_reachability"]

#: Safety cap on the number of words extracted from a "finite" expression.
_FINITE_LIMIT = 4096


def _coerce(expression: Regex | str) -> Regex:
    return parse_regex(expression) if isinstance(expression, str) else expression


def as_word(expression: Regex | str) -> Optional[Tuple[str, ...]]:
    """The single word denoted by the expression, or ``None``.

    The empty word is returned as ``()``.
    """
    return _coerce(expression).word()


def as_finite_language(expression: Regex | str) -> Optional[FrozenSet[Tuple[str, ...]]]:
    """The finite language denoted by the expression, or ``None`` if infinite/too large."""
    return _coerce(expression).finite_language(_FINITE_LIMIT)


def is_reachability(expression: Regex | str, alphabet: Optional[Sequence[str]] = None) -> bool:
    """Whether the expression is the unconstrained reachability query ``Σ*``.

    A syntactic check is used: the expression must be a star whose body
    denotes (a union of) single letters covering the given alphabet.  When
    *alphabet* is ``None`` the letters of the expression itself are used,
    i.e. the check is "star over a union of letters".
    """
    expr = _coerce(expression)
    if not isinstance(expr, Star):
        return False
    inner_language = expr.inner.finite_language(_FINITE_LIMIT)
    if inner_language is None:
        return False
    letters = set()
    for item in inner_language:
        if len(item) != 1:
            return False
        letters.add(item[0])
    if alphabet is None:
        return bool(letters)
    return letters == set(alphabet)
