"""Data RPQs: path queries on data graphs that combine navigation and data.

A *data RPQ* (Section 3) is an RPQ whose regular expression is taken from
one of the data-path languages — regular expressions with memory (memory
RPQs), regular expressions with equality (equality RPQs) or paths with
tests (data path queries).  Its answer on a data graph ``G`` is the set of
node pairs ``(v, v')`` connected by a path ``π`` with ``δ(π) ∈ L(e)``.

:class:`DataRPQ` wraps either expression kind and records which fragment
it belongs to; evaluation lives in :mod:`repro.query.data_rpq_eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Union

from ..datapaths import (
    Fragment,
    RegexWithEquality,
    RegexWithMemory,
    classify,
    is_path_with_tests,
    parse_ree,
    parse_rem,
    path_length,
)

__all__ = ["DataRPQ", "equality_rpq", "memory_rpq", "data_path_query"]

DataExpression = Union[RegexWithMemory, RegexWithEquality]


@dataclass(frozen=True)
class DataRPQ:
    """A data RPQ over a REM or REE expression.

    Attributes
    ----------
    expression:
        The underlying data-path expression.
    """

    expression: DataExpression

    @property
    def arity(self) -> int:
        """Data RPQs are binary queries."""
        return 2

    @property
    def fragment(self) -> Fragment:
        """The most specific fragment the underlying expression belongs to."""
        return classify(self.expression)

    def is_memory_rpq(self) -> bool:
        """Whether the query is based on a regular expression with memory."""
        return isinstance(self.expression, RegexWithMemory)

    def is_equality_rpq(self) -> bool:
        """Whether the query is based on a regular expression with equality."""
        return isinstance(self.expression, RegexWithEquality)

    def is_data_path_query(self) -> bool:
        """Whether the query is a data path query (path with tests)."""
        return isinstance(self.expression, RegexWithEquality) and is_path_with_tests(self.expression)

    def uses_inequality(self) -> bool:
        """Whether the query falls outside the equality-only fragments of Section 8."""
        return self.expression.uses_inequality()

    def labels(self) -> FrozenSet[str]:
        """Edge labels mentioned by the query."""
        return self.expression.labels()

    def fixed_length(self) -> Optional[int]:
        """The path length of a data path query, or ``None`` (Proposition 5)."""
        if self.is_data_path_query():
            return path_length(self.expression)  # type: ignore[arg-type]
        return None

    def __str__(self) -> str:
        return str(self.expression)


def equality_rpq(text_or_expression: str | RegexWithEquality) -> DataRPQ:
    """Build an equality RPQ from REE text or an REE AST."""
    if isinstance(text_or_expression, str):
        text_or_expression = parse_ree(text_or_expression)
    return DataRPQ(text_or_expression)


def memory_rpq(text_or_expression: str | RegexWithMemory) -> DataRPQ:
    """Build a memory RPQ from REM text or a REM AST."""
    if isinstance(text_or_expression, str):
        text_or_expression = parse_rem(text_or_expression)
    return DataRPQ(text_or_expression)


def data_path_query(text_or_expression: str | RegexWithEquality) -> DataRPQ:
    """Build a data path query (path with tests); validates the fragment.

    Raises
    ------
    ValueError
        If the expression is not a path with tests.
    """
    query = equality_rpq(text_or_expression)
    if not query.is_data_path_query():
        raise ValueError(f"{query} is not a path with tests (data path query)")
    return query
