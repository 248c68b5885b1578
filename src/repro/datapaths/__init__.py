"""Data-path expression languages: REM, REE, paths with tests, register automata.

This sub-package implements the query formalisms of Section 3 of the
paper — the languages of data paths that data RPQs are based on — along
with the condition/valuation machinery, parsers, the compilation of REM
to register automata, and fragment classification (REM= / REE= / paths
with tests) used by the algorithms of Sections 6–8.
"""

from .conditions import (
    And,
    Condition,
    Equal,
    NotEqual,
    Or,
    TrueCondition,
    Valuation,
    conj,
    disj,
    equal,
    negate,
    not_equal,
)
from .fragments import Fragment, classify, ree_to_rem
from .path_tests import equality_subexpressions, is_path_with_tests, path_length
from .ree import (
    RegexWithEquality,
    ree_any_of,
    ree_concat,
    ree_epsilon,
    ree_equal,
    ree_letter,
    ree_matches,
    ree_not_equal,
    ree_plus,
    ree_star,
    ree_union,
    ree_universal,
    ree_word,
)
from .ree_parser import parse_ree
from .register_automata import RegisterAutomaton, compile_rem, ra_accepts, ra_is_empty
from .rem import (
    RegexWithMemory,
    rem_bind,
    rem_concat,
    rem_epsilon,
    rem_letter,
    rem_matches,
    rem_plus,
    rem_star,
    rem_test,
    rem_union,
)
from .rem_parser import parse_rem

__all__ = [
    # conditions
    "Condition",
    "Equal",
    "NotEqual",
    "And",
    "Or",
    "TrueCondition",
    "Valuation",
    "equal",
    "not_equal",
    "conj",
    "disj",
    "negate",
    # REM
    "RegexWithMemory",
    "rem_epsilon",
    "rem_letter",
    "rem_concat",
    "rem_union",
    "rem_plus",
    "rem_star",
    "rem_test",
    "rem_bind",
    "rem_matches",
    "parse_rem",
    # REE
    "RegexWithEquality",
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
    "parse_ree",
    # paths with tests / fragments
    "is_path_with_tests",
    "path_length",
    "equality_subexpressions",
    "Fragment",
    "classify",
    "ree_to_rem",
    # register automata
    "RegisterAutomaton",
    "compile_rem",
    "ra_accepts",
    "ra_is_empty",
]
