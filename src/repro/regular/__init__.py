"""Classical regular expressions and finite automata over edge labels.

This sub-package supplies the purely navigational layer the paper's RPQs
are built on: regex ASTs and a parser, Thompson NFAs, and the syntactic
recognition of word RPQs, finite unions and reachability expressions
(used by the mapping classifier of Definition 3).
"""

from .ast import (
    EPSILON,
    Concat,
    Epsilon,
    Letter,
    Plus,
    Regex,
    Star,
    Union,
    any_of,
    concat,
    letter,
    plus,
    star,
    union,
    universal,
    word,
)
from .nfa import NFA, thompson, to_nfa
from .parser import parse_regex
from .word_language import as_finite_language, as_word, is_reachability

__all__ = [
    "Regex",
    "Epsilon",
    "Letter",
    "Concat",
    "Union",
    "Star",
    "Plus",
    "EPSILON",
    "letter",
    "concat",
    "union",
    "star",
    "plus",
    "word",
    "any_of",
    "universal",
    "parse_regex",
    "NFA",
    "thompson",
    "to_nfa",
    "as_word",
    "as_finite_language",
    "is_reachability",
]
