"""Tests for the regular expression AST and parser."""

from __future__ import annotations

import pytest
from conftest import regex_strategy
from hypothesis import given, settings

from repro.exceptions import ParseError
from repro.regular import (
    EPSILON,
    Concat,
    Plus,
    Star,
    Union,
    any_of,
    concat,
    letter,
    parse_regex,
    plus,
    star,
    union,
    universal,
    word,
)


class TestSmartConstructors:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            letter("")
        with pytest.raises(ValueError):
            letter(3)

    def test_concat_drops_epsilon(self):
        assert concat(EPSILON, letter("a"), EPSILON) == letter("a")
        assert concat() == EPSILON

    def test_union_dedupes(self):
        assert union(letter("a"), letter("a")) == letter("a")
        with pytest.raises(ValueError):
            union()

    def test_star_simplifications(self):
        assert star(EPSILON) == EPSILON
        assert star(plus(letter("a"))) == Star(letter("a"))
        assert star(star(letter("a"))) == Star(letter("a"))

    def test_plus_simplifications(self):
        assert plus(EPSILON) == EPSILON
        assert plus(plus(letter("a"))) == Plus(letter("a"))
        assert plus(star(letter("a"))) == Star(letter("a"))

    def test_word_and_any_of(self):
        assert word(()) == EPSILON
        assert word(("a", "b")).word() == ("a", "b")
        assert any_of(["b", "a"]).letters() == frozenset({"a", "b"})
        with pytest.raises(ValueError):
            any_of([])

    def test_universal(self):
        expr = universal(["a", "b"])
        assert isinstance(expr, Star)
        assert expr.letters() == frozenset({"a", "b"})

    def test_operators(self):
        expr = letter("a") + letter("b")
        assert isinstance(expr, Union)
        expr = letter("a") * letter("b")
        assert isinstance(expr, Concat)


class TestWordExtraction:
    def test_word_of_concat(self):
        assert concat(letter("a"), letter("b")).word() == ("a", "b")

    def test_word_of_union_same(self):
        assert union(letter("a"), letter("a")).word() == ("a",)

    def test_word_of_union_different_is_none(self):
        assert Union(letter("a"), letter("b")).word() is None

    def test_word_of_star_none(self):
        assert star(letter("a")).word() is None

    def test_finite_language(self):
        expr = Union(word(("a", "b")), letter("c"))
        assert expr.finite_language() == frozenset({("a", "b"), ("c",)})

    def test_finite_language_of_star_is_none(self):
        assert star(letter("a")).finite_language() is None
        assert concat(letter("a"), star(letter("b"))).finite_language() is None

    def test_max_word_length(self):
        assert word(("a", "b", "c")).max_word_length() == 3
        assert Union(letter("a"), word(("a", "b"))).max_word_length() == 2
        assert star(letter("a")).max_word_length() is None
        assert EPSILON.max_word_length() == 0

    def test_str_forms(self):
        assert str(letter("a")) == "a"
        assert "ε" in str(EPSILON)
        assert "*" in str(star(letter("a")))
        assert "+" in str(plus(letter("a")))


class TestParser:
    def test_single_letter(self):
        assert parse_regex("a") == letter("a")

    def test_multichar_label(self):
        assert parse_regex("knows") == letter("knows")

    def test_concat_with_dot_and_space(self):
        assert parse_regex("a.b") == parse_regex("a b") == concat(letter("a"), letter("b"))

    def test_union(self):
        assert parse_regex("a|b") == union(letter("a"), letter("b"))
        assert parse_regex("a U b") == union(letter("a"), letter("b"))

    def test_star_and_plus(self):
        assert parse_regex("a*") == star(letter("a"))
        assert parse_regex("a+") == plus(letter("a"))
        assert parse_regex("a*+") == star(letter("a"))

    def test_epsilon_tokens(self):
        assert parse_regex("eps") == EPSILON
        assert parse_regex("ε") == EPSILON
        assert parse_regex("_") == EPSILON

    def test_parentheses_and_precedence(self):
        expr = parse_regex("(a|b).c")
        assert expr == concat(union(letter("a"), letter("b")), letter("c"))
        expr2 = parse_regex("a|b.c")
        assert expr2 == union(letter("a"), concat(letter("b"), letter("c")))

    def test_reachability_expression(self):
        expr = parse_regex("(a|b)*")
        assert expr == star(union(letter("a"), letter("b")))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_regex("")
        with pytest.raises(ParseError):
            parse_regex("   ")
        with pytest.raises(ParseError):
            parse_regex("(a")
        with pytest.raises(ParseError):
            parse_regex("a)")
        with pytest.raises(ParseError):
            parse_regex("|a")
        with pytest.raises(ParseError):
            parse_regex("U")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_regex("a ) b")
        assert excinfo.value.position is not None
        assert "position" in str(excinfo.value)




class TestRegexProperties:
    @given(regex_strategy())
    @settings(max_examples=60)
    def test_letters_subset_of_alphabet(self, expr):
        assert expr.letters() <= frozenset({"a", "b", "c"})

    @given(regex_strategy())
    @settings(max_examples=60)
    def test_word_consistent_with_finite_language(self, expr):
        single = expr.word()
        language = expr.finite_language()
        if single is not None:
            assert language is not None
            assert single in language
