"""Tests for word-RPQ recognition and finite language utilities."""

from __future__ import annotations


from repro.regular import (
    as_finite_language,
    as_word,
    is_reachability,
    parse_regex,
)


class TestWordRecognition:
    def test_single_letter_is_word(self):
        assert as_word("a") == ("a",)

    def test_concatenation_is_word(self):
        assert as_word("a.b.c") == ("a", "b", "c")

    def test_epsilon_is_empty_word(self):
        assert as_word("eps") == ()

    def test_star_is_not_word(self):
        assert as_word("a*") is None

    def test_union_of_distinct_words_not_word(self):
        assert as_word("a|b") is None


class TestFiniteLanguages:
    def test_finite_union(self):
        language = as_finite_language("a.b|c")
        assert language == frozenset({("a", "b"), ("c",)})

    def test_infinite_language(self):
        assert as_finite_language("a+.b") is None
        assert as_finite_language("a*") is None


class TestReachabilityRecognition:
    def test_sigma_star_detected(self):
        assert is_reachability("(a|b)*", alphabet=["a", "b"])
        assert is_reachability("(a|b|c)*")

    def test_single_letter_star(self):
        assert is_reachability("a*", alphabet=["a"])
        assert not is_reachability("a*", alphabet=["a", "b"])

    def test_non_star_rejected(self):
        assert not is_reachability("a+", alphabet=["a"])
        assert not is_reachability("a", alphabet=["a"])
        assert not is_reachability("a.b", alphabet=["a", "b"])

    def test_star_of_words_rejected(self):
        assert not is_reachability("(a.b)*", alphabet=["a", "b"])

    def test_accepts_ast_input(self):
        assert is_reachability(parse_regex("(a|b)*"), alphabet=["a", "b"])
