"""Tests for Thompson NFAs: word membership, also against brute force."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regular import parse_regex
from repro.regular.nfa import matches, to_nfa


class TestThompsonNFA:
    @pytest.mark.parametrize(
        "expression,word,expected",
        [
            ("a", ["a"], True),
            ("a", ["b"], False),
            ("a", [], False),
            ("eps", [], True),
            ("eps", ["a"], False),
            ("a.b", ["a", "b"], True),
            ("a.b", ["a"], False),
            ("a|b", ["a"], True),
            ("a|b", ["b"], True),
            ("a|b", ["c"], False),
            ("a*", [], True),
            ("a*", ["a", "a", "a"], True),
            ("a*", ["a", "b"], False),
            ("a+", [], False),
            ("a+", ["a"], True),
            ("(a|b)*", ["a", "b", "b", "a"], True),
            ("(a.b)+", ["a", "b", "a", "b"], True),
            ("(a.b)+", ["a", "b", "a"], False),
        ],
    )
    def test_membership(self, expression, word, expected):
        assert matches(expression, word) is expected

    def test_multichar_labels(self):
        assert matches("knows.worksAt", ["knows", "worksAt"])
        assert not matches("knows.worksAt", ["knows", "knows"])

    @pytest.mark.parametrize("expression,nodes", [("a", 1), ("a.b", 3), ("(a|b)*", 4), ("eps|a+", 4)])
    def test_thompson_shape(self, expression, nodes):
        # One initial and one accepting state, two states per syntax node.
        nfa = to_nfa(expression)
        assert len(nfa.initial) == len(nfa.accepting) == 1
        assert nfa.num_states == 2 * nodes

    def test_parsed_and_textual_expressions_agree(self):
        word = ("a", "b", "a")
        assert to_nfa(parse_regex("(a.b)*.a")).accepts(word) is to_nfa("(a.b)*.a").accepts(word) is True


class TestAgainstBruteForce:
    """Cross-validate the automata pipeline against direct word enumeration."""

    @given(st.lists(st.sampled_from(["a", "b"]), max_size=5))
    @settings(max_examples=60)
    def test_star_concat_language(self, word):
        expr = "a*.b.a*"
        expected = word.count("b") == 1
        assert matches(expr, word) is expected

    @given(st.lists(st.sampled_from(["a", "b"]), max_size=6))
    @settings(max_examples=60)
    def test_even_length_blocks(self, word):
        expr = "(a.a|b.b)*"
        def brute(w):
            if not w:
                return True
            if len(w) >= 2 and w[0] == w[1]:
                return brute(w[2:])
            return False
        assert matches(expr, word) is brute(word)
