"""Tests for regular expressions with equality (REE) and paths with tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import NULL, DataPath
from repro.datapaths import (
    equality_subexpressions,
    is_path_with_tests,
    parse_ree,
    path_length,
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
from repro.exceptions import ParseError


def dp(*items):
    return DataPath.from_sequence(list(items))


class TestReeConstructors:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            ree_letter("")

    def test_union_needs_parts(self):
        with pytest.raises(ValueError):
            ree_union()
        with pytest.raises(ValueError):
            ree_any_of([])

    def test_word_and_concat(self):
        expr = ree_word(["a", "b"])
        assert ree_matches(expr, dp(1, "a", 2, "b", 3))
        assert ree_concat() == ree_epsilon()

    def test_labels(self):
        expr = ree_equal(ree_concat(ree_letter("a"), ree_letter("b")))
        assert expr.labels() == frozenset({"a", "b"})

    def test_inequality_flags(self):
        eq = ree_equal(ree_word(["a", "b"]))
        neq = ree_not_equal(ree_word(["a"]))
        assert not eq.uses_inequality()
        assert neq.uses_inequality()
        assert ree_concat(neq, neq).inequality_count() == 2
        assert eq.inequality_count() == 0

    def test_operators(self):
        expr = ree_letter("a") + ree_letter("b")
        assert ree_matches(expr, dp(1, "b", 2))
        expr2 = ree_letter("a") * ree_letter("b")
        assert ree_matches(expr2, dp(1, "a", 2, "b", 3))

    def test_str_forms(self):
        assert "=" in str(ree_equal(ree_letter("a")))
        assert "≠" in str(ree_not_equal(ree_letter("a")))
        assert "ε" in str(ree_epsilon())


class TestReeSemantics:
    """The language definition of Section 3."""

    def test_epsilon(self):
        assert ree_matches(ree_epsilon(), dp(5))
        assert not ree_matches(ree_epsilon(), dp(5, "a", 6))

    def test_letter(self):
        assert ree_matches(ree_letter("a"), dp(1, "a", 2))
        assert not ree_matches(ree_letter("a"), dp(1, "b", 2))

    def test_concat_union_plus(self):
        expr = ree_concat(ree_letter("a"), ree_union(ree_letter("b"), ree_letter("c")))
        assert ree_matches(expr, dp(1, "a", 2, "c", 3))
        plus = ree_plus(ree_letter("a"))
        assert ree_matches(plus, dp(1, "a", 2, "a", 3))
        assert not ree_matches(plus, dp(1))

    def test_star(self):
        expr = ree_star(ree_letter("a"))
        assert ree_matches(expr, dp(1))
        assert ree_matches(expr, dp(1, "a", 2))

    def test_equal_subscript(self):
        expr = ree_equal(ree_word(["a", "b"]))
        assert ree_matches(expr, dp(1, "a", 2, "b", 1))
        assert not ree_matches(expr, dp(1, "a", 2, "b", 3))

    def test_not_equal_subscript(self):
        expr = ree_not_equal(ree_word(["a", "b"]))
        assert ree_matches(expr, dp(1, "a", 2, "b", 3))
        assert not ree_matches(expr, dp(1, "a", 2, "b", 1))

    def test_epsilon_equal_always_holds(self):
        # (ε)= has first = last trivially.
        assert ree_matches(ree_equal(ree_epsilon()), dp(4))
        assert not ree_matches(ree_not_equal(ree_epsilon()), dp(4))

    def test_paper_example_value_occurs_twice(self):
        """Σ* · (Σ+)= · Σ* — some data value occurs more than once."""
        sigma = ["a", "b"]
        expr = ree_concat(
            ree_universal(sigma), ree_equal(ree_plus(ree_any_of(sigma))), ree_universal(sigma)
        )
        assert ree_matches(expr, dp(1, "a", 2, "b", 1, "a", 3))
        assert ree_matches(expr, dp(9, "b", 2, "a", 2))
        assert not ree_matches(expr, dp(1, "a", 2, "b", 3))

    def test_paper_example_path_with_tests(self):
        """(a(bc)=)≠ matches d1 a d2 b d3 c d2 with d1 ≠ d2."""
        expr = ree_not_equal(
            ree_concat(ree_letter("a"), ree_equal(ree_concat(ree_letter("b"), ree_letter("c"))))
        )
        assert ree_matches(expr, dp(1, "a", 2, "b", 3, "c", 2))
        assert not ree_matches(expr, dp(2, "a", 2, "b", 3, "c", 2))  # d1 = d2
        assert not ree_matches(expr, dp(1, "a", 2, "b", 3, "c", 4))  # inner test fails

    def test_nested_subscripts(self):
        # ((a)= ) : a single a-step whose endpoints coincide.
        expr = ree_equal(ree_letter("a"))
        assert ree_matches(expr, dp(1, "a", 1))
        assert not ree_matches(expr, dp(1, "a", 2))

    def test_plus_of_equal_blocks(self):
        # ((a.a)=)+ : consecutive 2-blocks each returning to their first value.
        expr = ree_plus(ree_equal(ree_word(["a", "a"])))
        assert ree_matches(expr, dp(1, "a", 2, "a", 1, "a", 3, "a", 1))
        assert not ree_matches(expr, dp(1, "a", 2, "a", 3))

    def test_null_semantics(self):
        expr = ree_equal(ree_letter("a"))
        assert ree_matches(expr, dp(NULL, "a", NULL))  # plain equality of the null object
        assert not ree_matches(expr, dp(NULL, "a", NULL), null_semantics=True)
        neq = ree_not_equal(ree_letter("a"))
        assert not ree_matches(neq, dp(NULL, "a", 3), null_semantics=True)
        assert ree_matches(neq, dp(2, "a", 3), null_semantics=True)


class TestPathsWithTests:
    def test_recognition(self):
        assert is_path_with_tests(parse_ree("a.b.c"))
        assert is_path_with_tests(parse_ree("(a.(b.c)=)!="))
        assert not is_path_with_tests(parse_ree("a|b"))
        assert not is_path_with_tests(parse_ree("a+"))
        assert not is_path_with_tests(parse_ree("eps"))
        assert not is_path_with_tests(parse_ree("(a|b)="))

    def test_path_length(self):
        assert path_length(parse_ree("a.b.c")) == 3
        assert path_length(parse_ree("(a.(b.c)=)!=")) == 3
        assert path_length(parse_ree("a*")) is None

    def test_test_counting(self):
        expr = parse_ree("((a)=.(b)!=)!=")
        assert expr.inequality_count() == 2
        assert equality_subexpressions(expr) == 1
        assert equality_subexpressions(parse_ree("a|b")) == 0
        assert equality_subexpressions(parse_ree("(a+)=")) == 1


class TestReeParser:
    def test_basic(self):
        assert ree_matches(parse_ree("a.b"), dp(1, "a", 2, "b", 3))
        assert ree_matches(parse_ree("a|b"), dp(1, "b", 2))
        assert ree_matches(parse_ree("a*"), dp(1))
        assert ree_matches(parse_ree("eps"), dp(1))
        assert ree_matches(parse_ree("ε"), dp(1))

    def test_subscripts(self):
        assert ree_matches(parse_ree("(a.b)="), dp(1, "a", 2, "b", 1))
        assert ree_matches(parse_ree("(a.b)!="), dp(1, "a", 2, "b", 3))
        assert ree_matches(parse_ree("(a.b)≠"), dp(1, "a", 2, "b", 3))

    def test_subscript_binds_to_preceding_factor(self):
        expr = parse_ree("a.(b)=")
        assert ree_matches(expr, dp(1, "a", 2, "b", 2))
        assert not ree_matches(expr, dp(1, "a", 2, "b", 3))

    def test_repeated_value_query(self):
        expr = parse_ree("(a|b)* . ((a|b)+)= . (a|b)*")
        assert ree_matches(expr, dp(1, "a", 2, "b", 2))
        assert not ree_matches(expr, dp(1, "a", 2, "b", 3))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ree("")
        with pytest.raises(ParseError):
            parse_ree("(a")
        with pytest.raises(ParseError):
            parse_ree("a!")
        with pytest.raises(ParseError):
            parse_ree("a)")
        with pytest.raises(ParseError):
            parse_ree("|a")


class TestReeAgainstBruteForce:
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=7))
    @settings(max_examples=80)
    def test_repeated_value(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        expr = parse_ree("a* . (a+)= . a*")
        expected = len(set(values)) < len(values)
        assert ree_matches(expr, path) is expected

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=7))
    @settings(max_examples=80)
    def test_endpoints_equal(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        expr = parse_ree("(a+)=")
        assert ree_matches(expr, path) is (values[0] == values[-1])

    @given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_pure_label_structure_ignores_data(self, labels):
        values = tuple(range(len(labels) + 1))
        path = DataPath(values, tuple(labels))
        expr = parse_ree("a*.b.a*")
        assert ree_matches(expr, path) is (labels.count("b") == 1)
