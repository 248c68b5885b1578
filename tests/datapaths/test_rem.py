"""Tests for regular expressions with memory (REM) and their semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import NULL, DataPath
from repro.datapaths import (
    Equal,
    NotEqual,
    Valuation,
    parse_rem,
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
from repro.datapaths.rem import derive
from repro.exceptions import ParseError


def dp(*items):
    """Shorthand for building data paths from alternating value/label sequences."""
    return DataPath.from_sequence(list(items))


class TestRemConstructors:
    def test_letter_validation(self):
        with pytest.raises(ValueError):
            rem_letter("")

    def test_bind_needs_variables(self):
        with pytest.raises(ValueError):
            rem_bind([], rem_epsilon())

    def test_union_needs_parts(self):
        with pytest.raises(ValueError):
            rem_union()

    def test_concat_of_nothing_is_epsilon(self):
        assert rem_concat() == rem_epsilon()

    def test_operators(self):
        expr = rem_letter("a") + rem_letter("b")
        assert rem_matches(expr, dp(1, "a", 2))
        expr2 = rem_letter("a") * rem_letter("b")
        assert rem_matches(expr2, dp(1, "a", 2, "b", 3))

    def test_variables_and_labels(self):
        expr = rem_bind("x", rem_test(rem_plus(rem_letter("a")), Equal("x")))
        assert expr.variables() == frozenset({"x"})
        assert expr.labels() == frozenset({"a"})

    def test_uses_inequality(self):
        eq_only = rem_bind("x", rem_test(rem_letter("a"), Equal("x")))
        assert not eq_only.uses_inequality()
        with_neq = rem_bind("x", rem_test(rem_letter("a"), NotEqual("x")))
        assert with_neq.uses_inequality()

    def test_str_forms(self):
        expr = rem_bind("x", rem_test(rem_plus(rem_letter("a")), Equal("x")))
        text = str(expr)
        assert "↓x" in text
        assert "[x=]" in text


class TestRemSemantics:
    """The derivation relation (e, w, σ) ⊢ σ' from Section 3."""

    def test_epsilon_matches_single_value(self):
        assert rem_matches(rem_epsilon(), dp(5))
        assert not rem_matches(rem_epsilon(), dp(5, "a", 6))

    def test_letter(self):
        assert rem_matches(rem_letter("a"), dp(1, "a", 2))
        assert not rem_matches(rem_letter("a"), dp(1, "b", 2))
        assert not rem_matches(rem_letter("a"), dp(1))

    def test_concat(self):
        expr = rem_concat(rem_letter("a"), rem_letter("b"))
        assert rem_matches(expr, dp(1, "a", 2, "b", 3))
        assert not rem_matches(expr, dp(1, "a", 2, "a", 3))

    def test_union(self):
        expr = rem_union(rem_letter("a"), rem_letter("b"))
        assert rem_matches(expr, dp(1, "a", 2))
        assert rem_matches(expr, dp(1, "b", 2))
        assert not rem_matches(expr, dp(1, "c", 2))

    def test_plus(self):
        expr = rem_plus(rem_letter("a"))
        assert rem_matches(expr, dp(1, "a", 2))
        assert rem_matches(expr, dp(1, "a", 2, "a", 3))
        assert not rem_matches(expr, dp(1))

    def test_star(self):
        expr = rem_star(rem_letter("a"))
        assert rem_matches(expr, dp(1))
        assert rem_matches(expr, dp(1, "a", 2, "a", 3))

    def test_bind_and_test_equal(self):
        # ↓x.(a+[x=]) : data paths over a whose last value equals the first.
        expr = rem_bind("x", rem_test(rem_plus(rem_letter("a")), Equal("x")))
        assert rem_matches(expr, dp(1, "a", 2, "a", 1))
        assert not rem_matches(expr, dp(1, "a", 2, "a", 3))

    def test_paper_example_all_values_differ_from_first(self):
        """The paper's example ↓x.(a[x≠])+ ."""
        expr = rem_bind("x", rem_plus(rem_test(rem_letter("a"), NotEqual("x"))))
        assert rem_matches(expr, dp(1, "a", 2, "a", 3, "a", 4))
        assert not rem_matches(expr, dp(1, "a", 2, "a", 1))
        assert not rem_matches(expr, dp(1, "a", 1))

    def test_paper_example_some_value_repeats(self):
        """The paper's example Σ* · ↓x.Σ+[x=] · Σ* (some data value occurs twice)."""
        sigma = rem_union(rem_letter("a"), rem_letter("b"))
        expr = rem_concat(
            rem_star(sigma),
            rem_bind("x", rem_test(rem_plus(sigma), Equal("x"))),
            rem_star(sigma),
        )
        assert rem_matches(expr, dp(1, "a", 2, "b", 1, "a", 3))
        assert rem_matches(expr, dp(7, "a", 2, "b", 2))
        assert not rem_matches(expr, dp(1, "a", 2, "b", 3, "a", 4))

    def test_binding_multiple_variables(self):
        expr = rem_bind(["x", "y"], rem_test(rem_letter("a"), Equal("x") & Equal("y")))
        assert rem_matches(expr, dp(1, "a", 1))
        assert not rem_matches(expr, dp(1, "a", 2))

    def test_initial_valuation_is_respected(self):
        expr = rem_test(rem_letter("a"), Equal("x"))
        assert rem_matches(expr, dp(1, "a", 5), Valuation({"x": 5}))
        assert not rem_matches(expr, dp(1, "a", 5), Valuation({"x": 6}))

    def test_derive_returns_final_valuations(self):
        expr = rem_bind("x", rem_letter("a"))
        results = derive(expr, dp(9, "a", 10))
        assert results == frozenset({Valuation({"x": 9})})

    def test_derive_union_collects_all_valuations(self):
        expr = rem_union(rem_bind("x", rem_letter("a")), rem_bind("y", rem_letter("a")))
        results = derive(expr, dp(3, "a", 4))
        assert Valuation({"x": 3}) in results
        assert Valuation({"y": 3}) in results

    def test_plus_threads_valuations(self):
        # ↓x.(a[x=])+ : every value equals the first one.
        expr = rem_bind("x", rem_plus(rem_test(rem_letter("a"), Equal("x"))))
        assert rem_matches(expr, dp(5, "a", 5, "a", 5))
        assert not rem_matches(expr, dp(5, "a", 5, "a", 6))

    def test_rebinding_inside_plus(self):
        # (↓x.a[x≠])+ checks consecutive values differ (x is re-bound each round).
        expr = rem_plus(rem_bind("x", rem_test(rem_letter("a"), NotEqual("x"))))
        assert rem_matches(expr, dp(1, "a", 2, "a", 1, "a", 3))
        assert not rem_matches(expr, dp(1, "a", 2, "a", 2))

    def test_concat_shares_value(self):
        # ↓x.(a) · (b[x=]) — x bound to the first value, checked after b:
        expr = rem_concat(
            rem_bind("x", rem_letter("a")),
            rem_test(rem_letter("b"), Equal("x")),
        )
        assert rem_matches(expr, dp(1, "a", 2, "b", 1))
        assert not rem_matches(expr, dp(1, "a", 2, "b", 2))

    def test_null_semantics_disables_comparisons(self):
        expr = rem_bind("x", rem_test(rem_plus(rem_letter("a")), Equal("x")))
        path_with_null = dp(NULL, "a", NULL)
        # Standard semantics: NULL == NULL on the Python level, so it matches.
        assert rem_matches(expr, path_with_null)
        # SQL-null semantics (Section 7): comparisons with null are never true.
        assert not rem_matches(expr, path_with_null, null_semantics=True)

    def test_null_semantics_inequality(self):
        expr = rem_bind("x", rem_test(rem_plus(rem_letter("a")), NotEqual("x")))
        assert not rem_matches(expr, dp(NULL, "a", 3), null_semantics=True)
        assert not rem_matches(expr, dp(1, "a", NULL), null_semantics=True)
        assert rem_matches(expr, dp(1, "a", 3), null_semantics=True)


class TestRemParser:
    def test_letter_and_concat(self):
        assert rem_matches(parse_rem("a.b"), dp(1, "a", 2, "b", 3))

    def test_union_and_star(self):
        expr = parse_rem("(a|b)*")
        assert rem_matches(expr, dp(1))
        assert rem_matches(expr, dp(1, "a", 2, "b", 3))

    def test_bind_ascii_and_unicode(self):
        for marker in ("!", "↓"):
            expr = parse_rem(f"{marker}x.(a[x!=])+")
            assert rem_matches(expr, dp(1, "a", 2, "a", 3))
            assert not rem_matches(expr, dp(1, "a", 1))

    def test_bind_multiple_variables(self):
        expr = parse_rem("!x,y. a [x= & y=]")
        assert rem_matches(expr, dp(4, "a", 4))
        assert not rem_matches(expr, dp(4, "a", 5))

    def test_condition_with_disjunction(self):
        expr = parse_rem("!x. a [x= || x!=]")
        assert rem_matches(expr, dp(1, "a", 2))

    def test_epsilon(self):
        assert rem_matches(parse_rem("eps"), dp(1))
        assert rem_matches(parse_rem("ε"), dp(1))

    def test_bind_scopes_over_rest_of_sequence(self):
        # !x. a . b[x=]  — the test refers to the binding at the start.
        expr = parse_rem("!x. a . b[x=]")
        assert rem_matches(expr, dp(1, "a", 2, "b", 1))
        assert not rem_matches(expr, dp(1, "a", 2, "b", 2))

    def test_union_splits_bind_scope(self):
        # In "a | !x.b[x=]" the binding only covers the second branch.
        expr = parse_rem("a | !x.b[x=]")
        assert rem_matches(expr, dp(1, "a", 2))
        assert rem_matches(expr, dp(3, "b", 3))
        assert not rem_matches(expr, dp(3, "b", 4))

    def test_parse_the_paper_repetition_example(self):
        text = "(a|b)* . !x.(a|b)+[x=] . (a|b)*"
        expr = parse_rem(text)
        assert rem_matches(expr, dp(1, "a", 2, "b", 1))
        assert not rem_matches(expr, dp(1, "a", 2, "b", 3))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_rem("")
        with pytest.raises(ParseError):
            parse_rem("(a")
        with pytest.raises(ParseError):
            parse_rem("!x a")  # missing dot
        with pytest.raises(ParseError):
            parse_rem("a[b]")  # not a condition
        with pytest.raises(ParseError):
            parse_rem("a[x= &&]")
        with pytest.raises(ParseError):
            parse_rem("a)")


class TestRemAgainstBruteForce:
    """Cross-check the REM evaluator against simple hand-rolled predicates."""

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_all_differ_from_first(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        expr = parse_rem("!x.(a[x!=])+") if len(values) > 1 else None
        if expr is None:
            return
        expected = all(value != values[0] for value in values[1:])
        assert rem_matches(expr, path) is expected

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_some_value_repeats(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        expr = parse_rem("a* . !x.a+[x=] . a*")
        expected = len(set(values)) < len(values)
        assert rem_matches(expr, path) is expected

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=6))
    @settings(max_examples=80)
    def test_first_equals_last(self, values):
        labels = tuple("a" for _ in range(len(values) - 1))
        path = DataPath(tuple(values), labels)
        expr = parse_rem("!x.(a+[x=])")
        assert rem_matches(expr, path) is (values[0] == values[-1])
