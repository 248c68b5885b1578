"""Tests for REM conditions and valuations."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagraph import NULL
from repro.datapaths import (
    And,
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
from repro.datapaths.conditions import EMPTY_VALUATION, evaluate_condition
from repro.datapaths.rem_parser import parse_condition
from repro.exceptions import UnboundVariableError


class TestValuation:
    def test_empty_valuation(self):
        assert not EMPTY_VALUATION.is_bound("x")
        assert EMPTY_VALUATION.get("x") is None

    def test_bind_is_persistent(self):
        v1 = EMPTY_VALUATION.bind("x", 1)
        assert v1.get("x") == 1
        assert not EMPTY_VALUATION.is_bound("x")

    def test_bind_multiple(self):
        v = EMPTY_VALUATION.bind(["x", "y"], 5)
        assert v.get("x") == 5
        assert v.get("y") == 5

    def test_rebind_overwrites(self):
        v = EMPTY_VALUATION.bind("x", 1).bind("x", 2)
        assert v.get("x") == 2

    def test_equality_and_hash(self):
        v1 = EMPTY_VALUATION.bind("x", 1)
        v2 = Valuation({"x": 1})
        assert v1 == v2
        assert hash(v1) == hash(v2)
        assert v1 != EMPTY_VALUATION
        assert v1 != "not a valuation"

    def test_cached_hash_survives_use_and_pickling(self):
        v = Valuation({"x": 1, "y": NULL})
        first = hash(v)
        assert hash(v) == first  # the second call serves the cached value
        assert v.bind("x", 2) != v  # a bind makes a new object with its own hash
        clone = pickle.loads(pickle.dumps(v))
        assert clone == v and clone is not v
        assert hash(clone) == hash(v)
        assert {v: "seen"}[clone] == "seen"
        # the cached hash is rebuilt, never shipped: only the mapping travels
        assert v.__reduce__() == (Valuation, ({"x": 1, "y": NULL},))

    @given(
        left=st.dictionaries(st.sampled_from("xyz"), st.sampled_from([1, 1.0, True, 2, "1", NULL])),
        right=st.dictionaries(st.sampled_from("xyz"), st.sampled_from([1, 1.0, True, 2, "1", NULL])),
    )
    @settings(max_examples=60, deadline=None)
    def test_eq_and_hash_follow_the_mapping(self, left, right):
        a, b = Valuation(left), Valuation(right)
        assert (a == b) == (left == right)
        if left == right:
            assert hash(a) == hash(b)
        assert a == a and hash(a) == hash(Valuation(dict(left)))

    def test_restrict(self):
        v = Valuation({"x": 1, "y": 2})
        assert v.restrict(["x"]) == Valuation({"x": 1})

    def test_repr(self):
        assert "x=1" in repr(Valuation({"x": 1}))


class TestConditionEvaluation:
    def test_equal(self):
        sigma = Valuation({"x": 7})
        assert evaluate_condition(Equal("x"), sigma, 7)
        assert not evaluate_condition(Equal("x"), sigma, 8)

    def test_not_equal(self):
        sigma = Valuation({"x": 7})
        assert evaluate_condition(NotEqual("x"), sigma, 8)
        assert not evaluate_condition(NotEqual("x"), sigma, 7)

    def test_true_condition(self):
        assert evaluate_condition(TrueCondition(), EMPTY_VALUATION, 1)

    def test_and_or(self):
        sigma = Valuation({"x": 1, "y": 2})
        assert evaluate_condition(And(Equal("x"), NotEqual("y")), sigma, 1)
        assert not evaluate_condition(And(Equal("x"), Equal("y")), sigma, 1)
        assert evaluate_condition(Or(Equal("x"), Equal("y")), sigma, 2)
        assert not evaluate_condition(Or(Equal("x"), Equal("y")), sigma, 3)

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            evaluate_condition(Equal("x"), EMPTY_VALUATION, 1)

    def test_unbound_variable_under_null_semantics_is_false(self):
        assert not evaluate_condition(Equal("x"), EMPTY_VALUATION, 1, null_semantics=True)
        assert not evaluate_condition(NotEqual("x"), EMPTY_VALUATION, 1, null_semantics=True)

    def test_null_semantics_sql_rule(self):
        """Section 7: comparisons involving the null are never true."""
        sigma = Valuation({"x": NULL})
        assert not evaluate_condition(Equal("x"), sigma, NULL, null_semantics=True)
        assert not evaluate_condition(NotEqual("x"), sigma, 5, null_semantics=True)
        sigma2 = Valuation({"x": 5})
        assert not evaluate_condition(Equal("x"), sigma2, NULL, null_semantics=True)
        assert not evaluate_condition(NotEqual("x"), sigma2, NULL, null_semantics=True)
        # and behaves normally on non-null values
        assert evaluate_condition(Equal("x"), sigma2, 5, null_semantics=True)

    def test_condition_operators(self):
        condition = equal("x") & not_equal("y")
        assert isinstance(condition, And)
        condition = equal("x") | equal("y")
        assert isinstance(condition, Or)


class TestConditionAlgebra:
    def test_variables(self):
        condition = And(Equal("x"), Or(NotEqual("y"), Equal("x")))
        assert condition.variables() == frozenset({"x", "y"})
        assert TrueCondition().variables() == frozenset()

    def test_negation_swaps_atoms(self):
        assert negate(Equal("x")) == NotEqual("x")
        assert negate(NotEqual("x")) == Equal("x")

    def test_negation_de_morgan(self):
        condition = And(Equal("x"), NotEqual("y"))
        assert negate(condition) == Or(NotEqual("x"), Equal("y"))

    def test_negation_of_true_raises(self):
        with pytest.raises(ValueError):
            negate(TrueCondition())

    def test_conj_and_disj_builders(self):
        assert conj() == TrueCondition()
        assert conj(Equal("x")) == Equal("x")
        assert isinstance(conj(Equal("x"), Equal("y")), And)
        assert isinstance(disj(Equal("x"), Equal("y")), Or)
        with pytest.raises(ValueError):
            disj()

    def test_str_forms(self):
        assert str(Equal("x")) == "x="
        assert "≠" in str(NotEqual("x"))
        assert "∧" in str(And(Equal("x"), Equal("y")))
        assert "∨" in str(Or(Equal("x"), Equal("y")))
        assert str(TrueCondition()) == "⊤"

    @given(st.integers(), st.integers())
    @settings(max_examples=50)
    def test_negation_is_semantic_complement(self, stored, current):
        """On non-null values, c and ¬c always disagree."""
        sigma = Valuation({"x": stored, "y": stored + 1})
        condition = Or(And(Equal("x"), NotEqual("y")), Equal("y"))
        direct = evaluate_condition(condition, sigma, current)
        negated = evaluate_condition(negate(condition), sigma, current)
        assert direct != negated


class TestConditionParser:
    def test_atoms(self):
        assert parse_condition("x=") == Equal("x")
        assert parse_condition("x!=") == NotEqual("x")
        assert parse_condition("x≠") == NotEqual("x")

    def test_conjunction_disjunction(self):
        assert parse_condition("x= & y!=") == And(Equal("x"), NotEqual("y"))
        assert parse_condition("x= && y=") == And(Equal("x"), Equal("y"))
        assert parse_condition("x= || y=") == Or(Equal("x"), Equal("y"))

    def test_parentheses(self):
        parsed = parse_condition("(x= || y=) & z!=")
        assert parsed == And(Or(Equal("x"), Equal("y")), NotEqual("z"))
