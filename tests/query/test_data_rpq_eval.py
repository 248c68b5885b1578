"""Tests for data RPQ evaluation on data graphs."""

from __future__ import annotations

import pytest
from conftest import enumerate_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession
from repro.datagraph import NULL, DataGraph, GraphBuilder, generators
from repro.datapaths import parse_ree, parse_rem, ree_matches, rem_matches
from repro.engine import default_engine
from repro.exceptions import EvaluationError
from repro.planner.router import route_point
from repro.query import (
    data_path_query,
    equality_rpq,
    evaluate_data_rpq_naive,
    memory_rpq,
)


def _ids(pairs):
    return {(source.id, target.id) for source, target in pairs}


@pytest.fixture
def value_graph() -> DataGraph:
    """A small graph with repeated data values for equality tests.

    n0(1) -a-> n1(2) -a-> n2(1) -b-> n3(3) -a-> n4(2)
    plus a shortcut n1 -b-> n4 and a loop n2 -a-> n0.
    """
    return (
        GraphBuilder(name="values")
        .node("n0", 1)
        .node("n1", 2)
        .node("n2", 1)
        .node("n3", 3)
        .node("n4", 2)
        .edge("n0", "a", "n1")
        .edge("n1", "a", "n2")
        .edge("n2", "b", "n3")
        .edge("n3", "a", "n4")
        .edge("n1", "b", "n4")
        .edge("n2", "a", "n0")
        .build()
    )


class TestDataRPQWrappers:
    def test_equality_rpq(self):
        query = equality_rpq("(a.b)=")
        assert query.is_equality_rpq()
        assert not query.is_memory_rpq()
        assert query.is_data_path_query()
        assert query.fixed_length() == 2
        assert query.arity == 2
        assert str(query)

    def test_memory_rpq(self):
        query = memory_rpq("!x.(a[x!=])+")
        assert query.is_memory_rpq()
        assert query.uses_inequality()
        assert query.fixed_length() is None
        assert query.labels() == frozenset({"a"})

    def test_data_path_query_validation(self):
        assert data_path_query("(a.b)!=").is_data_path_query()
        with pytest.raises(ValueError):
            data_path_query("a|b")

    def test_unknown_engine_rejected(self, value_graph):
        with pytest.raises(EvaluationError):
            default_engine().evaluate_data_rpq(value_graph, equality_rpq("a"), engine="bogus")

    def test_algebraic_engine_rejects_only_cross_scope_rem(self, value_graph):
        engine = default_engine()
        scoped = memory_rpq("!x.(a[x!=])+")
        assert engine.evaluate_data_rpq(
            value_graph, scoped, engine="algebraic"
        ) == evaluate_data_rpq_naive(value_graph, scoped)
        with pytest.raises(EvaluationError, match=r"reads register 'x' outside every ↓"):
            engine.evaluate_data_rpq(value_graph, memory_rpq("(!x.a).b[x=]"), engine="algebraic")


class TestEqualityRPQEvaluation:
    def test_plain_letter(self, value_graph):
        answers = _ids(GraphSession(value_graph).run(equality_rpq("a")).pairs())
        assert ("n0", "n1") in answers
        assert ("n2", "n3") not in answers

    def test_equal_endpoints(self, value_graph):
        # (a.a)= : 2-step a-paths returning to the same data value.
        answers = _ids(GraphSession(value_graph).run(equality_rpq("(a.a)=")).pairs())
        assert ("n0", "n2") in answers  # values 1 ... 1
        assert ("n2", "n1") not in answers

    def test_not_equal_endpoints(self, value_graph):
        answers = _ids(GraphSession(value_graph).run(equality_rpq("(a.b)!=")).pairs())
        assert ("n0", "n4") in answers  # 1 vs 2
        assert ("n1", "n3") in answers  # 2 vs 3

    def test_repeated_value_reachability(self, value_graph):
        # Σ* (Σ+)= Σ* : pairs connected by a path on which some value repeats.
        query = equality_rpq("(a|b)* . ((a|b)+)= . (a|b)*")
        answers = _ids(GraphSession(value_graph).run(query).pairs())
        assert ("n0", "n3") in answers  # via n0(1) a n1 a n2(1) b n3
        assert ("n3", "n4") not in answers

    def test_star_includes_identity(self, value_graph):
        answers = _ids(GraphSession(value_graph).run(equality_rpq("a*")).pairs())
        for node in value_graph.node_ids:
            assert (node, node) in answers

    def test_null_semantics(self):
        g = (
            GraphBuilder()
            .node("x", NULL)
            .node("y", NULL)
            .node("z", 5)
            .edge("x", "a", "y")
            .edge("y", "a", "z")
            .build()
        )
        query = equality_rpq("(a)=")
        plain = _ids(GraphSession(g).run(query).pairs())
        assert ("x", "y") in plain  # NULL == NULL at the Python level
        with_nulls = _ids(GraphSession(g).run(query, null_semantics=True).pairs())
        assert with_nulls == set()
        neq = equality_rpq("(a)!=")
        assert ("y", "z") not in _ids(GraphSession(g).run(neq, null_semantics=True).pairs())


class TestMemoryRPQEvaluation:
    def test_all_values_differ_from_first(self, value_graph):
        query = memory_rpq("!x.(a[x!=])+")
        answers = _ids(GraphSession(value_graph).run(query).pairs())
        assert ("n0", "n1") in answers  # 1 -> 2
        assert ("n0", "n2") not in answers  # 1 a 2 a 1 repeats the first value

    def test_memory_rpq_with_equality(self, value_graph):
        query = memory_rpq("!x.(a.a)[x=]")
        answers = _ids(GraphSession(value_graph).run(query).pairs())
        # n0(1) -a-> n1(2) -a-> n2(1): first and last values coincide.
        assert ("n0", "n2") in answers
        # n1(2) -a-> n2(1) -a-> n0(1): values 2 vs 1 differ, so excluded.
        assert ("n1", "n0") not in answers

    def test_engines_agree_on_ree_queries(self, value_graph):
        for text in ("a", "(a.a)=", "(a.b)!=", "(a|b)* . ((a|b)+)= . (a|b)*", "a*"):
            query = equality_rpq(text)
            algebraic = _ids(default_engine().evaluate_data_rpq(value_graph, query, engine="algebraic"))
            automaton = _ids(default_engine().evaluate_data_rpq(value_graph, query, engine="automaton"))
            assert algebraic == automaton, text

    def test_register_product_on_the_dict_index_agrees_with_naive(self, value_graph):
        query = memory_rpq(parse_rem("!x.(a[x!=])+"))
        dict_route = route_point(value_graph, ExecutionPolicy(backend="dict"))
        assert default_engine().evaluate_data_rpq(
            value_graph, query, engine="automaton", route=dict_route
        ) == evaluate_data_rpq_naive(value_graph, query)

    def test_session_holds(self, value_graph):
        session = GraphSession(value_graph)
        assert session.holds(equality_rpq("(a.a)="), "n0", "n2")
        assert not session.holds(equality_rpq("(a.a)!="), "n0", "n2")


class TestSeededScan:
    """One pair answered by one scan seeded at its source and restricted
    to its target (``EvaluationEngine.evaluate_atom_ids``)."""

    QUERIES = [
        equality_rpq("(a.a)="),
        equality_rpq("((a|b)+)!="),
        memory_rpq("!x.(a[x!=])+"),
        memory_rpq("!x.((a|b)+[x=])"),
    ]

    @staticmethod
    def _holds(graph, query, source, target, null_semantics=False):
        return bool(
            default_engine().evaluate_atom_ids(
                graph, query, sources=(source,), targets={target}, null_semantics=null_semantics
            )
        )

    @pytest.mark.parametrize("query", QUERIES, ids=str)
    @pytest.mark.parametrize("null_semantics", [False, True])
    @given(seed=st.integers(min_value=1, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_naive_membership(self, query, null_semantics, seed):
        graph = generators.random_graph(6, 10, labels=("a", "b"), rng=seed, domain_size=3)
        graph.add_node("void", NULL)
        graph.add_edge("n0", "a", "void")
        graph.add_edge("void", "b", "n1")
        expected = _ids(evaluate_data_rpq_naive(graph, query, null_semantics))
        for source in graph.node_ids:
            for target in graph.node_ids:
                assert self._holds(graph, query, source, target, null_semantics) == (
                    (source, target) in expected
                ), (source, target)

    def test_never_evaluates_the_full_relation(self, value_graph, monkeypatch):
        engine = default_engine()
        monkeypatch.setattr(
            engine, "evaluate_data_rpq", lambda *a, **k: pytest.fail("full relation evaluated")
        )
        assert self._holds(value_graph, memory_rpq("!x.(a.a)[x=]"), "n0", "n2")


class TestAgainstPathEnumeration:
    """Both engines must agree with brute-force path enumeration on small graphs."""

    QUERIES_REE = ["a", "(a.a)=", "(a.b)!=", "(a|b)* . ((a|b)+)= . (a|b)*"]
    QUERIES_REM = ["!x.(a[x!=])+", "!x.((a|b)+[x=])"]

    @pytest.mark.parametrize("text", QUERIES_REE)
    @given(seed=st.integers(min_value=1, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_ree_queries(self, text, seed):
        graph = generators.random_graph(5, 8, labels=("a", "b"), rng=seed, domain_size=3)
        expression = parse_ree(text)
        expected = set()
        for source in graph.node_ids:
            for path in enumerate_paths(graph, source, max_length=4):
                if ree_matches(expression, path.data_path()):
                    expected.add((source, path.target.id))
        answers = _ids(GraphSession(graph).run(equality_rpq(text)).pairs())
        # enumeration is truncated at length 4, so expected ⊆ answers;
        # and any answer over a short path must be enumerated: check both ways
        assert expected <= answers
        short_answers = {
            (source, target)
            for source, target in answers
            if any(
                ree_matches(expression, path.data_path())
                for path in enumerate_paths(graph, source, max_length=4, target=target)
            )
        }
        assert short_answers <= answers

    @pytest.mark.parametrize("text", QUERIES_REM)
    @given(seed=st.integers(min_value=1, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_rem_queries(self, text, seed):
        graph = generators.random_graph(5, 7, labels=("a", "b"), rng=seed, domain_size=3)
        expression = parse_rem(text)
        expected = set()
        for source in graph.node_ids:
            for path in enumerate_paths(graph, source, max_length=4):
                if rem_matches(expression, path.data_path()):
                    expected.add((source, path.target.id))
        answers = _ids(GraphSession(graph).run(memory_rpq(text)).pairs())
        assert expected <= answers
