"""Tests for conjunctive RPQs and homomorphism-preservation checks."""

from __future__ import annotations

import pytest

from repro.api import GraphSession
from repro.datagraph import NULL, GraphBuilder
from repro.exceptions import EvaluationError
from repro.query import (
    Atom,
    ConjunctiveRPQ,
    equality_rpq,
    is_preserved_on,
    rpq,
    violates_homomorphism_preservation,
)


class TestConjunctiveRPQ:
    def test_validation(self):
        with pytest.raises(EvaluationError):
            ConjunctiveRPQ(head=("x",), atoms=())
        with pytest.raises(EvaluationError):
            ConjunctiveRPQ(head=("z",), atoms=(Atom("x", rpq("a"), "y"),))

    def test_variables_and_arity(self):
        query = ConjunctiveRPQ(head=("x", "y"), atoms=(Atom("x", rpq("a"), "y"),))
        assert query.variables() == frozenset({"x", "y"})
        assert query.arity == 2
        assert not query.is_boolean()

    def test_self_loop_atom_only_matches_loops(self, toy_graph):
        """Regression: ``Atom(x, e, x)`` used to admit pairs with
        ``source != target`` (the target assignment silently overwrote
        the source)."""
        from repro.query import evaluate_crpq_naive

        toy_graph.add_edge("carol", "knows", "carol")
        query = ConjunctiveRPQ(head=("x",), atoms=(Atom("x", rpq("knows"), "x"),))
        naive = {row[0].id for row in evaluate_crpq_naive(toy_graph, query)}
        assert naive == {"carol"}
        planned = {row[0].id for row in GraphSession(toy_graph).run(query).rows()}
        assert planned == {"carol"}

    def test_self_loop_atom_with_bound_variable(self, toy_graph):
        from repro.query import evaluate_crpq_naive

        toy_graph.add_edge("bob", "knows", "bob")
        query = ConjunctiveRPQ(
            head=("x", "y"),
            atoms=(
                Atom("x", rpq("knows"), "y"),
                Atom("y", rpq("knows"), "y"),
            ),
        )
        expected = {("alice", "bob"), ("bob", "bob")}
        assert {(a.id, b.id) for a, b in evaluate_crpq_naive(toy_graph, query)} == expected
        assert {(a.id, b.id) for a, b in GraphSession(toy_graph).run(query).rows()} == expected

    def test_two_atom_join(self, toy_graph):
        # people who know someone working at the same institution as alice
        query = ConjunctiveRPQ(
            head=("x", "z"),
            atoms=(
                Atom("x", rpq("knows"), "y"),
                Atom("y", rpq("worksAt"), "z"),
            ),
        )
        answers = {(a.id, b.id) for a, b in GraphSession(toy_graph).run(query).rows()}
        assert ("alice", "uni") in answers
        assert ("dave", "uni") in answers
        assert ("bob", "uni") not in answers

    def test_cycle_pattern(self, toy_graph):
        query = ConjunctiveRPQ(
            head=("x",),
            atoms=(
                Atom("x", rpq("knows"), "y"),
                Atom("y", rpq("knows.knows.knows"), "x"),
            ),
        )
        answers = {tpl[0].id for tpl in GraphSession(toy_graph).run(query).rows()}
        assert answers == {"alice", "bob", "carol", "dave"}

    def test_boolean_query(self, toy_graph):
        yes = ConjunctiveRPQ(head=(), atoms=(Atom("x", rpq("worksAt"), "y"),))
        assert GraphSession(toy_graph).run(yes).rows() == frozenset({()})
        no = ConjunctiveRPQ(head=(), atoms=(Atom("x", rpq("worksAt.worksAt"), "y"),))
        assert GraphSession(toy_graph).run(no).rows() == frozenset()

    def test_data_rpq_atoms(self):
        g = (
            GraphBuilder()
            .node("p1", "london")
            .node("p2", "london")
            .node("p3", "paris")
            .edge("p1", "knows", "p2")
            .edge("p2", "knows", "p3")
            .build()
        )
        query = ConjunctiveRPQ(
            head=("x", "y"),
            atoms=(Atom("x", equality_rpq("(knows)="), "y"),),
        )
        answers = {(a.id, b.id) for a, b in GraphSession(g).run(query).rows()}
        assert answers == {("p1", "p2")}

    def test_unsatisfiable_join(self, toy_graph):
        query = ConjunctiveRPQ(
            head=("x",),
            atoms=(
                Atom("x", rpq("worksAt"), "y"),
                Atom("y", rpq("knows"), "x"),
            ),
        )
        assert GraphSession(toy_graph).run(query).rows() == frozenset()


class TestHomomorphismPreservation:
    def _rpq_evaluator(self, text):
        return lambda graph: GraphSession(graph).run(rpq(text)).pairs()

    def _ree_evaluator(self, text, null_semantics=True):
        return lambda graph: GraphSession(graph).run(
            equality_rpq(text), null_semantics=null_semantics
        ).pairs()

    def test_rpq_preserved_under_collapse(self):
        source = GraphBuilder().node("a", NULL).node("b", NULL).node("c", NULL).edge(
            "a", "r", "b"
        ).edge("b", "r", "c").build()
        target = GraphBuilder().node("x", 1).edge("x", "r", "x").build()
        mapping = {"a": "x", "b": "x", "c": "x"}
        assert is_preserved_on(self._rpq_evaluator("r.r"), source, target, mapping)

    def test_data_rpq_preserved_proposition_6(self):
        """Proposition 6 instance: null values may be refined by the homomorphism."""
        source = (
            GraphBuilder()
            .node("u", 7)
            .node("n", NULL)
            .node("v", 7)
            .edge("u", "a", "n")
            .edge("n", "a", "v")
            .build()
        )
        target = (
            GraphBuilder()
            .node("u2", 7)
            .node("m", 3)
            .node("v2", 7)
            .edge("u2", "a", "m")
            .edge("m", "a", "v2")
            .build()
        )
        mapping = {"u": "u2", "n": "m", "v": "v2"}
        evaluator = self._ree_evaluator("(a.a)=")
        assert is_preserved_on(evaluator, source, target, mapping)

    def test_invalid_homomorphism_rejected(self, toy_graph):
        with pytest.raises(EvaluationError):
            violates_homomorphism_preservation(
                self._rpq_evaluator("knows"), toy_graph, toy_graph, {"alice": "bob"}
            )

    def test_negation_style_query_not_preserved(self):
        """A query that is NOT closed under homomorphisms is caught by the check.

        We use "no outgoing r-edge from the target", expressed directly as a
        Python evaluator; collapsing onto a loop breaks it.
        """
        source = GraphBuilder().node("a", 1).node("b", 1).edge("a", "r", "b").build()
        target = GraphBuilder().node("x", 1).edge("x", "r", "x").build()
        mapping = {"a": "x", "b": "x"}

        def sink_pairs(graph):
            return frozenset(
                (s, t)
                for s, _, t in []
            ) | frozenset(
                (graph.node(u), graph.node(v))
                for u in graph.node_ids
                for v in graph.node_ids
                if graph.has_edge(u, "r", v) and graph.out_degree(v) == 0
            )

        counterexample = violates_homomorphism_preservation(sink_pairs, source, target, mapping)
        assert counterexample is not None
        assert counterexample[0].id == "a"

    def test_strict_mode_requires_value_preservation(self):
        source = GraphBuilder().node("a", NULL).build()
        target = GraphBuilder().node("x", 3).build()
        with pytest.raises(EvaluationError):
            violates_homomorphism_preservation(
                self._rpq_evaluator("r"), source, target, {"a": "x"}, null_aware=False
            )
        # but it is fine as a null-aware homomorphism
        assert is_preserved_on(self._rpq_evaluator("r"), source, target, {"a": "x"}, null_aware=True)
