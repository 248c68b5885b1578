"""Tests for RPQ objects and their evaluation on data graphs."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GraphSession
from repro.datagraph import GraphBuilder
from repro.datagraph import generators
from repro.query import (
    atomic_rpq,
    reachability_rpq,
    rpq,
    witness_path_labels,
    word_rpq,
)


def _ids(pairs):
    return {(source.id, target.id) for source, target in pairs}


class TestRPQClassification:
    def test_atomic(self):
        query = atomic_rpq("knows")
        assert query.is_atomic()
        assert query.as_letter() == "knows"
        assert query.is_word()
        assert query.arity == 2

    def test_word(self):
        query = word_rpq(["a", "b"])
        assert not query.is_atomic()
        assert query.as_letter() is None
        assert query.as_word() == ("a", "b")
        assert query.is_finite()

    def test_reachability(self):
        query = reachability_rpq(["a", "b"])
        assert query.is_reachability(["a", "b"])
        assert not query.is_word()
        assert query.finite_language() is None

    def test_from_text(self):
        query = rpq("(a|b)*.c")
        assert query.letters() == frozenset({"a", "b", "c"})
        assert not query.is_reachability()
        assert str(query)


class TestEvaluation:
    def test_atomic_is_edge_relation(self, toy_graph):
        answers = _ids(GraphSession(toy_graph).run(atomic_rpq("worksAt")).pairs())
        assert answers == {("alice", "uni"), ("bob", "uni")}

    def test_word_query(self, toy_graph):
        answers = _ids(GraphSession(toy_graph).run(word_rpq(["knows", "worksAt"])).pairs())
        assert answers == {("dave", "uni"), ("alice", "uni")}

    def test_star_query_includes_empty_path(self, toy_graph):
        answers = _ids(GraphSession(toy_graph).run(rpq("knows*")).pairs())
        assert ("alice", "alice") in answers
        assert ("alice", "dave") in answers
        assert ("uni", "uni") in answers
        assert ("alice", "uni") not in answers

    def test_reachability_query(self, toy_graph):
        answers = _ids(GraphSession(toy_graph).run(reachability_rpq(["knows", "worksAt"])).pairs())
        assert ("alice", "uni") in answers
        assert ("uni", "alice") not in answers

    def test_union_and_plus(self, toy_graph):
        answers = _ids(GraphSession(toy_graph).run(rpq("knows.knows | worksAt")).pairs())
        assert ("alice", "carol") in answers
        assert ("alice", "uni") in answers
        assert ("alice", "bob") not in answers

    def test_targets_of_a_source(self, toy_graph):
        nodes = {node.id for node in GraphSession(toy_graph).targets(rpq("knows+"), "alice")}
        assert nodes == {"bob", "carol", "dave", "alice"}

    def test_holds(self, toy_graph):
        session = GraphSession(toy_graph)
        assert session.holds(rpq("knows.knows"), "alice", "carol")
        assert not session.holds(rpq("knows"), "alice", "carol")

    def test_empty_graph_portions(self):
        g = GraphBuilder().node("isolated", 1).build()
        assert _ids(GraphSession(g).run(rpq("a")).pairs()) == set()
        assert _ids(GraphSession(g).run(rpq("a*")).pairs()) == {("isolated", "isolated")}

    def test_chain_word_lengths(self, chain_graph_10):
        answers = _ids(GraphSession(chain_graph_10).run(word_rpq(["a"] * 10)).pairs())
        assert answers == {("c0", "c10")}
        assert _ids(GraphSession(chain_graph_10).run(word_rpq(["a"] * 11)).pairs()) == set()


class TestWitnessPaths:
    def test_witness_for_reachable_pair(self, toy_graph):
        labels = witness_path_labels(toy_graph, rpq("knows+"), "alice", "dave")
        assert labels == ("knows", "knows", "knows")

    def test_witness_for_empty_path(self, toy_graph):
        assert witness_path_labels(toy_graph, rpq("knows*"), "alice", "alice") == ()

    def test_no_witness(self, toy_graph):
        assert witness_path_labels(toy_graph, rpq("worksAt"), "carol", "uni") is None

    def test_witness_is_accepted_by_query(self, toy_graph):
        from repro.regular import matches

        labels = witness_path_labels(toy_graph, rpq("knows.knows|knows.worksAt"), "dave", "uni")
        assert labels is not None
        assert matches("knows.knows|knows.worksAt", labels)


class TestEvaluationOnRandomGraphs:
    """Cross-check the product construction against path enumeration."""

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_against_bounded_enumeration(self, seed):
        from repro.datagraph import enumerate_paths
        from repro.regular import matches

        graph = generators.random_graph(5, 8, labels=("a", "b"), rng=seed)
        expression = "a.(a|b)*.b"
        answers = _ids(GraphSession(graph).run(rpq(expression)).pairs())
        # Every enumerated short witness must be reported by the evaluator.
        for source in graph.node_ids:
            for path in enumerate_paths(graph, source, max_length=4):
                if matches(expression, path.label_word):
                    assert (source, path.target.id) in answers
