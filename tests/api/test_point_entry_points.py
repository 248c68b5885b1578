"""The session's point entry points on every kernel family.

``GraphSession.targets`` and ``GraphSession.holds`` are the one way to
ask a single-source or single-pair question.  RPQs run one seeded
product BFS on the point route's kernel (``dict`` or ``compact``); data
RPQs read the source's bit across the bit rows of the session's entry
(a ``targets`` is one pass over the rows, a ``holds`` one bit), and only
the forced ``dict`` kernel, which keeps no rows, scans decoded pairs.
Each case checks every source and every pair of a small graph with a
null node against the naive specs, under both value semantics.
:class:`TestPointCache` covers the session's point cache: repeat hits,
invalidation by a write, and that an RPQ point never materialises the
full relation.
"""

from __future__ import annotations

import pytest

from conftest import spec_answers
from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import NULL, generators
from repro.engine.bitrelation import BitRelation
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.query import (
    DataRPQ,
    equality_rpq,
    memory_rpq,
    rpq,
    word_rpq,
)

BACKENDS = ("dict", "compact")

QUERIES = [
    rpq("a"),
    word_rpq(["b", "a"]),
    rpq("(a|b)*"),
    rpq("a.(a|b)*.b"),
    rpq("(a.b)+"),
    equality_rpq("(a.a)="),
    equality_rpq("((a|b)+)!="),
    memory_rpq("!x.(a[x!=])+"),
    memory_rpq("!x.((a|b)+[x=])"),
]


@pytest.fixture(scope="module")
def graph():
    graph = generators.random_graph(9, 18, labels=("a", "b"), rng=17, domain_size=3)
    graph.add_node("void", NULL)
    graph.add_edge("n0", "a", "void")
    graph.add_edge("void", "b", "n1")
    graph.add_edge("void", "a", "n2")
    return graph


def _expected(graph, query, null_semantics):
    pairs = spec_answers(graph, Query.of(query), null_semantics)
    return {(source.id, target.id) for source, target in pairs}


def _session(graph, backend):
    return GraphSession(graph, policy=ExecutionPolicy(backend=backend))


@pytest.mark.parametrize("query", QUERIES, ids=str)
@pytest.mark.parametrize("backend", BACKENDS)
def test_targets_are_the_naive_rows(graph, backend, query):
    for null_semantics in (False, True):
        expected = _expected(graph, query, null_semantics)
        session = _session(graph, backend)
        for source in graph.node_ids:
            answer = {node.id for node in session.targets(query, source, null_semantics=null_semantics)}
            assert answer == {v for u, v in expected if u == source}, (source, null_semantics)


@pytest.mark.parametrize("query", QUERIES, ids=str)
@pytest.mark.parametrize("backend", BACKENDS)
def test_holds_is_naive_membership(graph, backend, query):
    for null_semantics in (False, True):
        expected = _expected(graph, query, null_semantics)
        session = _session(graph, backend)
        for source in graph.node_ids:
            for target in graph.node_ids:
                assert session.holds(query, source, target, null_semantics=null_semantics) == (
                    (source, target) in expected
                ), (source, target, null_semantics)


@pytest.mark.parametrize("query", [QUERIES[2], QUERIES[7]], ids=str)
@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_node_ids_raise(graph, backend, query):
    session = _session(graph, backend)
    with pytest.raises(UnknownNodeError):
        session.targets(query, "missing")
    with pytest.raises(UnknownNodeError):
        session.holds(query, "missing", "n0")
    with pytest.raises(UnknownNodeError):
        session.holds(query, "n0", "missing")


@pytest.mark.parametrize("query", QUERIES, ids=str)
@pytest.mark.parametrize("backend", BACKENDS)
def test_uncached_points_read_fresh_rows_and_store_nothing(graph, backend, query, monkeypatch):
    """Without a result cache a point evaluates afresh — on the compact
    kernel a data RPQ's rows are read, never decoded — and keeps no entry."""
    decodes = []
    node_pairs = BitRelation.node_pairs

    def spied(self, objects):
        decodes.append(len(self.rows))
        return node_pairs(self, objects)

    monkeypatch.setattr(BitRelation, "node_pairs", spied)
    session = GraphSession(graph, policy=ExecutionPolicy(backend=backend, cache_results=False))
    for null_semantics in (False, True):
        expected = _expected(graph, query, null_semantics)
        for source in ("n0", "void", "n3"):
            answer = {node.id for node in session.targets(query, source, null_semantics=null_semantics)}
            assert answer == {v for u, v in expected if u == source}, (source, null_semantics)
            for target in ("n1", "void", "n2"):
                assert session.holds(query, source, target, null_semantics=null_semantics) == (
                    (source, target) in expected
                ), (source, target, null_semantics)
    assert session.stats()["results"].size == 0
    assert session.stats()["points"].size == 0
    if isinstance(query, DataRPQ) and backend == "compact":
        assert decodes == []


class TestPointCache:
    def graph(self):
        return generators.random_graph(30, 90, labels=("a", "b"), rng=21, domain_size=4)

    def test_targets_match_the_full_relation(self):
        graph = self.graph()
        session = GraphSession(graph)
        relation = session.run("a.(a|b)*").pairs()
        for node in graph.node_ids:
            expected = frozenset(v for u, v in relation if u.id == node)
            assert session.targets("a.(a|b)*", node) == expected

    def test_repeat_questions_hit_the_point_cache(self):
        session = GraphSession(self.graph())
        session.targets("a.(a|b)*", "n0")
        before = session.stats()["points"].hits
        session.targets("a.(a|b)*", "n0")
        assert session.stats()["points"].hits == before + 1

    def test_point_queries_do_not_materialise_the_full_relation(self):
        session = GraphSession(self.graph())
        session.targets("a.(a|b)*", "n0")
        assert session.stats()["results"].size == 0

    def test_holds_uses_the_point_path_for_rpqs(self):
        graph = self.graph()
        session = GraphSession(graph)
        relation = GraphSession(graph, policy=ExecutionPolicy(cache_results=False)).run(
            "a.(a|b)*"
        ).pairs()
        some_pair = next(iter(relation))
        assert session.holds("a.(a|b)*", some_pair[0].id, some_pair[1].id)
        assert session.stats()["results"].size == 0  # no full relation computed
        answer_ids = {(u.id, v.id) for u, v in relation}
        non_pairs = [
            (u, v)
            for u in graph.node_ids
            for v in graph.node_ids
            if (u, v) not in answer_ids
        ]
        if non_pairs:
            u, v = non_pairs[0]
            assert not session.holds("a.(a|b)*", u, v)

    def test_holds_prefers_a_cached_full_relation(self):
        session = GraphSession(self.graph())
        relation = session.run("a.(a|b)*").pairs()
        some_pair = next(iter(relation))
        before = session.stats()["points"].misses
        assert session.holds("a.(a|b)*", some_pair[0].id, some_pair[1].id)
        assert session.stats()["points"].misses == before  # served from results

    def test_mutation_invalidates_point_answers(self):
        graph = generators.chain(2, labels=("a",))
        session = GraphSession(graph)
        assert {node.id for node in session.targets("a.a", "n0")} == {"n2"}
        graph.remove_edge("n1", "a", "n2")
        assert session.targets("a.a", "n0") == frozenset()

    def test_targets_rejects_non_binary_plans_and_unknown_sources(self):
        session = GraphSession(self.graph())
        with pytest.raises(EvaluationError):
            session.targets(Query.gxpath("<a>"), "n0")
        with pytest.raises(UnknownNodeError):
            session.targets("a", "no-such-node")

    def test_targets_for_data_queries_filter_the_relation(self):
        graph = self.graph()
        session = GraphSession(graph)
        plan = Query.parse("((a|b)+)=", "ree")
        relation = session.run(plan).pairs()
        for node in list(graph.node_ids)[:5]:
            expected = frozenset(v for u, v in relation if u.id == node)
            assert session.targets(plan, node) == expected

    def test_clear_cache_drops_point_answers(self):
        session = GraphSession(self.graph())
        session.targets("a", "n0")
        assert session.stats()["points"].size == 1
        session.clear_cache()
        assert session.stats()["points"].size == 0
