"""The session's point entry points on every kernel family.

``GraphSession.targets`` and ``GraphSession.holds`` are the one way to
ask a single-source or single-pair question.  RPQs run one seeded
product BFS on the point route's kernel (``dict`` or ``compact``); data
RPQs read the source's bit across the bit rows of the session's entry
(a ``targets`` is one pass over the rows, a ``holds`` one bit), and only
the forced ``dict`` kernel, which keeps no rows, scans decoded pairs.
Each case checks every source and every pair of a small graph with a
null node against the naive specs, under both value semantics.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, GraphSession
from repro.datagraph import NULL, generators
from repro.engine.bitrelation import BitRelation
from repro.exceptions import UnknownNodeError
from repro.query import (
    DataRPQ,
    equality_rpq,
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
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
    if isinstance(query, DataRPQ):
        pairs = evaluate_data_rpq_naive(graph, query, null_semantics)
    else:
        pairs = evaluate_rpq_naive(graph, query)
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
