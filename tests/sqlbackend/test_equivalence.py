"""Property tests: the SQL backend against the dict/compact engines and naive specs.

For random graphs and queries across all five dialects, a session forced
onto ``backend="sql"`` must return byte-identical answers to the dict
and compact sessions and to the naive seed evaluators — including the
dialects the SQL backend does not lower (data RPQs degrade to the dict
path and GXPath to its one bit-row route, which is itself part of the
contract), seeded point queries
(``targets`` / ``holds``), and queries posed after the graph mutated and
the ``D_G`` database was refreshed incrementally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.gxpath.ast import AxisStar
from repro.gxpath.evaluation import evaluate_path_naive
from repro.query import evaluate_crpq_naive, evaluate_rpq_naive
from repro.sqlbackend import closure_pairs, store_for

BACKENDS = ("sql", "compact", "dict")

RPQ_POOL = [
    "a",
    "b.a",
    "(a|b)*",
    "a.(a|b)*.b",
    "(a|b)*.a.(a|b)*",
    "(a.b)+",
    "a*|b*",
    "(a|b).(a|b).(a|b)",
    # Factored-plan shapes: concatenations of letter-set steps and
    # closures, compiled via pivot selection instead of the product CTE.
    "a*.b",
    "b+.a",
    "a.b*.a+",
]

#: One query per dialect; the data dialects (ree / rem) and GXPath are
#: exactly the ones the SQL backend must *decline* unchanged.
DIALECT_POOL = [
    ("rpq", "a.(a|b)*"),
    ("ree", "((a|b)+)="),
    ("rem", "!x.((a|b)[x=])+"),
    ("crpq", "x, z :- (x, a+, y), (y, (a|b)*, z)"),
    ("gxpath-path", "a*.b"),
]

CRPQ_POOL = [
    "x, y :- (x, a+, y)",
    "x, z :- (x, a.b, y), (y, (a|b)*, z)",
    "x :- (x, a, y), (y, b, x)",
    ":- (x, (a|b)+, y)",
    "x, y :- (x, a*, z), (z, ree:(a)=, y)",
    "x, y :- (x, a, x), (y, b*, y)",
]


def random_graph_from(seed, size):
    return generators.random_graph(
        num_nodes=size,
        num_edges=size * 2,
        labels=("a", "b"),
        rng=seed,
        domain_size=max(2, size // 3),
    )


def sessions_for(graph):
    return {
        backend: GraphSession(graph, policy=ExecutionPolicy(backend=backend))
        for backend in BACKENDS
    }


# ----------------------------------------------------------------------
# Full relations, all five dialects
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=40),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_rpq_sql_matches_backends_and_naive(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = Query.parse(RPQ_POOL[query_index])
    naive = evaluate_rpq_naive(graph, query.plan)
    for backend, session in sessions_for(graph).items():
        assert session.run(query).pairs() == naive, backend


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=20),
    null_semantics=st.booleans(),
)
def test_all_dialects_agree_across_backends(seed, size, null_semantics):
    graph = random_graph_from(seed, size)
    for dialect, text in DIALECT_POOL:
        query = Query.parse(text, dialect=dialect)
        answers = {
            backend: session.run(query, null_semantics=null_semantics).rows()
            for backend, session in sessions_for(graph).items()
        }
        assert answers["sql"] == answers["dict"] == answers["compact"], (dialect, text)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=24),
    query_index=st.integers(min_value=0, max_value=len(CRPQ_POOL) - 1),
)
def test_crpq_sql_matches_backends_and_naive(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = Query.parse(CRPQ_POOL[query_index], dialect="crpq")
    answers = {
        backend: session.run(query).rows()
        for backend, session in sessions_for(graph).items()
    }
    assert answers["sql"] == answers["dict"] == answers["compact"]
    naive = evaluate_crpq_naive(graph, query.plan)
    assert answers["sql"] == naive


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=24),
    inverse=st.booleans(),
)
def test_closure_pairs_matches_the_reference(seed, size, inverse):
    # No route runs the axis-star closure CTE any more; it is held to the
    # GXPath specification directly for as long as it exists.
    graph = random_graph_from(seed, size)
    for label in ("a", "b"):
        pairs = evaluate_path_naive(graph, AxisStar(label, inverse))
        expected = {(source.id, target.id) for source, target in pairs}
        assert closure_pairs(graph, label, inverse) == expected


# ----------------------------------------------------------------------
# Seeded point queries
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_point_queries_sql_matches_dict(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = Query.parse(RPQ_POOL[query_index])
    sessions = sessions_for(graph)
    node_ids = graph.node_ids[:6]
    for source in node_ids:
        expected = sessions["dict"].targets(query, source)
        assert sessions["sql"].targets(query, source) == expected, source
        for target in node_ids:
            verdict = sessions["dict"].holds(query, source, target)
            assert sessions["sql"].holds(query, source, target) == verdict


# ----------------------------------------------------------------------
# Post-delta refreshed databases
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=2, max_value=30),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_answers_after_incremental_refresh(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = Query.parse(RPQ_POOL[query_index])
    sql_session = GraphSession(graph, policy=ExecutionPolicy(backend="sql"))
    sql_session.run(query)  # builds the D_G database at this version
    store = store_for(graph)
    builds_before = store.full_rebuilds

    ids = graph.node_ids
    with graph.batch():
        fresh = graph.add_node(f"sql-delta-{seed}", size % 3)
        graph.add_edge(ids[0], "a", fresh.id)
        graph.add_edge(fresh.id, "b", ids[seed % len(ids)])
        graph.set_value(ids[seed % len(ids)], "patched")
        if size > 2:
            victim = ids[1]
            for source, target in list(graph.label_index().pairs("a")):
                if source == victim or target == victim:
                    graph.remove_edge(source, "a", target)

    naive = evaluate_rpq_naive(graph, query.plan)
    assert sql_session.run(query).pairs() == naive
    store = store_for(graph)
    assert store.full_rebuilds == builds_before  # refreshed, not rebuilt
    assert store.incremental_refreshes >= 1


@pytest.mark.parametrize("dialect,text", DIALECT_POOL, ids=[d for d, _ in DIALECT_POOL])
def test_all_dialects_agree_after_mutations(dialect, text):
    graph = random_graph_from(7, 18)
    query = Query.parse(text, dialect=dialect)
    sessions = sessions_for(graph)
    before = {b: s.run(query).rows() for b, s in sessions.items()}
    assert before["sql"] == before["dict"] == before["compact"]
    ids = graph.node_ids
    with graph.batch():
        node = graph.add_node("delta-node", 2)
        graph.add_edge(ids[0], "a", node.id)
        graph.add_edge(node.id, "b", ids[-1])
        graph.remove_node(ids[len(ids) // 2])
    after = {b: s.run(query).rows() for b, s in sessions.items()}
    assert after["sql"] == after["dict"] == after["compact"]
