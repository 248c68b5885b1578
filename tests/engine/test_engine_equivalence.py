"""Property tests: the indexed/batched engine against the naive evaluators.

For random graphs (drawn via :mod:`repro.workloads.random_workloads` and
:mod:`repro.datagraph.generators`) and random queries, the engine must
return byte-identical answer sets to the seed implementations for RPQs,
data RPQs and GXPath (whose specification is ``reference_path`` /
``reference_node`` in ``tests/conftest.py``).  The naive evaluators are
the executable specification — any divergence is an engine bug.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_node, reference_path
from repro.api import ExecutionPolicy, GraphSession
from repro.datagraph import NULL, generators
from repro.engine import EvaluationEngine, default_engine
from repro.gxpath.ast import (
    Axis,
    AxisStar,
    NodeAnd,
    NodeExists,
    NodeNot,
    NodeOr,
    NodeTest,
    PathConcat,
    PathEpsilon,
    PathEqual,
    PathNotEqual,
    PathUnion,
)
from repro.gxpath.evaluation import evaluate_node, evaluate_path
from repro.planner.router import route_point
from repro.query import (
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
    rpq,
)
from repro.workloads.random_workloads import random_equality_query, workload_sweep

RPQ_POOL = [
    "a",
    "b.a",
    "(a|b)*",
    "a.(a|b)*.b",
    "(a|b)*.a.(a|b)*",
    "(a.b)+",
    "a*|b*",
    "(a|b).(a|b).(a|b)",
]


def random_graph_from(seed: int, size: int):
    return generators.random_graph(
        num_nodes=size,
        num_edges=size * 2,
        labels=("a", "b"),
        rng=seed,
        domain_size=max(2, size // 3),
    )


# ----------------------------------------------------------------------
# RPQ: engine vs seed per-source BFS
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=40),
    query_index=st.integers(min_value=0, max_value=len(RPQ_POOL) - 1),
)
def test_rpq_engine_matches_naive(seed, size, query_index):
    graph = random_graph_from(seed, size)
    query = rpq(RPQ_POOL[query_index])
    assert GraphSession(graph).run(query).pairs() == evaluate_rpq_naive(graph, query)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=30),
)
def test_rpq_batched_and_point_entry_points_agree(seed, size):
    graph = random_graph_from(seed, size)
    engine = EvaluationEngine()
    queries = [RPQ_POOL[seed % len(RPQ_POOL)], RPQ_POOL[(seed + 3) % len(RPQ_POOL)]]
    batched = engine.evaluate_many(graph, queries)
    session = GraphSession(graph, engine=engine)
    for query, answer in zip(queries, batched):
        assert answer == evaluate_rpq_naive(graph, query)
        assert all(session.holds(query, source.id, target.id) for source, target in answer)
        # spot-check some non-answers too
        node_ids = graph.node_ids
        non_answers = [
            (node_ids[i], node_ids[j])
            for i in range(len(node_ids))
            for j in range(len(node_ids))
            if (graph.node(node_ids[i]), graph.node(node_ids[j])) not in answer
        ][:10]
        assert not any(session.holds(query, source, target) for source, target in non_answers)


# ----------------------------------------------------------------------
# Data RPQ: algebraic and register engines vs seed product BFS
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    size=st.integers(min_value=1, max_value=16),
    shape=st.sampled_from(["equal", "unequal", "repeat", "plain"]),
    null_semantics=st.booleans(),
)
def test_data_rpq_engines_match_naive(seed, size, shape, null_semantics):
    graph = generators.random_graph(
        num_nodes=size,
        num_edges=size * 2,
        labels=("a", "b"),
        rng=seed,
        domain_size=max(2, size // 2),
    )
    query = random_equality_query(("a", "b"), length=2, test=shape, rng=seed)
    naive = evaluate_data_rpq_naive(graph, query, null_semantics=null_semantics)
    algebraic = default_engine().evaluate_data_rpq(graph, query, null_semantics, engine="algebraic")
    automaton = default_engine().evaluate_data_rpq(graph, query, null_semantics, engine="automaton")
    assert algebraic == naive
    assert automaton == naive


def test_data_rpq_equivalence_on_workload_sweep():
    for workload in workload_sweep(sizes=(6, 10, 14), query_test="repeat"):
        graph = workload.source
        # the sweep query is over the target alphabet; ask it over the
        # source alphabet instead so it actually touches edges
        query = random_equality_query(
            tuple(sorted(workload.mapping.source_alphabet)), test="repeat", rng=workload.parameters["nodes"]
        )
        naive = evaluate_data_rpq_naive(graph, query)
        assert default_engine().evaluate_data_rpq(graph, query, engine="algebraic") == naive
        assert default_engine().evaluate_data_rpq(graph, query, engine="automaton") == naive


# ----------------------------------------------------------------------
# GXPath: the bit-row evaluator vs the Figure-1 reference (conftest)
# ----------------------------------------------------------------------
def random_gxpath(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.15:
            return PathEpsilon()
        label = rng.choice(["a", "b"])
        inverse = rng.random() < 0.4
        if choice < 0.6:
            return Axis(label, inverse)
        return AxisStar(label, inverse)
    combinator = rng.choice(["concat", "union", "equal", "notequal", "test"])
    if combinator == "concat":
        return PathConcat(random_gxpath(rng, depth - 1), random_gxpath(rng, depth - 1))
    if combinator == "union":
        return PathUnion(random_gxpath(rng, depth - 1), random_gxpath(rng, depth - 1))
    if combinator == "equal":
        return PathEqual(random_gxpath(rng, depth - 1))
    if combinator == "test":
        return NodeTest(random_node(rng, depth - 1))
    return PathNotEqual(random_gxpath(rng, depth - 1))


def random_node(rng: random.Random, depth: int = 3):
    combinator = rng.choice(["not", "and", "or", "exists"]) if depth > 0 else "exists"
    if combinator == "not":
        return NodeNot(random_node(rng, depth - 1))
    if combinator == "and":
        return NodeAnd(random_node(rng, depth - 1), random_node(rng, depth - 1))
    if combinator == "or":
        return NodeOr(random_node(rng, depth - 1), random_node(rng, depth - 1))
    return NodeExists(random_gxpath(rng, max(depth - 1, 0)))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    # masks of one machine word and of two
    size=st.one_of(st.integers(min_value=1, max_value=20), st.integers(min_value=65, max_value=90)),
    null_semantics=st.booleans(),
    nulls=st.booleans(),
)
def test_gxpath_engine_matches_reference(seed, size, null_semantics, nulls):
    graph = random_graph_from(seed, size)
    if nulls:
        for node_id in graph.node_ids[::3]:
            graph.set_value(node_id, NULL)
    rng = random.Random(seed)
    path, node = random_gxpath(rng), random_node(rng)
    expected_path = reference_path(graph, path, null_semantics)
    expected_node = reference_node(graph, node, null_semantics)
    for backend in ("compact", "dict"):
        route = route_point(graph, ExecutionPolicy(backend=backend))
        pairs = evaluate_path(graph, path, null_semantics, route=route)
        assert {(source.id, target.id) for source, target in pairs} == expected_path, backend
        nodes = evaluate_node(graph, node, null_semantics, route=route)
        assert {v.id for v in nodes} == expected_node, backend


def test_gxpath_node_exists_uses_indexed_paths(toy_graph):
    expression = NodeExists(PathConcat(Axis("knows"), Axis("worksAt")))
    nodes = {node.id for node in evaluate_node(toy_graph, expression)}
    assert nodes == {"alice", "dave"}


# ----------------------------------------------------------------------
# Mutation safety: results must track graph changes (no stale caches)
# ----------------------------------------------------------------------
def test_engine_results_follow_graph_mutations(toy_graph):
    engine = default_engine()
    before = engine.evaluate_rpq(toy_graph, "knows.knows")
    toy_graph.add_edge("dave", "knows", "bob")
    after = engine.evaluate_rpq(toy_graph, "knows.knows")
    assert before != after
    assert after == evaluate_rpq_naive(toy_graph, "knows.knows")


@pytest.mark.parametrize("query", RPQ_POOL)
def test_rpq_pool_on_fixed_graph(query):
    graph = random_graph_from(424242, 25)
    assert GraphSession(graph).run(query).pairs() == evaluate_rpq_naive(graph, query)
