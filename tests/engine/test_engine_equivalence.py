"""Property tests: the indexed/batched engine against the naive evaluators.

For random graphs (drawn via :mod:`repro.workloads.random_workloads` and
:mod:`repro.datagraph.generators`) and random queries, the engine must
return byte-identical answer sets to the seed implementations for RPQs,
data RPQs and GXPath (``evaluate_path_naive`` / ``evaluate_node_naive``).
The naive evaluators are the executable specification — any divergence
is an engine bug.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_answers
from repro import planner, sqlbackend
from repro.api import GraphSession, Query
from repro.datagraph import NULL, DataGraph, generators
from repro.engine import EvaluationEngine, default_engine
from repro.engine import data as data_kernels
from repro.gxpath import evaluation as gxpath_evaluation
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
from repro.query import (
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
    rpq,
)
from repro.planner import execute as planner_execute
from repro.sqlbackend import backend as sql_backend
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
    expected_path = gxpath_evaluation.evaluate_path_naive(graph, path, null_semantics)
    assert evaluate_path(graph, path, null_semantics) == expected_path
    expected_node = gxpath_evaluation.evaluate_node_naive(graph, node, null_semantics)
    assert evaluate_node(graph, node, null_semantics) == expected_node


def test_gxpath_node_exists_uses_indexed_paths(toy_graph):
    expression = NodeExists(PathConcat(Axis("knows"), Axis("worksAt")))
    nodes = {node.id for node in evaluate_node(toy_graph, expression)}
    assert nodes == {"alice", "dave"}


# ----------------------------------------------------------------------
# The specifications stand alone: no engine, planner or SQL function runs
# ----------------------------------------------------------------------
#: One query of each of the five kinds (the CRPQ mixes an RPQ atom and
#: a data-RPQ atom).
SPEC_QUERIES = [
    Query.parse("a.(a|b)+"),
    Query.parse("!x.((a|b)[x!=])+", dialect="rem"),
    Query.parse("x, z :- (x, a+, y), (y, ree:(b.a)=, z)", dialect="crpq"),
    Query.parse("(a*.b-)!=", dialect="gxpath-path"),
    Query.parse("<a.[~<b>]>", dialect="gxpath-node"),
]


def test_the_specs_answer_with_every_kernel_entry_point_raising(monkeypatch):
    graph = random_graph_from(11, 15)
    graph.set_value(graph.node_ids[0], NULL)
    cells = [(query, null) for query in SPEC_QUERIES for null in (False, True)]
    expected = {cell: GraphSession(graph).run(*cell) for cell in cells}
    assert all(result.count() for result in expected.values())

    def refuse(*args, **kwargs):
        raise AssertionError("a specification reached a kernel entry point")

    entry_points = [
        (EvaluationEngine, name)
        for name, member in vars(EvaluationEngine).items()
        if callable(member) and not name.startswith("__")
    ]
    entry_points += [(planner, "execute_plan"), (planner_execute, "execute_plan")]
    entry_points += [
        (module, name)
        for module in (sqlbackend, sql_backend)
        for name in ("store_for", "evaluate_rpq_pairs", "closure_pairs", "evaluate_plan_rows")
    ]
    entry_points += [
        (data_kernels, "ree_relation"),
        (gxpath_evaluation, "_RowEvaluator"),
        (DataGraph, "compact_index"),
        (DataGraph, "label_index"),
    ]
    for owner, name in entry_points:
        monkeypatch.setattr(owner, name, refuse)
    for (query, null), result in expected.items():
        assert result == spec_answers(graph, query, null), (str(query), null)


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
