"""Micro-benchmarks of the substrate operations the experiments build on.

These are conventional pytest-benchmark measurements (multiple rounds,
calibrated) of the hot paths: graph construction, RPQ product evaluation,
REM derivation, homomorphism search, universal-solution construction and
the chase.  They are not tied to a paper claim; they exist so that
performance regressions in the substrate are visible independently of the
experiment-level numbers.
"""

from __future__ import annotations

import pytest

from repro.api import GraphSession
from repro.core import GraphSchemaMapping, universal_solution
from repro.datagraph import DataPath, GraphBuilder, find_homomorphism, generators
from repro.datapaths import parse_rem, rem_matches
from repro.engine import default_engine
from repro.query import equality_rpq, evaluate_rpq_naive, rpq


@pytest.fixture(scope="module")
def graph_200():
    return generators.random_graph(200, 400, labels=("a", "b"), rng=5, domain_size=10)


def bench_micro_graph_construction(benchmark):
    def build():
        return generators.random_graph(300, 600, labels=("a", "b"), rng=1)

    graph = benchmark(build)
    assert graph.num_nodes == 300


def bench_micro_rpq_product_evaluation(benchmark, graph_200):
    query = rpq("a.(a|b)*.b")
    answers = benchmark(default_engine().evaluate_rpq, graph_200, query)
    assert answers is not None


def bench_micro_rpq_product_evaluation_naive(benchmark, graph_200):
    """The seed per-source product BFS (speedup baseline for the engine)."""
    query = rpq("a.(a|b)*.b")
    answers = benchmark.pedantic(
        evaluate_rpq_naive, args=(graph_200, query), rounds=1, iterations=1
    )
    assert answers == default_engine().evaluate_rpq(graph_200, query)


def bench_micro_label_index_build(benchmark, graph_200):
    from repro.datagraph import LabelIndex

    index = benchmark(LabelIndex, graph_200)
    assert index.nodes


def bench_micro_session_holds(benchmark, graph_200):
    """One hundred membership questions on a fresh session (point answers
    are cached per session, so every round pays for its scans)."""
    node_ids = graph_200.node_ids
    pairs = [(node_ids[i], node_ids[(i * 7 + 3) % len(node_ids)]) for i in range(100)]

    def decide():
        session = GraphSession(graph_200)
        return [session.holds("a.(a|b)*.b", source, target) for source, target in pairs]

    verdicts = benchmark(decide)
    expected = default_engine().evaluate_rpq_ids(graph_200, "a.(a|b)*.b")
    assert verdicts == [pair in expected for pair in pairs]


def bench_micro_ree_evaluation(benchmark, graph_200):
    query = equality_rpq("(a.b)=")
    answers = benchmark(default_engine().evaluate_data_rpq, graph_200, query)
    assert answers is not None


def bench_micro_rem_membership(benchmark):
    expression = parse_rem("a* . !x.a+[x=] . a*")
    path = DataPath(tuple(range(40)) + (3,), tuple("a" for _ in range(40)))
    accepted = benchmark(rem_matches, expression, path)
    assert accepted


def bench_micro_homomorphism_search(benchmark):
    pattern = (
        GraphBuilder()
        .node("x")
        .node("y")
        .node("z")
        .edge("x", "a", "y")
        .edge("y", "b", "z")
        .edge("z", "a", "x")
        .build()
    )
    host = generators.random_graph(60, 240, labels=("a", "b"), rng=8, domain_size=4)
    mapping = benchmark(find_homomorphism, pattern, host)
    assert mapping is None or len(mapping) == 3


def bench_micro_universal_solution(benchmark):
    mapping = GraphSchemaMapping([("r", "t.t"), ("s", "u")])
    source = generators.random_graph(120, 240, labels=("r", "s"), rng=9, domain_size=12)
    target = benchmark(universal_solution, mapping, source)
    assert target.num_edges >= source.num_edges


def bench_micro_relational_chase(benchmark):
    from repro.relational import TGD, AtomPattern, Instance, RelationSchema, Schema, Variable, chase

    schema = Schema([RelationSchema("S", 2), RelationSchema("T", 2)])
    instance = Instance(schema)
    for index in range(60):
        instance.add_fact("S", (f"a{index}", f"a{index + 1}"))
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    tgd = TGD(body=(AtomPattern("S", (x, y)),), head=(AtomPattern("T", (x, z)), AtomPattern("T", (z, y))))
    result = benchmark.pedantic(chase, args=(instance,), kwargs={"tgds": [tgd]}, rounds=1, iterations=1)
    assert result.size() > instance.size()
