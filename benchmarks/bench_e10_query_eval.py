"""Benchmark E10 — baseline (data) RPQ evaluation and the REE engine ablation.

The speedup-gate pair (``bench_e10_rpq_evaluation`` vs its naive
baseline) measures the engine evaluator itself, so it calls the engine
facade directly — routing it through a caching session would benchmark
the result cache instead.  Session-level behaviour (caching, batching)
is measured in ``bench_session_batch.py``.
"""

from __future__ import annotations

import pytest

from repro.datagraph import generators
from repro.engine import default_engine
from repro.query import equality_rpq, evaluate_rpq_naive, memory_rpq, rpq


@pytest.fixture(scope="module")
def medium_graph():
    return generators.random_graph(150, 300, labels=("a", "b"), rng=29, domain_size=20)


def bench_e10_rpq_evaluation(benchmark, medium_graph):
    query = rpq("(a|b)*.a.(a|b)*")
    answers = benchmark(default_engine().evaluate_rpq, medium_graph, query)
    assert answers


def bench_e10_rpq_evaluation_naive_baseline(benchmark, medium_graph):
    """The seed per-source BFS, kept as the speedup baseline for e(G)."""
    query = rpq("(a|b)*.a.(a|b)*")
    answers = benchmark.pedantic(
        evaluate_rpq_naive, args=(medium_graph, query), rounds=1, iterations=1
    )
    assert answers == default_engine().evaluate_rpq(medium_graph, query)


def bench_e10_rpq_evaluate_many(benchmark, medium_graph):
    """Batched evaluation of a query mix over one shared label index."""
    queries = ["(a|b)*.a.(a|b)*", "a.(a|b)*.b", "a*", "b.a*", "(a.b)+"]
    answers = benchmark(default_engine().evaluate_many, medium_graph, queries)
    assert len(answers) == len(queries)


def bench_e10_ree_algebraic_engine(benchmark, medium_graph):
    query = equality_rpq("(a|b)* . ((a|b)+)= . (a|b)*")
    answers = benchmark.pedantic(
        default_engine().evaluate_data_rpq,
        args=(medium_graph, query),
        kwargs={"engine": "algebraic"},
        rounds=1, iterations=1,
    )
    assert answers


def bench_e10_ree_automaton_engine(benchmark, medium_graph):
    query = equality_rpq("(a.b)=")
    answers = benchmark.pedantic(
        default_engine().evaluate_data_rpq,
        args=(medium_graph, query),
        kwargs={"engine": "automaton"},
        rounds=1, iterations=1,
    )
    assert answers is not None


def bench_e10_memory_rpq_evaluation(benchmark, medium_graph):
    query = memory_rpq("!x.((a|b)[x!=])+")
    answers = benchmark.pedantic(
        default_engine().evaluate_data_rpq, args=(medium_graph, query), rounds=1, iterations=1
    )
    assert answers is not None
