"""Benchmark the GraphSession batch path: run_many, uncached and cached.

The batch is the e10 workload (:func:`repro.experiments.e10_query_eval
.batch_queries`): a mix of RPQ, REE and REM plans whose REM members
dominate the runtime.  Result caching is disabled for the first
benchmark so every round measures genuine evaluation; the cached-rerun
benchmark measures the versioned result cache instead.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import ExecutionPolicy, GraphSession
from repro.datagraph import generators
from repro.experiments.e10_query_eval import batch_queries


@pytest.fixture(scope="module")
def batch_graph():
    return generators.random_graph(150, 300, labels=("a", "b"), rng=29, domain_size=20)


@pytest.fixture(scope="module")
def expected_rows(batch_graph):
    session = GraphSession(batch_graph, policy=ExecutionPolicy(cache_results=False))
    return [result.rows() for result in session.run_many(batch_queries())]


def _run_batch(graph, policy):
    session = GraphSession(graph, policy=policy)
    return session.run_many(batch_queries())


def bench_session_run_many_sequential(benchmark, batch_graph, expected_rows):
    policy = ExecutionPolicy(cache_results=False)
    gc.collect()  # a gen-2 pass over an earlier bench's garbage would land in this round
    results = benchmark.pedantic(
        _run_batch, args=(batch_graph, policy), rounds=1, iterations=1
    )
    assert [result.rows() for result in results] == expected_rows


def bench_session_run_many_cached_rerun(benchmark, batch_graph, expected_rows):
    """A warm session answering the whole batch from the versioned cache."""
    session = GraphSession(batch_graph)
    session.run_many(batch_queries())  # warm

    results = benchmark(session.run_many, batch_queries())
    assert [result.rows() for result in results] == expected_rows
    assert session.stats()["results"].hits > 0
