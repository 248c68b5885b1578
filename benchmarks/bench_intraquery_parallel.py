"""Benchmark intra-query parallelism: one full-relation RPQ, two drivers.

The workload is the multi-community scenario
(:func:`repro.workloads.multi_community_scenario`): dense ``knows``
clusters joined by thin ``bridge`` edges, evaluated with a heavy
cross-community reachability RPQ whose phase-3 source propagation
dominates the runtime.  The same compiled automaton and label index feed

* the sequential three-phase engine (``product.full_relation``),
* the source-block parallel driver (``partition.parallel_full_relation``,
  phase 3 fanned out over forked workers; degrades to one block — i.e.
  sequential evaluation plus no pool — on a single core).

Both must return identical pairs; CI compares the means from
BENCH_pr.json and fails when the source-block path falls below
sequential on a multi-core runner (see the bench-smoke gate).
"""

from __future__ import annotations

import pytest

from repro.engine import default_engine
from repro.engine import partition, product
from repro.workloads import multi_community_scenario

#: Communities × community size: ~1k nodes, enough phase-3 work for a
#: worker pool to amortise its fork startup.
NUM_COMMUNITIES = 16
COMMUNITY_SIZE = 60
#: The heavy query: pairs connected through at least two bridge crossings.
QUERY = "(knows|bridge)*.bridge.(knows|bridge)*.bridge.(knows|bridge)*"


@pytest.fixture(scope="module")
def community_index():
    scenario = multi_community_scenario(NUM_COMMUNITIES, COMMUNITY_SIZE, rng=17)
    return scenario.source.label_index()


@pytest.fixture(scope="module")
def compiled_query():
    return default_engine().compile_rpq(QUERY)


@pytest.fixture(scope="module")
def expected_pairs(community_index, compiled_query):
    return product.full_relation(community_index, compiled_query)


def bench_intraquery_sequential(benchmark, community_index, compiled_query, expected_pairs):
    pairs = benchmark.pedantic(
        product.full_relation, args=(community_index, compiled_query), rounds=1, iterations=1
    )
    assert pairs == expected_pairs


def bench_intraquery_source_blocks(benchmark, community_index, compiled_query, expected_pairs):
    pairs = benchmark.pedantic(
        partition.parallel_full_relation,
        args=(community_index, compiled_query),
        rounds=1,
        iterations=1,
    )
    assert pairs == expected_pairs
