"""Benchmark the CRPQ planner against the retired nested-loop join.

The workload is a small batch of random chain CRPQs from
:func:`repro.workloads.random_crpq` — the same generator the planner's
property tests draw from — over the multi-community graph: each query
anchors on the selective ``bridge`` atom and continues through closure
atoms whose full relations are large.  The naive evaluator
(:func:`repro.query.crpq.evaluate_crpq_naive`, the executable spec)
materialises every atom relation by the RPQ / data-RPQ specifications
(per-source product searches, no engine) and joins tuple by tuple; the
planner (:func:`repro.planner.plan_crpq` →
:func:`repro.planner.execute_plan`) starts from the cheapest atom and
evaluates the closure atoms only from the bindings that survive (seeded
kernels + hash joins).

Both must return identical answers; CI compares the means from
BENCH_pr.json and fails when the planner's speedup over the naive join
drops below 2× (see the bench-smoke gate in ci.yml).  The spec runs no
engine kernel, so the ratio reads ≈ 1,000–1,300× on a 2-core Xeon.

The random chains have existential interior variables, so the planner
fuses each into one atom and runs no join at all — which is the point of
that gate.  A second gate pins the elimination itself: a supplier-shaped 3-atom existential chain must cost at most 2×
its hand-fused RPQ (3.8× before existential-variable elimination).
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import DataGraph
from repro.engine import default_engine
from repro.planner import execute_plan, plan_crpq
from repro.query.crpq import evaluate_crpq_naive
from repro.workloads import multi_community_scenario, random_crpq

NUM_COMMUNITIES = 8
COMMUNITY_SIZE = 40
#: Chain CRPQs anchored on the thin bridge relation; the closure-heavy
#: tails are where join order and seeding pay.
QUERY_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def community_graph():
    graph = multi_community_scenario(NUM_COMMUNITIES, COMMUNITY_SIZE, rng=17).source
    graph.label_index()  # both paths share one prebuilt index
    return graph


@pytest.fixture(scope="module")
def crpq_workload():
    return tuple(
        random_crpq(
            ("knows", "bridge"),
            shape="chain",
            num_atoms=3,
            head_arity=2,
            closure_prob=0.6,
            first_atom="bridge",
            rng=seed,
        )
        for seed in QUERY_SEEDS
    )


@pytest.fixture(scope="module")
def expected_answers(community_graph, crpq_workload):
    return tuple(evaluate_crpq_naive(community_graph, query) for query in crpq_workload)


def bench_crpq_naive_nested_loop(benchmark, community_graph, crpq_workload, expected_answers):
    def run():
        return tuple(evaluate_crpq_naive(community_graph, query) for query in crpq_workload)

    answers = benchmark.pedantic(run, rounds=1, iterations=1)
    assert answers == expected_answers


def bench_crpq_planner_hash_join(benchmark, community_graph, crpq_workload, expected_answers):
    engine = default_engine()
    index = community_graph.label_index()

    def run():
        return tuple(
            execute_plan(plan_crpq(query, index), community_graph, engine=engine)
            for query in crpq_workload
        )

    answers = benchmark.pedantic(run, rounds=1, iterations=1)
    assert answers == expected_answers


# ----------------------------------------------------------------------
# Existential-variable elimination: a chain CRPQ is its fused RPQ
# ----------------------------------------------------------------------
TIERS, WIDTH, FAN, REGIONS = 8, 130, 2, 8
CHAIN_CRPQ = "x, r :- (x, supplies_to+, y), (y, alt_for, z), (z, located_in, r)"
FUSED_RPQ = "supplies_to+.alt_for.located_in"


@pytest.fixture(scope="module")
def supplier_graph():
    """A tiered supplier graph shaped like the end-to-end benchmark's
    ``supplier_l``: ``FAN`` ``supplies_to`` edges from every supplier to
    the tier below, one ``located_in`` region each, ``alt_for`` inside a
    tier for one supplier in five."""
    rng = random.Random(15)
    graph = DataGraph()
    for region in range(REGIONS):
        graph.add_node(("region", region), f"R{region}")
    for tier in range(TIERS):
        for i in range(WIDTH):
            graph.add_node((tier, i), tier)
    for tier in range(TIERS):
        for i in range(WIDTH):
            graph.add_edge((tier, i), "located_in", ("region", rng.randrange(REGIONS)))
            if tier:
                for below in rng.sample(range(WIDTH), FAN):
                    graph.add_edge((tier, i), "supplies_to", (tier - 1, below))
            if i % 5 == 0:
                graph.add_edge((tier, i), "alt_for", (tier, rng.randrange(1, WIDTH)))
    graph.compact_index()
    return graph


def _fresh_session_run(benchmark, graph, query):
    def run():
        session = GraphSession(graph, policy=ExecutionPolicy(backend="compact"))
        return session.run(query).rows()

    run()  # compile the automaton; build nothing inside the timer
    # A full suite leaves tens of thousands of live objects from earlier
    # benchmarks: without this, the first timed round can pay a ~20 ms
    # generation-2 pass over them (collecting nothing) and swing the gate.
    gc.collect()
    return benchmark.pedantic(run, rounds=3, iterations=1)


def bench_rpq_hand_fused_chain(benchmark, supplier_graph):
    pairs = _fresh_session_run(benchmark, supplier_graph, Query.parse(FUSED_RPQ))
    assert len(pairs) > supplier_graph.num_nodes
    benchmark.extra_info["answer_pairs"] = len(pairs)


def bench_crpq_existential_chain(benchmark, supplier_graph):
    rows = _fresh_session_run(
        benchmark, supplier_graph, Query.parse(CHAIN_CRPQ, dialect="crpq")
    )
    expected = GraphSession(supplier_graph).run(Query.parse(FUSED_RPQ)).rows()
    assert rows == expected
