"""Benchmark the v2 statistics-driven adaptive planner against v1 static plans.

The workload is built to defeat edge-count-only estimation (the v1 cost
model): communities of a dense ``knows`` relation whose closure relation
is large, plus a skewed ``likes`` relation — a few hub nodes own almost
all the edges — whose two-step value-equality atom ``(likes.likes)=``
*looks* like the biggest atom in the query by edge count but is in fact
tiny, because the data values are nearly distinct and hub targets have
almost no outgoing ``likes`` edges.

The query is a cycle: ``ans(x, y, z) :- (x, knows+, y),
(y, (likes.likes)=, z), (z, knows+, x)``.  The v1 plan, pricing the
equality atom as the largest relation, defers it to the end — and joins
the two closures first, a near-cartesian intermediate of every
``(y, x, z)`` triple connected inside a community.  The v2 plan prices
the equality atom with the measured value-match selectivity, anchors
there, and runs both closures seeded by the handful of surviving
bindings; mid-join re-planning is the backstop when observations drift.

Both legs must return identical answers (their equivalence to the naive
specification is property-tested in ``tests/planner/test_adaptive.py``;
re-running the naive evaluator here would dwarf the benchmark).  CI
compares the means from BENCH_pr.json and fails when adaptive's speedup
over static drops below 2× (see the bench-smoke gate in ci.yml).
"""

from __future__ import annotations

import random

import pytest

from repro.datagraph import generators
from repro.datapaths import parse_ree
from repro.engine import default_engine
from repro.planner import execute_plan, graph_statistics, plan_crpq
from repro.query import Atom, ConjunctiveRPQ, rpq
from repro.query.data_rpq import DataRPQ

NUM_COMMUNITIES = 6
COMMUNITY_SIZE = 48
NUM_HUBS = 40
LIKES_PER_HUB = 160
STRAGGLER_LIKES_PROB = 0.3
DOMAIN_SIZE = 24


@pytest.fixture(scope="module")
def skewed_graph():
    """Dense ``knows`` communities plus a hub-skewed ``likes`` relation."""
    graph = generators.community_graph(
        NUM_COMMUNITIES,
        COMMUNITY_SIZE,
        intra_edges_per_node=3,
        bridges_per_community=2,
        labels=("knows",),
        bridge_label="bridge",
        rng=23,
        domain_size=DOMAIN_SIZE,
    )
    rng = random.Random(97)
    nodes = [node.id for node in graph.nodes]
    hubs = rng.sample(nodes, NUM_HUBS)
    hub_set = set(hubs)
    spokes = [node for node in nodes if node not in hub_set]
    for hub in hubs:
        for _ in range(LIKES_PER_HUB):
            graph.add_edge(hub, "likes", rng.choice(spokes))
    for spoke in spokes:
        if rng.random() < STRAGGLER_LIKES_PROB:
            graph.add_edge(spoke, "likes", rng.choice(spokes))
    graph.label_index()  # all legs share one prebuilt index
    return graph


@pytest.fixture(scope="module")
def skewed_query():
    # x is in the head: existential, the planner would fuse the two
    # closures into one atom and there would be no join order to get wrong.
    return ConjunctiveRPQ(
        head=("x", "y", "z"),
        atoms=(
            Atom("x", rpq("knows+"), "y"),
            Atom("y", DataRPQ(parse_ree("(likes.likes)=")), "z"),
            Atom("z", rpq("knows+"), "x"),
        ),
    )


@pytest.fixture(scope="module")
def plans_diverge(skewed_graph, skewed_query):
    """The whole point of the workload: statistics flip the anchor choice."""
    index = skewed_graph.label_index()
    static = plan_crpq(skewed_query, index)
    adaptive = plan_crpq(skewed_query, index, graph_statistics(skewed_graph))
    assert static.atom_order[0] != 1, "v1 must not anchor on the equality atom"
    assert adaptive.atom_order[0] == 1, "v2 must anchor on the equality atom"
    return static, adaptive


@pytest.fixture(scope="module")
def expected_answer(skewed_graph, skewed_query, plans_diverge):
    # The static plan's answer doubles as the warm-up run; the adaptive
    # leg must reproduce it bit for bit.  (Equivalence of *both* plans
    # to evaluate_crpq_naive is property-tested, not re-proven here.)
    static, _ = plans_diverge
    return execute_plan(static, skewed_graph, engine=default_engine(), adaptive=False)


def bench_planner_static(benchmark, skewed_graph, skewed_query, expected_answer):
    engine = default_engine()
    index = skewed_graph.label_index()

    def run():
        plan = plan_crpq(skewed_query, index)
        return execute_plan(plan, skewed_graph, engine=engine, adaptive=False)

    answer = benchmark.pedantic(run, rounds=1, iterations=1)
    assert answer == expected_answer


def bench_planner_adaptive(benchmark, skewed_graph, skewed_query, expected_answer):
    engine = default_engine()
    index = skewed_graph.label_index()

    def run():
        plan = plan_crpq(skewed_query, index, graph_statistics(skewed_graph))
        return execute_plan(plan, skewed_graph, engine=engine, adaptive=True)

    answer = benchmark.pedantic(run, rounds=1, iterations=1)
    assert answer == expected_answer
