"""Property tests: planner output == the naive nested-loop specification.

Random CRPQs are drawn from :func:`repro.workloads.random_crpq` — the
same generator the planner benchmark uses — across every shape the
generator knows (chains, stars with repeated variables, cycles,
disjoint cartesian components), mixing RPQ and data-RPQ atoms, Boolean
heads and self-loop atoms, and evaluated on random community graphs.
The planner (cost-ordered hash joins over seeded kernels) must agree
with :func:`repro.query.crpq.evaluate_crpq_naive` everywhere, and the
``blocks`` / ``sharded`` intra-query session modes must agree with the
sequential plans.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.engine import default_engine
from repro.engine.partition import sharded_product_relation
from repro.engine.product import seeded_product_relation
from repro.planner import execute_plan, plan_crpq
from repro.query.crpq import evaluate_crpq_naive
from repro.workloads import CRPQ_SHAPES, random_crpq

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

LABELS = ("a", "b")


def community(seed: int, num_nodes: int = 24):
    return generators.community_graph(
        3,
        num_nodes // 3,
        intra_edges_per_node=2,
        bridges_per_community=2,
        labels=("a",),
        bridge_label="b",
        rng=seed,
        domain_size=3,
    )


def assert_planner_matches_naive(graph, query, null_semantics=False):
    engine = default_engine()
    expected = evaluate_crpq_naive(graph, query, null_semantics=null_semantics, engine=engine)
    plan = plan_crpq(query, graph.label_index())
    actual = execute_plan(plan, graph, engine=engine, null_semantics=null_semantics)
    assert actual == expected, plan.explain()
    return expected


class TestRandomCrpqsMatchTheSpec:
    @pytest.mark.parametrize("shape", CRPQ_SHAPES)
    @pytest.mark.parametrize("seed", range(6))
    def test_shape_agreement(self, shape, seed):
        graph = community(seed * 7 + 1)
        query = random_crpq(
            LABELS,
            shape=shape,
            num_atoms=3,
            head_arity=2,
            data_atom_prob=0.3,
            closure_prob=0.25,
            self_loop_prob=0.25,
            rng=seed * 101 + 13,
        )
        assert_planner_matches_naive(graph, query)

    @pytest.mark.parametrize("seed", range(4))
    def test_boolean_heads(self, seed):
        graph = community(seed + 3)
        query = random_crpq(
            LABELS,
            shape="chain",
            num_atoms=2,
            head_arity=0,
            data_atom_prob=0.4,
            closure_prob=0.2,
            rng=seed + 50,
        )
        assert query.is_boolean()
        answers = assert_planner_matches_naive(graph, query)
        assert answers in (frozenset(), frozenset({()}))

    @pytest.mark.parametrize("seed", range(4))
    def test_null_semantics_agreement(self, seed):
        graph = community(seed + 11)
        query = random_crpq(
            LABELS,
            shape="chain",
            num_atoms=2,
            data_atom_prob=1.0,
            rng=seed + 77,
        )
        assert_planner_matches_naive(graph, query, null_semantics=True)

    def test_wide_head_with_repeated_variables(self):
        graph = community(29)
        query = random_crpq(
            LABELS, shape="star", num_atoms=4, head_arity=4, closure_prob=0.3, rng=4242
        )
        assert_planner_matches_naive(graph, query)


class TestIntraQueryModesAgree:
    @pytest.mark.parametrize("mode", ["blocks", "sharded"])
    @pytest.mark.parametrize("seed", range(3))
    def test_modes_match_sequential_plans(self, mode, seed):
        graph = community(seed + 5, num_nodes=30)
        query = Query.crpq(
            random_crpq(
                LABELS,
                shape="cycle",
                num_atoms=3,
                data_atom_prob=0.25,
                closure_prob=0.3,
                self_loop_prob=0.2,
                rng=seed + 900,
            )
        )
        sequential = GraphSession(graph).run(query).rows()
        policy = ExecutionPolicy(intra_query=mode, max_workers=3)
        assert GraphSession(graph, policy=policy).run(query).rows() == sequential

    def test_sharded_scans_agree_forked_and_in_process(self):
        graph = community(41, num_nodes=30)
        space = default_engine().space_for_atom(graph, "a.(a|b)*")
        sources = graph.label_index().nodes[:10]
        expected = seeded_product_relation(space, sources=sources)
        for processes in (False, True):
            assert sharded_product_relation(
                space, num_shards=2, processes=processes, sources=sources
            ) == expected


class TestSelfLoopRegression:
    """The historical bug: ``Atom(x, e, x)`` admitted pairs with u != v."""

    def test_naive_spec_only_admits_loops(self, toy_graph):
        from repro.query import Atom, ConjunctiveRPQ, rpq

        toy_graph.add_edge("alice", "knows", "alice")
        query = ConjunctiveRPQ(head=("x",), atoms=(Atom("x", rpq("knows"), "x"),))
        answers = {row[0].id for row in evaluate_crpq_naive(toy_graph, query)}
        assert answers == {"alice"}

    def test_planner_agrees_on_self_loops(self, toy_graph):
        from repro.query import Atom, ConjunctiveRPQ, rpq

        toy_graph.add_edge("bob", "knows", "bob")
        query = ConjunctiveRPQ(
            head=("x", "y"),
            atoms=(
                Atom("x", rpq("knows"), "y"),
                Atom("y", rpq("knows"), "y"),
            ),
        )
        expected = evaluate_crpq_naive(toy_graph, query)
        # bob now loops, so both (alice, bob) and (bob, bob) match —
        # but no pair whose y lacks a knows self-loop.
        assert {(a.id, b.id) for a, b in expected} == {("alice", "bob"), ("bob", "bob")}
        plan = plan_crpq(query, toy_graph.label_index())
        assert execute_plan(plan, toy_graph) == expected
