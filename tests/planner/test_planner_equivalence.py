"""Property tests: planner output == the naive nested-loop specification.

Random CRPQs are drawn from :func:`repro.workloads.random_crpq` — the
same generator the planner benchmark uses — across every shape the
generator knows (chains, stars with repeated variables, cycles,
disjoint cartesian components), mixing RPQ and data-RPQ atoms, Boolean
heads and self-loop atoms, and evaluated on random community graphs.
The planner (cost-ordered hash joins over seeded kernels) must agree
with :func:`repro.query.crpq.evaluate_crpq_naive` everywhere.

The planner eliminates existential path variables before it plans
(chain fusion, live columns); ``evaluate_crpq_naive`` never does, so the
same comparison is the elimination's soundness check — swept over every
head arity and every kernel route by
:class:`TestEliminationMatchesTheSpec`, with the fusable and non-fusable
shapes pinned one by one in :class:`TestEliminationShapes`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_answers
from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.datagraph.compact import CompactLabelIndex
from repro.datapaths.ree import RegexWithEquality
from repro.engine import data as data_kernels
from repro.engine import default_engine
from repro.engine.partition import parallel_product_relation
from repro.engine.product import seeded_product_relation
from repro.planner import AtomScan, execute_plan, plan_crpq
from repro.query import parse_crpq
from repro.query.crpq import evaluate_crpq_naive
from repro.workloads import random_crpq
from repro.workloads.random_workloads import CRPQ_SHAPES

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
    expected = spec_answers(graph, Query.crpq(query), null_semantics)
    plan = plan_crpq(query, graph.label_index())
    actual = execute_plan(plan, graph, null_semantics=null_semantics)
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


class TestEliminationMatchesTheSpec:
    """Eliminated plan == naive spec, for every head and on every route."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(CRPQ_SHAPES),
        graph_seed=st.integers(0, 5),
        query_seed=st.integers(0, 2000),
        num_atoms=st.integers(1, 4),
        head_arity=st.integers(0, 6),  # 0 … every variable a 4-atom shape mentions
        null_semantics=st.booleans(),
        backend=st.sampled_from(["compact", "dict", "sql"]),
    )
    def test_random_shapes_heads_and_routes(
        self, shape, graph_seed, query_seed, num_atoms, head_arity, null_semantics, backend
    ):
        graph = community(graph_seed * 5 + 2, num_nodes=18)
        query = random_crpq(
            LABELS,
            shape=shape,
            num_atoms=num_atoms,
            head_arity=head_arity,
            data_atom_prob=0.25,
            closure_prob=0.3,
            self_loop_prob=0.2,
            rng=query_seed,
        )
        expected = evaluate_crpq_naive(graph, query, null_semantics)
        session = GraphSession(graph, policy=ExecutionPolicy(backend=backend))
        plan = Query.crpq(query)
        assert session._route(plan).kernel == backend
        rows = session.run(plan, null_semantics=null_semantics).rows()
        assert rows == expected, session.explain(plan)

    def test_heads_that_repeat_a_variable(self):
        graph = community(8)
        for text in (
            "x, x :- (x, a, y), (y, b, z)",
            "z, x, z :- (x, a+, y), (y, b, z)",
            "y, y :- (x, a, y)",
        ):
            assert_planner_matches_naive(graph, parse_crpq(text))


    @pytest.mark.parametrize("null_semantics", [False, True], ids=["plain", "nulls"])
    @pytest.mark.parametrize(
        "text",
        [
            "x, y :- (x, ree:((a|b)+)!=, y)",
            "x, z :- (x, ree:(a.a)=, y), (y, b, z)",
            "x, y :- (x, ree:((a)!=)+, y), (y, b, z), (z, a, w)",
        ],
    )
    def test_an_unseeded_ree_atom_answers_from_the_algebra_rows(
        self, text, null_semantics, monkeypatch
    ):
        """A sequential route scans an REE atom no join has bound the
        sources of off the algebra's bit rows, over the index the route
        names (bound targets are a row selection); the plain atoms beside
        it run on the same algebra and index; the answer is the spec's."""
        calls = []
        ree_relation = data_kernels.ree_relation

        def counting(index, expression, null_semantics=False, sources=None, memo=None):
            calls.append((index, expression, sources))
            return ree_relation(index, expression, null_semantics, sources, memo)

        graph = community(12)
        query = parse_crpq(text)
        expected = evaluate_crpq_naive(graph, query, null_semantics)
        monkeypatch.setattr(data_kernels, "ree_relation", counting)
        for backend in ("compact", "dict"):
            session = GraphSession(graph, policy=ExecutionPolicy(backend=backend))
            rows = session.run(Query.crpq(query), null_semantics=null_semantics).rows()
            assert rows == expected, session.explain(Query.crpq(query))
            assert len(calls) == len(plan_crpq(query).eliminated.atoms)  # one scan each
            for index, _expression, _sources in calls:
                assert isinstance(index, CompactLabelIndex) == (backend == "compact")
            ((_index, _ree, sources),) = [
                call for call in calls if isinstance(call[1], RegexWithEquality)
            ]
            assert sources is None
            calls.clear()


def eliminated_atoms(text):
    plan = plan_crpq(parse_crpq(text))
    return [str(atom) for atom in plan.eliminated.atoms], plan


class TestEliminationShapes:
    """What chain fusion removes, and every shape it must leave alone."""

    NOT_FUSABLE = {
        "variable in the head": "x, y :- (x, a, y), (y, b, z)",
        "three occurrences": ":- (x, a, y), (y, b, z), (y, a, w)",
        "target of both atoms": "x, z :- (x, a, y), (z, b, y)",
        "source of both atoms": "x, z :- (y, a, x), (y, b, z)",
        "a self-loop atom beside a neighbour": "x :- (x, a, y), (y, b, y)",
        "both occurrences in one atom": ":- (y, a, y)",
        "a data-RPQ neighbour": "x, z :- (x, ree:(a)=, y), (y, b, z)",
        "a data-RPQ neighbour on the other side": "x, z :- (x, a, y), (y, rem:!r.(b[r=])+, z)",
    }

    @pytest.mark.parametrize("case", sorted(NOT_FUSABLE))
    def test_shapes_that_never_fuse(self, case):
        query = parse_crpq(self.NOT_FUSABLE[case])
        plan = plan_crpq(query)
        assert plan.eliminated == query
        assert not any(line.startswith("fused") for line in plan.rewrites)
        assert_planner_matches_naive(community(4), query)

    def test_a_chain_collapses_to_one_atom(self):
        atoms, plan = eliminated_atoms("x, w :- (x, a+, y), (y, b, z), (z, a, w)")
        assert len(atoms) == 1 and plan.atom_order == (0,)
        assert plan.eliminated == parse_crpq("x, w :- (x, a+.b.a, w)")
        assert isinstance(plan.root.child, AtomScan) and plan.root.child.emits == ("x", "w")
        assert plan.rewrites == (f"fused #0·#1·#2 → #0 {plan.eliminated.atoms[0]}",)
        assert_planner_matches_naive(community(6), plan.query)

    def test_fusion_is_order_independent(self):
        forward, _ = eliminated_atoms("x, z :- (x, a, y), (y, b, z)")
        backward, _ = eliminated_atoms("x, z :- (y, b, z), (x, a, y)")
        assert forward == backward == ["(x, (a·b), z)"]

    def test_a_boolean_head_collapses_to_an_existence_test(self):
        atoms, plan = eliminated_atoms(":- (x, a, y), (y, b+, z)")
        assert len(atoms) == 1
        assert plan.emits == ((),) and plan.root.child.columns == ()
        assert "emits ()" in plan.explain()
        graph = community(5)
        satisfied = assert_planner_matches_naive(graph, plan.query)
        unsatisfied = assert_planner_matches_naive(graph, parse_crpq(":- (x, b.b.b.b.b.b, y)"))
        assert (satisfied, unsatisfied) == (frozenset({()}), frozenset())

    def test_a_cycle_fuses_into_a_self_loop_atom(self):
        atoms, plan = eliminated_atoms("x :- (x, a, y), (y, a, x)")
        assert atoms == ["(x, (a·a), x)"]
        assert "Filter x = x′" in plan.explain()
        assert_planner_matches_naive(community(7), plan.query)

    def test_a_dead_far_endpoint_makes_the_scan_one_column(self):
        _, plan = eliminated_atoms("x, z :- (x, a, y), (y, a+, z), (z, b, r)")
        assert [str(atom) for atom in plan.eliminated.atoms] == [
            "(x, (a·(a)+), z)", "(z, b, r)",
        ]
        assert plan.emits == (("x", "z"), ("z",))
        assert plan.rewrites == (
            "fused #0·#1 → #0 (x, (a·(a)+), z)",
            "#1 (z, b, r) emits (z)",
        )
        assert_planner_matches_naive(community(9), plan.query)

    def test_cartesian_components_keep_their_live_columns_only(self):
        _, plan = eliminated_atoms("x, u :- (x, a, y), (u, b, v)")
        assert plan.emits == (("x",), ("u",))
        assert_planner_matches_naive(community(10), plan.query)

    def test_trace_and_order_index_the_eliminated_atoms(self):
        from repro.planner import PlanTrace

        graph = community(11)
        query = parse_crpq("x, z :- (x, a, y), (y, a+, z), (z, b, r), (r, a, r)")
        plan = plan_crpq(query, graph.label_index())
        trace = PlanTrace()
        execute_plan(plan, graph, trace=trace)
        count = len(plan.eliminated.atoms)
        assert count < len(query.atoms)
        assert sorted(plan.atom_order) == list(range(count))
        assert sorted(trace.atom_order) == list(range(count))
        assert {index for index, *_ in trace.steps} <= set(range(count))


class TestForcedBackendsAgree:
    @pytest.mark.parametrize("backend", ["dict", "sql"])
    @pytest.mark.parametrize("seed", range(3))
    def test_backends_match_default_plans(self, backend, seed):
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
        expected = GraphSession(graph).run(query).rows()
        policy = ExecutionPolicy(backend=backend)
        assert GraphSession(graph, policy=policy).run(query).rows() == expected


class TestSourceBlockScans:
    """The source-block driver, which no route reaches, called directly."""

    def test_block_scans_agree_forked_and_threaded(self):
        graph = community(41, num_nodes=30)
        space = default_engine().space_for_atom(graph, "a.(a|b)*")
        sources = graph.label_index().nodes[:10]
        expected = seeded_product_relation(space, sources=sources)
        for backend in ("thread", "fork"):
            assert parallel_product_relation(
                space, num_blocks=2, backend=backend, sources=sources
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
