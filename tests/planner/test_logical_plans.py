"""Structural tests of the CRPQ planner: plan IR, cost ordering, explain."""

from __future__ import annotations

import random

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import GraphBuilder, generators
from repro.exceptions import ParseError
from repro.planner import (
    AtomScan,
    CrpqPlan,
    Filter,
    HashJoin,
    Project,
    SeededScan,
    atom_estimate,
    plan_crpq,
    regex_estimate,
)
from repro.query import Atom, ConjunctiveRPQ, equality_rpq, parse_crpq, rpq
from repro.regular import parse_regex

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


@pytest.fixture
def skewed_graph():
    """Many ``a`` edges, exactly one ``b`` edge: the planner must anchor on ``b``."""
    builder = GraphBuilder(name="skewed")
    for i in range(12):
        builder.node(f"n{i}", i % 3)
    for i in range(11):
        builder.edge(f"n{i}", "a", f"n{i + 1}")
        if i >= 1:
            builder.edge(f"n{i}", "a", f"n{i - 1}")
    builder.edge("n0", "b", "n5")
    return builder.build()


class TestCostModel:
    def test_letter_estimate_is_edge_count(self, skewed_graph):
        index = skewed_graph.label_index()
        assert regex_estimate(parse_regex("b"), index) == 1.0
        assert regex_estimate(parse_regex("a"), index) == 21.0

    def test_union_sums_and_concat_joins(self, skewed_graph):
        index = skewed_graph.label_index()
        a = regex_estimate(parse_regex("a"), index)
        b = regex_estimate(parse_regex("b"), index)
        assert regex_estimate(parse_regex("a|b"), index) == a + b
        assert regex_estimate(parse_regex("a.b"), index) == pytest.approx(a * b / 12)

    def test_closures_are_capped_by_complete_relation(self, skewed_graph):
        index = skewed_graph.label_index()
        assert regex_estimate(parse_regex("(a|b)*"), index) <= 144.0
        assert regex_estimate(parse_regex("a+"), index) > regex_estimate(
            parse_regex("a"), index
        )

    def test_data_atom_estimate_uses_labels(self, skewed_graph):
        index = skewed_graph.label_index()
        selective = atom_estimate(Atom("x", equality_rpq("(b)="), "y"), index)
        broad = atom_estimate(Atom("x", equality_rpq("((a|b)+)="), "y"), index)
        assert selective < broad

    def test_no_index_means_unit_estimates(self):
        assert atom_estimate(Atom("x", rpq("a+"), "y"), None) == 1.0


class TestPlanShapes:
    def test_cheapest_atom_anchors_the_join_order(self, skewed_graph):
        query = ConjunctiveRPQ(
            head=("x", "y", "z"),  # y in the head: an existential y would fuse the atoms
            atoms=(
                Atom("x", rpq("a+"), "y"),
                Atom("y", rpq("b"), "z"),
            ),
        )
        plan = plan_crpq(query, skewed_graph.label_index())
        assert plan.atom_order == (1, 0)
        join = plan.root.child
        assert isinstance(join, HashJoin)
        assert isinstance(join.left, AtomScan) and join.left.index == 1
        # The expensive closure atom is seeded by the bound variable y.
        assert isinstance(join.right, SeededScan)
        assert join.right.seed_targets == "y"
        assert join.keys == ("y",)

    def test_connected_atoms_beat_cheaper_disconnected_ones(self, skewed_graph):
        query = ConjunctiveRPQ(
            head=("x", "y", "u"),
            atoms=(
                Atom("x", rpq("a"), "y"),      # anchor? no: b is cheaper
                Atom("u", rpq("b"), "v"),      # cheapest, disconnected from x/y
                Atom("y", rpq("a.a"), "z"),    # connected to the anchor
            ),
        )
        plan = plan_crpq(query, skewed_graph.label_index())
        # b-atom opens; then nothing is connected to {u, v}, so the
        # cheapest remaining (the single a-atom) joins as a cartesian
        # bridge, and the chain atom follows connected.
        assert plan.atom_order == (1, 0, 2)
        outer = plan.root.child
        assert isinstance(outer, HashJoin) and outer.keys == ("y",)
        inner = outer.left
        assert isinstance(inner, HashJoin) and inner.keys == ()

    def test_self_loop_atoms_scan_through_a_filter(self, skewed_graph):
        query = ConjunctiveRPQ(head=("x",), atoms=(Atom("x", rpq("a"), "x"),))
        plan = plan_crpq(query, skewed_graph.label_index())
        assert isinstance(plan.root, Project)
        loop = plan.root.child
        assert isinstance(loop, Filter)
        assert loop.left == "x" and loop.right == "x′"
        assert loop.columns == ("x",)

    def test_seeded_self_loop_seeds_both_sides(self, skewed_graph):
        query = ConjunctiveRPQ(
            head=("x", "y"),
            atoms=(
                Atom("x", rpq("b"), "y"),
                Atom("y", rpq("a"), "y"),
            ),
        )
        plan = plan_crpq(query, skewed_graph.label_index())
        join = plan.root.child
        scan = join.right.child
        assert isinstance(scan, SeededScan)
        assert scan.seed_sources == "y" and scan.seed_targets == "y"

    def test_both_endpoints_bound_seed_both_sides(self, skewed_graph):
        query = ConjunctiveRPQ(
            head=("x", "y"),
            atoms=(
                Atom("x", rpq("b"), "y"),
                Atom("x", rpq("a+"), "y"),
            ),
        )
        plan = plan_crpq(query, skewed_graph.label_index())
        scan = plan.root.child.right
        assert isinstance(scan, SeededScan)
        assert scan.seed_sources == "x" and scan.seed_targets == "y"
        assert plan.root.child.keys == ("x", "y")

    def test_plans_are_hashable_and_stable(self, skewed_graph):
        query = ConjunctiveRPQ(head=("x",), atoms=(Atom("x", rpq("a"), "y"),))
        index = skewed_graph.label_index()
        first, second = plan_crpq(query, index), plan_crpq(query, index)
        assert first == second and hash(first) == hash(second)
        assert isinstance(first, CrpqPlan)
        assert first.stats_version == index.version


class TestExplain:
    def test_explain_shows_join_order_and_operators(self, skewed_graph):
        query = parse_crpq("x, y, z :- (x, a+, y), (y, b, z)")
        text = Query.crpq(query).explain(skewed_graph)
        assert "join order: #1 → #0" in text
        assert "AtomScan #1" in text
        assert "SeededScan #0" in text and "targets←y" in text
        assert "HashJoin on (y)" in text
        assert "Project [x, y, z]" in text

    def test_explain_without_graph_follows_written_order(self):
        query = parse_crpq("x, y, z :- (x, a+, y), (y, b, z)")
        text = Query.crpq(query).explain()
        assert "join order: #0 → #1" in text

    def test_session_explain_uses_the_cached_plan(self, skewed_graph):
        session = GraphSession(skewed_graph)
        query = Query.parse("x, y, z :- (x, a+, y), (y, b, z)", dialect="crpq")
        text = session.explain(query)
        assert "join order: #1 → #0" in text
        assert session._crpq_plan(query) is session._crpq_plan(query)
        # A mutation invalidates the cached plan along with the stats.
        stale = session._crpq_plan(query)
        skewed_graph.add_node("fresh", 0)
        assert session._crpq_plan(query) is not stale

    def test_query_explain_prints_the_plan_the_session_runs(self):
        # Dense `knows` communities plus a hub-skewed `likes` relation: the
        # statistics catalogue reorders the joins, so a plan priced on
        # edge counts alone would print a different order.
        graph = generators.community_graph(
            6, 48, labels=("knows",), bridge_label="bridge", rng=23, domain_size=24
        )
        rng = random.Random(97)
        nodes = [node.id for node in graph.nodes]
        hubs = rng.sample(nodes, 40)
        hub_set = set(hubs)
        spokes = [node for node in nodes if node not in hub_set]
        for hub in hubs:
            for _ in range(160):
                graph.add_edge(hub, "likes", rng.choice(spokes))
        for spoke in spokes:
            if rng.random() < 0.3:
                graph.add_edge(spoke, "likes", rng.choice(spokes))
        query = Query.parse(
            "x, y, z :- (x, knows+, y), (y, ree:(likes.likes)=, z), (z, knows+, x)",
            dialect="crpq",
        )
        header, body = GraphSession(graph).explain(query).split("\n", 1)
        assert header.startswith("route: compact")
        assert query.explain(graph) == body

    def test_non_crpq_kinds_explain_their_fixed_strategy(self, skewed_graph):
        rpq_text = Query.parse("a.b").explain(skewed_graph)
        assert rpq_text.startswith("rpq: bit-row algebra")
        assert "point queries run the compiled ε-free NFA" in rpq_text
        assert "register" in Query.parse("(a)=", dialect="ree").explain()
        for text, dialect in (("a*.b-", "gxpath-path"), ("<a*.b>", "gxpath-node")):
            gxpath_text = Query.parse(text, dialect=dialect).explain(skewed_graph)
            assert "bit-row algebra" in gxpath_text and "ClosureSpace" not in gxpath_text

    def test_boolean_head_renders(self, skewed_graph):
        text = GraphSession(skewed_graph).explain(
            Query.parse(":- (x, a, y)", dialect="crpq")
        )
        assert "Project [] (boolean)" in text


class TestParseCrpqDialect:
    def test_parse_roundtrip_through_query(self):
        query = Query.parse("x, y :- (x, a.b, z), (z, ree:(a)=, y)", dialect="crpq")
        assert query.arity == 2
        assert len(query.plan.atoms) == 2

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_crpq("x, y (x, a, y)")
        with pytest.raises(ParseError):
            parse_crpq("x :- (x, a)")
        with pytest.raises(ParseError):
            parse_crpq("x :- ")
        with pytest.raises(ParseError):
            parse_crpq("x :- (x y, a, z)")


class TestExecutionPolicyIntegration:
    def test_crpq_results_cached_and_invalidated(self, skewed_graph):
        session = GraphSession(skewed_graph)
        query = Query.parse("x, z :- (x, b, y), (y, a, z)", dialect="crpq")
        before = session.run(query).rows()
        hits_before = session.stats()["results"].hits
        assert session.run(query).rows() == before
        assert session.stats()["results"].hits == hits_before + 1

    @pytest.mark.parametrize("backend", ["dict", "sql"])
    def test_forced_backends_share_cache_shape(self, skewed_graph, backend):
        query = Query.parse("x, z :- (x, b, y), (y, a+, z)", dialect="crpq")
        expected = GraphSession(skewed_graph).run(query).rows()
        session = GraphSession(skewed_graph, policy=ExecutionPolicy(backend=backend))
        assert session.run(query).rows() == expected
        assert session.run(query).rows() == expected
        assert session.stats()["results"].hits == 1
