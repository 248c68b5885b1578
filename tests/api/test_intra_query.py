"""Forced intra-query drivers and the point-workload cache.

A session under every ``intra_query`` mode (off / the forced
source-block driver) returns exactly the answers of the naive spec
evaluators across all five dialects and random graphs.  RPQs ride the
NFA product and data RPQs the register product, so the agreement
properties here drive both through the ``blocks`` driver, including REM
register valuations with one source per block; GXPath declines the
driver (it runs on bit rows, sequentially) and must still answer the
same.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import DataGraph, generators
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.query import (
    equality_rpq,
    evaluate_data_rpq_naive,
    evaluate_rpq_naive,
    memory_rpq,
    rpq,
)

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

#: One query text per dialect, exercised under every intra-query mode.
DIALECT_TEXTS = {
    "rpq": "a.(a|b)*.b",
    "ree": "(a|b)* . ((a|b)+)= . (a|b)*",
    "rem": "!x.((a|b)[x!=])+",
    "gxpath-node": "<a.[<b>]>",
    "gxpath-path": "a* . (b)!=",
}

#: A forced driver is forced: even tiny random graphs take it.
MODES = [
    ExecutionPolicy(),
    ExecutionPolicy(intra_query="blocks", max_workers=2),
]

graphs = st.builds(
    lambda size, seed: generators.random_graph(
        size, size * 2, labels=("a", "b"), rng=seed, domain_size=3
    ),
    size=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _policy_label(policy):
    return policy.intra_query


class TestModeAgreement:
    @settings(max_examples=20, deadline=None)
    @given(graph=graphs)
    def test_rpq_matches_naive_under_every_mode(self, graph):
        text = DIALECT_TEXTS["rpq"]
        expected = evaluate_rpq_naive(graph, rpq(text))
        for policy in MODES:
            session = GraphSession(graph, policy=policy)
            assert session.run(Query.rpq(text)).pairs() == expected, _policy_label(policy)

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs)
    def test_ree_and_rem_match_naive_under_every_mode(self, graph):
        for dialect, spec in (
            ("ree", equality_rpq(DIALECT_TEXTS["ree"])),
            ("rem", memory_rpq(DIALECT_TEXTS["rem"])),
        ):
            expected = evaluate_data_rpq_naive(graph, spec)
            for policy in MODES:
                session = GraphSession(graph, policy=policy)
                plan = Query.parse(DIALECT_TEXTS[dialect], dialect)
                assert session.run(plan).pairs() == expected, (dialect, _policy_label(policy))

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs)
    def test_gxpath_and_crpq_agree_with_sequential_under_every_mode(self, graph):
        plans = [
            Query.parse(DIALECT_TEXTS["gxpath-node"], "gxpath-node"),
            Query.parse(DIALECT_TEXTS["gxpath-path"], "gxpath-path"),
            Query.crpq(("x", "y"), [("x", "a.(a|b)*", "z"), ("z", "b", "y")]),
        ]
        baseline = GraphSession(graph)
        for plan in plans:
            expected = baseline.run(plan).rows()
            for policy in MODES[1:]:
                session = GraphSession(graph, policy=policy)
                assert session.run(plan).rows() == expected, (str(plan), _policy_label(policy))

    def test_only_a_forced_driver_runs_on_small_graphs(self):
        graph = generators.random_graph(10, 20, labels=("a", "b"), rng=4)
        plan = Query.rpq("a.(a|b)*")
        routed = GraphSession(graph)
        forced = GraphSession(graph, policy=ExecutionPolicy(intra_query="blocks"))
        assert routed._route(plan).driver == "sequential"
        assert forced._route(plan).driver == "blocks"
        assert forced.run(plan).pairs() == routed.run(plan).pairs()

    def test_partitioned_answers_share_the_result_cache(self):
        graph = generators.random_graph(80, 200, labels=("a", "b"), rng=9)
        session = GraphSession(
            graph,
            policy=ExecutionPolicy(intra_query="blocks"),
        )
        first = session.run("a.(a|b)*.b").pairs()
        assert session.run("a.(a|b)*.b").pairs() == first
        assert session.stats()["results"].hits >= 1

    def test_unknown_intra_query_mode_rejected(self):
        with pytest.raises(EvaluationError):
            ExecutionPolicy(intra_query="quantum")


class TestOneSourcePerBlock:
    """The ``blocks`` driver is correct with one source per block — for
    register valuations, not just plain RPQs."""

    def chain_with_values(self, values):
        graph = DataGraph(alphabet={"a"})
        for position, value in enumerate(values):
            graph.add_node(f"n{position}", value)
        for position in range(len(values) - 1):
            graph.add_edge(f"n{position}", "a", f"n{position + 1}")
        return graph

    def test_rem_valuations_with_one_source_per_block(self):
        graph = self.chain_with_values([1, 2, 1, 3, 1, 2])
        spec = memory_rpq("!x.(a[x!=])+")
        expected = evaluate_data_rpq_naive(graph, spec)
        policy = ExecutionPolicy(intra_query="blocks", max_workers=graph.num_nodes)
        session = GraphSession(graph, policy=policy)
        answers = session.run(Query.data_rpq(spec.expression)).pairs()
        assert answers == expected
        # sanity: the relation genuinely depends on the register contents
        ids = {(u.id, v.id) for u, v in answers}
        assert ("n0", "n1") in ids and ("n0", "n2") not in ids

    def test_gxpath_declines_the_blocks_driver(self):
        graph = self.chain_with_values([1] * 7)
        plan = Query.parse("a*", "gxpath-path")
        expected = GraphSession(graph).run(plan).rows()
        policy = ExecutionPolicy(intra_query="blocks", max_workers=graph.num_nodes)
        session = GraphSession(graph, policy=policy)
        route = session._route(plan)
        assert route.driver == "sequential"
        assert "intra_query='blocks' declined" in route.reason
        assert session.run(plan).rows() == expected


class TestPointCache:
    def graph(self):
        return generators.random_graph(30, 90, labels=("a", "b"), rng=21, domain_size=4)

    def test_targets_match_the_full_relation(self):
        graph = self.graph()
        session = GraphSession(graph)
        relation = session.run("a.(a|b)*").pairs()
        for node in graph.node_ids:
            expected = frozenset(v for u, v in relation if u.id == node)
            assert session.targets("a.(a|b)*", node) == expected

    def test_repeat_questions_hit_the_point_cache(self):
        session = GraphSession(self.graph())
        session.targets("a.(a|b)*", "n0")
        before = session.stats()["points"].hits
        session.targets("a.(a|b)*", "n0")
        assert session.stats()["points"].hits == before + 1

    def test_point_queries_do_not_materialise_the_full_relation(self):
        session = GraphSession(self.graph())
        session.targets("a.(a|b)*", "n0")
        assert session.stats()["results"].size == 0

    def test_holds_uses_the_point_path_for_rpqs(self):
        graph = self.graph()
        session = GraphSession(graph)
        relation = GraphSession(graph, policy=ExecutionPolicy(cache_results=False)).run(
            "a.(a|b)*"
        ).pairs()
        some_pair = next(iter(relation))
        assert session.holds("a.(a|b)*", some_pair[0].id, some_pair[1].id)
        assert session.stats()["results"].size == 0  # no full relation computed
        answer_ids = {(u.id, v.id) for u, v in relation}
        non_pairs = [
            (u, v)
            for u in graph.node_ids
            for v in graph.node_ids
            if (u, v) not in answer_ids
        ]
        if non_pairs:
            u, v = non_pairs[0]
            assert not session.holds("a.(a|b)*", u, v)

    def test_holds_prefers_a_cached_full_relation(self):
        session = GraphSession(self.graph())
        relation = session.run("a.(a|b)*").pairs()
        some_pair = next(iter(relation))
        before = session.stats()["points"].misses
        assert session.holds("a.(a|b)*", some_pair[0].id, some_pair[1].id)
        assert session.stats()["points"].misses == before  # served from results

    def test_mutation_invalidates_point_answers(self):
        graph = generators.chain(2, labels=("a",))
        session = GraphSession(graph)
        assert {node.id for node in session.targets("a.a", "n0")} == {"n2"}
        graph.remove_edge("n1", "a", "n2")
        assert session.targets("a.a", "n0") == frozenset()

    def test_targets_rejects_non_binary_plans_and_unknown_sources(self):
        session = GraphSession(self.graph())
        with pytest.raises(EvaluationError):
            session.targets(Query.gxpath("<a>"), "n0")
        with pytest.raises(UnknownNodeError):
            session.targets("a", "no-such-node")

    def test_targets_for_data_queries_filter_the_relation(self):
        graph = self.graph()
        session = GraphSession(graph)
        plan = Query.parse("((a|b)+)=", "ree")
        relation = session.run(plan).pairs()
        for node in list(graph.node_ids)[:5]:
            expected = frozenset(v for u, v in relation if u.id == node)
            assert session.targets(plan, node) == expected

    def test_clear_cache_drops_point_answers(self):
        session = GraphSession(self.graph())
        session.targets("a", "n0")
        assert session.stats()["points"].size == 1
        session.clear_cache()
        assert session.stats()["points"].size == 0
