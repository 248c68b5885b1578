"""The forced ``blocks`` driver answers exactly as the default route.

Only ``ExecutionPolicy.intra_query`` resolves it, so this is the route
that still forks: ``blocks`` fans source blocks out over forked workers.
Every answer here is compared with a default (sequential) session or with the
unrestricted relation filtered after the fact — seeded evaluation only
changes *where* the restriction happens, never what comes back.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.engine import NfaProductSpace, default_engine, product
from repro.engine.partition import parallel_product_relation, partitioned_product_relation
from repro.query.crpq import evaluate_crpq_naive

#: The ``blocks`` driver's worker budgets: even blocks, and more (uneven)
#: blocks than a small host has cores.
BUDGETS = {"blocks": 2, "blocks-5": 5}

QUERIES = [
    Query.parse("a.(b|c)+"),
    Query.parse("(a|b)*"),
    Query.parse("((a|c))=", dialect="ree"),
    Query.parse("!x.((a|b)[x!=])+", dialect="rem"),
]

#: Plain RPQs for the engine-level seeded drivers.
RPQS = ["a.(b|c)+", "(a|b)*", "(a|c)+", "c.a*"]


def make_graph():
    return generators.community_graph(
        3, 40, intra_edges_per_node=3, bridges_per_community=4,
        labels=("a", "b"), bridge_label="c", rng=11, domain_size=4,
    )


@pytest.fixture(scope="module")
def graph():
    return make_graph()


def forced(graph, budget: str) -> GraphSession:
    policy = ExecutionPolicy(intra_query="blocks", max_workers=BUDGETS[budget])
    return GraphSession(graph, policy=policy)


def space_of(graph, text: str) -> NfaProductSpace:
    return NfaProductSpace(graph.label_index(), default_engine().compile_rpq(text))


class TestSessionsOnForcedDrivers:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("query", QUERIES, ids=[str(q.plan) for q in QUERIES])
    def test_matches_the_default_route(self, graph, budget, query):
        session = forced(graph, budget)
        assert session._route(query).driver == "blocks"
        assert session._route(query).workers == BUDGETS[budget]
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_null_semantics_reaches_the_driver(self, graph, budget):
        query = Query.parse("((a|b|c)+)=", dialect="ree")
        for null_semantics in (False, True):
            expected = GraphSession(graph).run(query, null_semantics=null_semantics).pairs()
            actual = forced(graph, budget).run(query, null_semantics=null_semantics).pairs()
            assert actual == expected, null_semantics

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_empty_relation(self, graph, budget):
        assert forced(graph, budget).run(Query.parse("nolabel")).pairs() == frozenset()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_point_queries_agree_with_the_relation(self, graph, budget):
        # Point queries take the sequential point route even under a
        # forced driver; their answers are the relation's slices.
        query = QUERIES[0]
        session = forced(graph, budget)
        full = session.run(query).pairs()
        for source in list(graph.node_ids)[:4]:
            expected = frozenset(v for u, v in full if u.id == source)
            assert session.targets(query, source) == expected
            for target in list(graph.node_ids)[:5]:
                assert session.holds(query, source, target) == (graph.node(target) in expected)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("shape", ["chain", "cycle", "star"])
    def test_crpq_seeded_scans_match_the_spec(self, graph, budget, shape):
        texts = {
            "chain": "x, y :- (x, a+, z), (z, c, w), (w, b, y)",
            "cycle": "x, y :- (x, a, y), (y, b+, z), (z, a|c, x)",
            "star": "x, y, w :- (x, c, z), (y, a, z), (w, b+, z)",
        }
        query = Query.parse(texts[shape], dialect="crpq")
        assert forced(graph, budget).run(query).rows() == evaluate_crpq_naive(graph, query.plan)


class TestWritesBetweenForcedQueries:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_insert_only_batch(self, budget):
        graph = make_graph()
        session = forced(graph, budget)
        query = QUERIES[0]
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()
        with graph.batch() as batch:
            batch.add_node("patched-node", 99)
            batch.add_edge("patched-node", "a", next(iter(graph.node_ids)))
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_removal_batch(self, budget):
        graph = make_graph()
        session = forced(graph, budget)
        query = QUERIES[1]
        session.run(query).pairs()
        with graph.batch() as batch:
            batch.remove_node(next(iter(graph.node_ids)))
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_consecutive_batches(self, budget):
        graph = make_graph()
        session = forced(graph, budget)
        query = QUERIES[0]
        session.run(query).pairs()
        anchor = next(iter(graph.node_ids))
        with graph.batch() as batch:
            batch.add_node("compose-1", 5)
            batch.add_edge("compose-1", "a", anchor)
        with graph.batch() as batch:
            batch.add_node("compose-2", 6)
            batch.add_edge("compose-2", "b", "compose-1")
        assert session.run(query).pairs() == GraphSession(graph).run(query).pairs()


class TestSeededDrivers:
    """``partitioned_product_relation`` with *sources* / *targets*: the
    per-atom semijoin form the CRPQ planner's seeded scans use."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("text", RPQS)
    def test_sources_restrict_the_relation(self, graph, budget, text):
        workers = BUDGETS[budget]
        space = space_of(graph, text)
        full = partitioned_product_relation(space, "blocks", workers=workers)
        assert full == product.product_relation(space)
        sources = set(list(graph.node_ids)[::5])
        seeded = partitioned_product_relation(
            space, "blocks", workers=workers, sources=sorted(sources)
        )
        assert seeded == {pair for pair in full if pair[0] in sources}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("text", RPQS[:2])
    def test_targets_restrict_the_relation(self, graph, budget, text):
        workers = BUDGETS[budget]
        space = space_of(graph, text)
        full = partitioned_product_relation(space, "blocks", workers=workers)
        targets = {target for _, target in list(full)[: max(1, len(full) // 7)]}
        masked = partitioned_product_relation(
            space, "blocks", workers=workers, targets=targets
        )
        assert masked == {pair for pair in full if pair[1] in targets}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_sources_and_targets_compose(self, graph, budget):
        workers = BUDGETS[budget]
        space = space_of(graph, "(a|c)+")
        full = partitioned_product_relation(space, "blocks", workers=workers)
        source, target = next(iter(full))
        point = partitioned_product_relation(
            space, "blocks", workers=workers, sources=[source], targets={target}
        )
        assert point == {(source, target)}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_empty_restrictions_yield_nothing(self, graph, budget):
        workers = BUDGETS[budget]
        space = space_of(graph, "a")
        assert partitioned_product_relation(space, "blocks", workers=workers, sources=[]) == set()
        assert partitioned_product_relation(space, "blocks", workers=workers, targets=set()) == set()

    @pytest.mark.parametrize("text", RPQS)
    def test_forked_and_threaded_blocks_agree(self, graph, text):
        # The fork backend ships the space to one worker per block by
        # copy-on-write; the thread backend (hosts without fork) shares
        # it.  Same blocks, same answers.
        space = space_of(graph, text)
        threaded = parallel_product_relation(space, num_blocks=4, backend="thread")
        forked = parallel_product_relation(space, num_blocks=4, backend="fork")
        assert forked == threaded == product.product_relation(space)
