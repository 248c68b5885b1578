"""GraphSession: uniform results, the versioned cache, batched execution."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import DataGraph, GraphBuilder, generators
from repro.datagraph.values import NULL
from repro.exceptions import EvaluationError
from repro.experiments.e10_query_eval import batch_queries

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def diamond_graph():
    return (
        GraphBuilder(name="diamond")
        .node("a", 1).node("b", 2).node("c", 2).node("d", 1)
        .edge("a", "r", "b").edge("a", "r", "c")
        .edge("b", "s", "d").edge("c", "s", "d")
        .build()
    )


class TestResultShapes:
    def test_pairs_nodes_holds_count(self):
        session = GraphSession(diamond_graph())
        result = session.run(Query.rpq("r.s"))
        assert {(u.id, v.id) for u, v in result.pairs()} == {("a", "d")}
        assert result.count() == len(result) == 1
        assert result.holds("a", "d") and not result.holds("a", "b")
        node_result = session.run(Query.gxpath("<r>"))
        assert {node.id for node in node_result.nodes()} == {"a"}
        assert node_result.holds("a") and not node_result.holds("d")

    def test_shape_errors(self):
        session = GraphSession(diamond_graph())
        with pytest.raises(EvaluationError):
            session.run(Query.gxpath("<r>")).pairs()
        with pytest.raises(EvaluationError):
            session.run(Query.rpq("r")).nodes()
        with pytest.raises(EvaluationError):
            session.run(Query.rpq("r")).holds("a")

    def test_rows_normalises_node_answers_to_tuples(self):
        session = GraphSession(diamond_graph())
        rows = session.run(Query.gxpath("<r>")).rows()
        assert all(isinstance(row, tuple) and len(row) == 1 for row in rows)

    def test_unary_crpq_nodes(self):
        session = GraphSession(diamond_graph())
        result = session.run(Query.crpq(("x",), [("x", "r.s", "y")]))
        assert {node.id for node in result.nodes()} == {"a"}

    def test_to_json_is_deterministic_and_parseable(self):
        session = GraphSession(diamond_graph())
        payload = json.loads(session.run(Query.rpq("r")).to_json())
        assert payload["kind"] == "rpq"
        assert payload["arity"] == 2
        assert payload["count"] == 2
        assert payload["rows"][0][0]["id"] == "a"
        again = session.run(Query.rpq("r")).to_json()
        assert json.loads(again) == payload

    @pytest.mark.parametrize(
        "query",
        [
            Query.rpq("(r|s)+"),
            Query.crpq(("x", "y", "z"), [("x", "r", "y"), ("y", "s", "z")]),
            Query.crpq((), [("x", "r", "y")]),
            Query.gxpath("<r>"),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("indent", [None, 2])
    def test_to_json_orders_rows_by_their_nodes_sort_keys(self, query, indent):
        # The document sorts a node column once; this is the per-row sort
        # it replaced, and the bytes must not differ.
        result = GraphSession(diamond_graph()).run(query)
        rows = sorted(result.rows(), key=lambda row: tuple(node.sort_key() for node in row))
        assert len(rows) == result.count() > 0
        reference = {
            "query": str(query.plan),
            "kind": query.kind.value,
            "arity": query.arity,
            "count": len(rows),
            "rows": [[{"id": node.id, "value": node.value} for node in row] for row in rows],
        }
        assert result.to_json(indent=indent) == json.dumps(reference, indent=indent)

    def test_null_value_serialises_as_json_null(self):
        graph = GraphBuilder().node("n").node("m", 3).edge("n", "r", "m").build()
        payload = json.loads(GraphSession(graph).run(Query.rpq("r")).to_json())
        assert payload["rows"][0][0]["value"] is None

    def test_laziness(self, monkeypatch):
        calls = []
        session = GraphSession(diamond_graph())
        original = GraphSession._evaluated

        def counting(self, plan, route, null_semantics):
            calls.append(plan)
            return original(self, plan, route, null_semantics)

        monkeypatch.setattr(GraphSession, "_evaluated", counting)
        result = session.run(Query.rpq("r"))
        assert not calls and not result.is_materialised
        result.count()
        result.pairs()
        assert len(calls) == 1  # forced exactly once


class TestVersionedCache:
    def test_repeat_runs_hit_the_cache(self):
        session = GraphSession(diamond_graph())
        assert session.run(Query.rpq("r.s")).count() == 1
        before = session.stats()["results"].hits
        assert session.run(Query.rpq("r.s")).count() == 1
        assert session.stats()["results"].hits == before + 1

    def test_equal_queries_share_one_entry(self):
        session = GraphSession(diamond_graph())
        session.run(Query.parse("r.s", "rpq")).count()
        before = session.stats()["results"].hits
        session.run(Query.rpq("r.s")).count()  # structurally equal plan
        assert session.stats()["results"].hits == before + 1

    def test_mutation_invalidates(self):
        graph = diamond_graph()
        session = GraphSession(graph)
        assert not session.run(Query.rpq("s.r")).pairs()
        graph.add_edge("d", "r", "a")  # bumps graph.version
        assert session.run(Query.rpq("s.r")).pairs() == session.run(Query.rpq("s.r")).pairs()
        assert session.run(Query.rpq("s.r")).holds("b", "a")

    def test_null_semantics_is_part_of_the_key(self):
        graph = GraphBuilder().node("n").node("m").edge("n", "r", "m").build()
        session = GraphSession(graph)
        ree = Query.parse("(r)=", dialect="ree")
        assert session.run(ree).count() == 1  # NULL == NULL without SQL semantics
        assert session.run(ree, null_semantics=True).count() == 0

    def test_cache_can_be_disabled(self):
        session = GraphSession(diamond_graph(), policy=ExecutionPolicy(cache_results=False))
        session.run(Query.rpq("r")).count()
        session.run(Query.rpq("r")).count()
        snapshot = session.stats()["results"]
        assert snapshot.hits == 0 and snapshot.size == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_results_never_stale_across_random_mutations(self, data):
        """Property: after any mutation sequence, session answers equal a
        fresh cache-less evaluation of the same plan (satellite: cache
        invalidation rides the graph's mutation counter)."""
        graph = GraphBuilder().node(0, 0).build()
        session = GraphSession(graph)
        queries = [Query.rpq("r.r"), Query.parse("(r)=", "ree"), Query.gxpath("<r.r->")]
        node_count = 1
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            action = data.draw(st.sampled_from(["node", "edge", "value-node"]))
            if action == "node":
                graph.add_node(node_count, node_count % 3)
                node_count += 1
            elif action == "value-node":
                graph.add_node(node_count, data.draw(st.integers(min_value=0, max_value=2)))
                node_count += 1
            else:
                source = data.draw(st.integers(min_value=0, max_value=node_count - 1))
                target = data.draw(st.integers(min_value=0, max_value=node_count - 1))
                graph.add_edge(source, "r", target)
            for query in queries:
                cached = session.run(query).rows()
                fresh = GraphSession(
                    graph, policy=ExecutionPolicy(cache_results=False)
                ).run(query).rows()
                assert cached == fresh


class TestRunMany:
    BATCH = [
        Query.rpq("r.s"),
        Query.parse("(r)=", "ree"),
        Query.rpq("r.s"),  # duplicate: must be evaluated once and answered twice
        Query.gxpath("<r.[<s>]>"),
        Query.parse("!x.((r|s)[x!=])+", "rem"),
    ]

    def test_order_and_duplicates(self):
        session = GraphSession(diamond_graph())
        results = session.run_many(self.BATCH)
        assert len(results) == len(self.BATCH)
        assert results[0].rows() == results[2].rows()
        assert [result.query for result in results] == self.BATCH

    def test_batch_results_are_materialised_and_cached(self):
        session = GraphSession(diamond_graph())
        results = session.run_many(self.BATCH)
        assert all(result.is_materialised for result in results)
        before = session.stats()["results"].hits
        session.run(self.BATCH[0]).rows()
        assert session.stats()["results"].hits == before + 1

    def test_one_in_order_path(self, monkeypatch):
        """A batch holding a duplicate plan, a cache hit and a lineage plan
        after a removal runs through ``run``'s path: each distinct miss is
        evaluated once, the lineage plan is re-answered in place, and the
        rows equal ``run()``'s — with or without the result cache."""
        evaluated = []
        real = GraphSession._evaluated

        def spy(self, plan, *args, **kwargs):
            evaluated.append(plan.key)
            return real(self, plan, *args, **kwargs)

        monkeypatch.setattr(GraphSession, "_evaluated", spy)
        graph = diamond_graph()
        session = GraphSession(graph)
        miss, hit, lineage = Query.parse("(r)=", "ree"), Query.rpq("r"), Query.rpq("r.s")
        assert session.run(lineage).count() == 1
        with graph.batch() as batch:
            batch.remove_edge("b", "s", "d")
            batch.remove_edge("c", "s", "d")
        session.run(hit).rows()  # cached at the new version
        evaluated.clear()
        hits = session.stats()["results"].hits
        queries = [miss, hit, lineage, miss]
        results = session.run_many(queries)

        assert evaluated == [miss.key, lineage.key]
        assert session.stats()["results"].hits == hits + 1
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recomputes"]) == (1, 1, 0)
        expected = [GraphSession(graph).run(query).rows() for query in queries]
        assert [result.rows() for result in results] == expected
        assert results[2].count() == 0  # both witnesses of r.s were removed

        uncached = GraphSession(graph, policy=ExecutionPolicy(cache_results=False))
        evaluated.clear()
        results = uncached.run_many(queries)
        assert evaluated == [miss.key, hit.key, lineage.key]
        assert [result.rows() for result in results] == expected



class TestRunManyWorkload:
    """``run_many`` over the e10 benchmark batch answers query-for-query
    what ``run`` does, under every policy a session can hold."""

    POLICIES = {
        "default": ExecutionPolicy(),
        "uncached": ExecutionPolicy(cache_results=False),
        "dict": ExecutionPolicy(backend="dict"),
        "compact": ExecutionPolicy(backend="compact"),
        "sql": ExecutionPolicy(backend="sql"),
        "blocks": ExecutionPolicy(intra_query="blocks", max_workers=2),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.random_graph(40, 80, labels=("a", "b"), rng=11, domain_size=6)

    @pytest.fixture(scope="class")
    def expected(self, graph):
        return [GraphSession(graph).run(query).rows() for query in batch_queries()]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_batch_equals_run(self, graph, expected, policy):
        session = GraphSession(graph, policy=self.POLICIES[policy])
        results = session.run_many(batch_queries())
        assert [result.rows() for result in results] == expected

    def test_order_is_preserved(self, graph, expected):
        session = GraphSession(graph, policy=ExecutionPolicy(cache_results=False))
        results = session.run_many(list(reversed(batch_queries())))
        assert [result.rows() for result in results] == list(reversed(expected))

    @pytest.mark.parametrize("cache_results", [True, False], ids=["cached", "uncached"])
    def test_null_semantics_reaches_every_plan(self, cache_results):
        graph = DataGraph(alphabet={"a", "b"})
        values = [1, NULL, NULL, 1, NULL, 2, NULL]
        for position, value in enumerate(values):
            graph.add_node(f"n{position}", value)
        for position in range(len(values) - 1):
            graph.add_edge(f"n{position}", "ab"[position % 2], f"n{position + 1}")
        graph.add_edge("n6", "a", "n1")
        queries = [Query.parse("((a|b)+)=", "ree"), Query.parse("!x.((a|b)[x=])+", "rem")]
        policy = ExecutionPolicy(cache_results=cache_results)
        plain = GraphSession(graph, policy=policy)
        expected = [plain.run(query, null_semantics=True).rows() for query in queries]
        # Under null semantics NULL never equals NULL: fewer answers.
        assert [len(rows) for rows in expected] == [3, 0]
        batch = GraphSession(graph, policy=policy).run_many(queries, null_semantics=True)
        assert [result.rows() for result in batch] == expected

    def test_an_empty_batch_answers_nothing(self, graph):
        assert GraphSession(graph).run_many([]) == []


class TestHoldsShortcut:
    def test_sessions_do_not_keep_graphs_alive(self):
        import gc
        import weakref

        graph = diamond_graph()
        GraphSession(graph).run("r.s").pairs()
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_holds_shortcut(self):
        assert GraphSession(diamond_graph()).holds(Query.rpq("r.s"), "a", "d")


class TestFacadeSessions:
    def test_exchange_result_session_queries_the_target(self):
        from repro import DataExchangeEngine, GraphSchemaMapping

        source = GraphBuilder().node("a", 1).node("b", 2).edge("a", "r", "b").build()
        engine = DataExchangeEngine(GraphSchemaMapping([("r", "t.t")]))
        result = engine.materialise(source, policy="nulls")
        session = result.session()
        assert session.graph is result.target
        assert session.run(Query.rpq("t.t")).holds("a", "b")
        # the execution kwarg takes an ExecutionPolicy, not the exchange policy string
        tuned = result.session(ExecutionPolicy(cache_results=False))
        assert tuned.run(Query.rpq("t.t")).holds("a", "b")
        assert engine.target_session(source).run(Query.rpq("t.t")).holds("a", "b")

    def test_global_session_is_cached_until_sources_change(self):
        from repro import VirtualIntegrationSystem

        vis = VirtualIntegrationSystem(global_alphabet={"g"})
        feed = vis.add_source("feed", "g")
        feed.add(("a", 1), ("b", 2))
        first = vis.global_session()
        assert vis.global_session() is first          # cached: no re-chase
        assert first.run(Query.rpq("g")).count() == 1
        feed.add(("b", 2), ("c", 3))                  # source mutation invalidates
        second = vis.global_session()
        assert second is not first
        assert second.run(Query.rpq("g")).count() == 2
