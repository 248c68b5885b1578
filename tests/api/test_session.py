"""GraphSession: uniform results, the versioned cache, batched execution."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query, SequentialExecutor
from repro.datagraph import GraphBuilder
from repro.exceptions import EvaluationError

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

    def test_executor_override(self):
        class CountingExecutor(SequentialExecutor):
            def __init__(self):
                self.batches = []

            def execute_batch(self, evaluate, queries):
                self.batches.append(list(queries))
                return super().execute_batch(evaluate, queries)

        session = GraphSession(diamond_graph())
        counter = CountingExecutor()
        session.run_many(self.BATCH, executor=counter)
        # the duplicate plan must have been deduplicated before the executor
        assert len(counter.batches) == 1 and len(counter.batches[0]) == len(self.BATCH) - 1
        # a second batch over the unchanged graph is served from cache
        session.run_many(self.BATCH, executor=counter)
        assert len(counter.batches) == 1


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
