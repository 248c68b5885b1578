"""Re-answers of cached relations after a write: re-answered ≡ fresh, always.

The contract under test is acceptance-level: after a batch on a warm
session, the served answer must be bit-identical to a fresh evaluation —
whether the session kept the cached entry, re-evaluated with its row
memo and patched the previous answer by the bit-row difference, decoded
the new rows in full, or (on a route without rows) evaluated afresh.
The maintenance counters then distinguish the paths, so each test pins
*which* path produced the (always-correct) answer.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import DataGraph
from repro.datagraph.values import NULL
from repro.deltas import repair as repair_module
from repro.deltas.repair import repair_full_relation
from repro.engine import default_engine
from repro.query.crpq import evaluate_crpq_naive
from repro.query.data_rpq_eval import evaluate_data_rpq_naive
from repro.query.rpq_eval import evaluate_rpq_naive
from repro.datagraph.compact import CompactLabelIndex
from repro.datagraph.index import LabelIndex
from repro.engine import compact as compact_kernels
from repro.engine import data as data_kernels
from repro.engine import product as product_kernels
from repro.engine.bitrelation import BitRelation, CachedRelation
from repro.engine.engine import EvaluationEngine
from repro.planner.stats import _label_stats, graph_statistics

CHAINS = 10
CHAIN_LENGTH = 12

DIALECT_QUERIES = {
    "rpq": Query.parse("(a|b)+"),
    "ree": Query.parse("((a|b)+)=", dialect="ree"),
    "rem": Query.parse("!x.((a|b)[x!=])+", dialect="rem"),
    # x is read across ↓y: outside the scoped fragment, so the register product's
    "rem-cross": Query.parse("!x.(a|b).!y.((a|b)[x!= && y!=])+", dialect="rem"),
    "crpq": Query.parse("x, y :- (x, a, z), (z, b, y)", dialect="crpq"),
    "gxpath-node": Query.parse("<a.b>", dialect="gxpath-node"),
    "gxpath-path": Query.parse("a.b", dialect="gxpath-path"),
}

#: Kinds whose cached entries keep bit rows, so a re-answer is a repair;
#: GXPath keeps none and is evaluated afresh.
REPAIRING = {"rpq", "ree", "rem", "rem-cross", "crpq"}
#: ... of which the RPQ and data RPQs, whose entry stands when a delta
#: touches nothing they read.
DATA = {"rpq", "ree", "rem", "rem-cross"}
#: ... of which the scoped ones (an RPQ is the REM with no registers),
#: answered and re-answered by the bit-row algebra.
SCOPED = {"rpq", "ree", "rem"}

#: The route whose cached entries keep bit rows: the default's, forced
#: so that these tests pin it.
COMPACT = ExecutionPolicy(backend="compact")


def chain_graph() -> DataGraph:
    """Disjoint a/b-alternating chains: closures stay chain-local, so a
    small batch touches a small backward closure."""
    graph = DataGraph(name="repair-chains")
    for c in range(CHAINS):
        for i in range(CHAIN_LENGTH):
            graph.add_node(f"k{c}n{i}", i % 3)
        for i in range(CHAIN_LENGTH - 1):
            graph.add_edge(f"k{c}n{i}", "ab"[i % 2], f"k{c}n{i+1}")
    return graph


def supplier_graph() -> DataGraph:
    """Tiers of suppliers: each supplies two of the tier above it, and
    some stand in for a neighbour (``alt_for``) within their tier."""
    graph = DataGraph(name="repair-suppliers")
    tiers, width = 5, 6
    for t in range(tiers):
        for s in range(width):
            graph.add_node(f"t{t}s{s}", s % 3)
    for t in range(tiers - 1):
        for s in range(width):
            graph.add_edge(f"t{t}s{s}", "supplies_to", f"t{t + 1}s{s}")
            graph.add_edge(f"t{t}s{s}", "supplies_to", f"t{t + 1}s{(s + 1) % width}")
            graph.add_edge(f"t{t}s{s}", "alt_for", f"t{t}s{(s + 3) % width}")
    return graph


def fresh_rows(graph: DataGraph, query: Query, null_semantics: bool = False):
    policy = ExecutionPolicy(cache_results=False)
    return GraphSession(graph, policy=policy).run(query, null_semantics).rows()


def shortcut_batch(graph: DataGraph) -> None:
    """A small insert-only batch: one new node and two shortcut edges
    inside chain 0."""
    with graph.batch() as batch:
        batch.add_node("fresh", 1)
        batch.add_edge("k0n3", "a", "fresh")
        batch.add_edge("fresh", "b", "k0n8")


class TestRepairedEqualsFresh:
    @pytest.mark.parametrize("dialect", sorted(DIALECT_QUERIES))
    def test_every_dialect_serves_the_fresh_answer_after_a_batch(self, dialect):
        graph = chain_graph()
        query = DIALECT_QUERIES[dialect]
        session = GraphSession(graph)
        session.run(query).rows()  # warm: populate the result cache
        shortcut_batch(graph)
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        if dialect in REPAIRING:
            assert stats["repairs"] == 1 and stats["recomputes"] == 0
        else:
            assert stats["repairs"] == 0 and stats["recomputes"] == 1

    def test_null_semantics_repairs_independently(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["ree"]
        session = GraphSession(graph)
        session.run(query, null_semantics=True).rows()
        shortcut_batch(graph)
        served = session.run(query, null_semantics=True).rows()
        assert served == fresh_rows(graph, query, null_semantics=True)
        assert session.maintenance_stats()["repairs"] == 1

    def test_removal_batch_is_patched(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph)
        session.run(query).rows()
        with graph.batch() as batch:
            batch.remove_edge("k0n5", "b", "k0n6")
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 1)

    def test_value_change_batch_decodes_in_full(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rem"]
        session = GraphSession(graph)
        session.run(query).rows()
        with graph.batch() as batch:
            batch.set_value("k0n4", 99)
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 0)

    def test_single_op_mutation_breaks_the_lineage(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph)
        session.run(query).rows()
        graph.add_edge("k0n0", "a", "k0n2")  # bypasses the batch journal
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert stats["repairs"] == 0 and stats["recomputes"] == 1

    def test_policy_can_disable_repair(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=ExecutionPolicy(delta_repair=False))
        session.run(query).rows()
        shortcut_batch(graph)
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert stats["repairs"] == 0 and stats["recomputes"] == 0
        assert stats["lineage"] == []

    def test_consecutive_batches_repair_across_the_composed_delta(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph)
        base = graph.version
        session.run(query).rows()
        with graph.batch() as batch:
            batch.add_edge("k1n0", "a", "k1n5")
        with graph.batch() as batch:
            batch.add_edge("k1n5", "b", "k1n9")
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert stats["repairs"] == 1
        lineage = stats["lineage"][-1]
        assert lineage["base_version"] == base
        assert lineage["new_version"] == graph.version
        assert lineage["delta_size"] == 2

    def test_run_many_repairs_warm_plans(self):
        graph = chain_graph()
        queries = [DIALECT_QUERIES["rpq"], DIALECT_QUERIES["ree"]]
        session = GraphSession(graph)
        session.run_many(queries)  # eager: warms both entries
        shortcut_batch(graph)
        results = session.run_many(queries)
        for query, result in zip(queries, results):
            assert result.rows() == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert stats["repairs"] == 2 and stats["recomputes"] == 0

    def test_lineage_records_plan_and_digest(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph)
        session.run(query).rows()
        shortcut_batch(graph)
        delta = graph.journal.deltas()[-1]
        session.run(query).rows()
        (entry,) = session.maintenance_stats()["lineage"]
        assert entry["plan"].startswith("rpq:")
        assert entry["delta_digest"] == delta.digest
        assert entry["delta_size"] == delta.size

    @pytest.mark.parametrize("dialect", sorted(DATA))
    @pytest.mark.parametrize("change", ["insert", "removal"])
    def test_edges_the_query_cannot_read_keep_the_entry(self, change, dialect, monkeypatch):
        """An RPQ or data RPQ reads only the nodes, their values and the
        edges of its labels: a batch adding or removing edges of another
        label keeps the cached entry, bit for bit the fresh one, and runs
        no kernel — however much of the graph its endpoints could reach."""
        graph = chain_graph()
        for c in range(CHAINS):  # tail to head of every chain: all of them upstream
            graph.add_edge(f"k{c}n0", "alt_for", f"k{c}n{CHAIN_LENGTH - 1}")
        query = DIALECT_QUERIES[dialect]
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()
        entry = session._results.peek((graph.version, query.key, False))
        with graph.batch() as batch:
            for c in range(CHAINS):
                if change == "insert":
                    batch.add_edge(f"k{c}n1", "alt_for", f"k{c}n{CHAIN_LENGTH - 2}")
                else:
                    batch.remove_edge(f"k{c}n0", "alt_for", f"k{c}n{CHAIN_LENGTH - 1}")
        calls = KernelCalls(monkeypatch)
        served = session.run(query).rows()
        assert calls.compact == 0 and calls.dict_forward == 0 and not calls.algebra
        assert session._results.peek((graph.version, query.key, False)) is entry
        fresh = GraphSession(graph, policy=COMPACT)
        assert served == fresh.run(query).rows() == fresh_rows(graph, query)
        assert entry.bits.rows == fresh._results.peek((graph.version, query.key, False)).bits.rows
        assert entry.bits.nodes == graph.compact_index().nodes  # what the wire encodes against
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 0)

    def test_a_closure_is_answered_and_repaired_without_an_automaton(self, monkeypatch):
        """run → insert → run → ``alt_for``-only batch → run on
        ``supplies_to+``: the answer and the labels a repair reads come
        from the query itself, so no automaton is compiled; the insert
        continues the session's kept closure rows from its new step, the
        ``alt_for`` batch touches nothing the query reads, and the
        repaired rows are a fresh session's, bit for bit."""
        graph = supplier_graph()
        query = Query.parse("supplies_to+")
        compiled = []
        compile_rpq = EvaluationEngine.compile_rpq

        def counting(engine, rpq):
            compiled.append(rpq)
            return compile_rpq(engine, rpq)

        monkeypatch.setattr(EvaluationEngine, "compile_rpq", counting)
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()
        with graph.batch() as batch:
            batch.add_edge("t3s0", "supplies_to", "t1s2")
        assert session.run(query).rows() == fresh_rows(graph, query)
        with graph.batch() as batch:
            batch.add_edge("t2s1", "alt_for", "t2s5")
        served = session.run(query).rows()
        assert compiled == []
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"]) == (2, 0)
        fresh = GraphSession(graph, policy=COMPACT)
        assert served == fresh.run(query).rows()
        key = (graph.version, query.key, False)
        assert session._results.peek(key).bits.rows == fresh._results.peek(key).bits.rows

    def test_run_many_after_a_removal_serves_the_fresh_answers(self):
        graph = chain_graph()
        queries = [DIALECT_QUERIES[dialect] for dialect in ("rpq", "rem", "crpq")]
        session = GraphSession(graph, policy=COMPACT)
        for query in queries:
            session.run(query).rows()  # warm, with bit rows
        for step in range(2):
            with graph.batch() as batch:
                batch.remove_edge(f"k{step}n5", "b", f"k{step}n6")
                batch.add_edge(f"k{step}n1", "b", f"k{step}n7")
            served = [result.rows() for result in session.run_many(queries)]
            assert served == [fresh_rows(graph, query) for query in queries]
        stats = session.maintenance_stats()
        # re-answered in place, patched from the kept rows
        assert (stats["repairs"], stats["patched"], stats["recompute_reasons"]) == (6, 6, {})

    def test_run_many_after_an_insert_serves_the_fresh_answers(self):
        graph = chain_graph()
        queries = [DIALECT_QUERIES[dialect] for dialect in ("rpq", "rem", "crpq")]
        session = GraphSession(graph, policy=COMPACT)
        for query in queries:
            session.run(query).rows()
        shortcut_batch(graph)
        served = [result.rows() for result in session.run_many(queries)]
        assert served == [fresh_rows(graph, query) for query in queries]
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recompute_reasons"]) == (3, 3, {})
        assert stats["rows"]["continued"] > 0  # the insert continued the kept rows

    def test_a_batch_keeps_what_stands_and_reanswers_the_rest(self, monkeypatch):
        graph = chain_graph()
        only_a = Query.parse("a+")
        queries = [only_a, DIALECT_QUERIES["rpq"], DIALECT_QUERIES["crpq"]]
        session = GraphSession(graph, policy=COMPACT)
        for query in queries:
            session.run(query).rows()
        with graph.batch() as batch:
            batch.add_edge("k0n1", "b", "k0n7")  # a+ reads no b edge: its entry stands
        evaluated = []
        real = GraphSession._evaluated

        def spy(self, plan, *args, **kwargs):
            if self is session:
                evaluated.append(plan.key)
            return real(self, plan, *args, **kwargs)

        monkeypatch.setattr(GraphSession, "_evaluated", spy)
        served = [result.rows() for result in session.run_many(queries)]
        assert served == [fresh_rows(graph, query) for query in queries]
        assert evaluated == [query.key for query in queries[1:]]
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recompute_reasons"]) == (3, 2, {})


#: Forced routes a re-answer must follow: only the compact route keeps
#: bit rows.
ROUTE_POLICIES = {
    "compact": COMPACT,
    "dict": ExecutionPolicy(backend="dict"),
    "sql": ExecutionPolicy(backend="sql"),
}


class KernelCalls:
    """Count entries into the dict forward phase, the compact kernels and
    the bit-row algebra (by the index type it ran on, with its seeds)."""

    def __init__(self, monkeypatch):
        self.dict_forward = 0
        self.compact = 0
        self.algebra = []  # (index is the CSR twin, number of seeded sources or None)
        forward = product_kernels.forward_expand
        algebra = data_kernels.ree_relation

        def ree_relation(index, expression, null_semantics=False, sources=None, memo=None):
            seeded = None if sources is None else len(sources)
            self.algebra.append((isinstance(index, CompactLabelIndex), seeded))
            return algebra(index, expression, null_semantics, sources, memo)

        monkeypatch.setattr(data_kernels, "ree_relation", ree_relation)

        def forward_expand(*args, **kwargs):
            self.dict_forward += 1
            return forward(*args, **kwargs)

        monkeypatch.setattr(product_kernels, "forward_expand", forward_expand)
        for name in ("nfa_relation", "register_relation"):
            monkeypatch.setattr(compact_kernels, name, self._counting(getattr(compact_kernels, name)))

    def _counting(self, kernel):
        def counted(*args, **kwargs):
            self.compact += 1
            return kernel(*args, **kwargs)

        return counted


class TestRepairFollowsTheRoute:
    @pytest.mark.parametrize("dialect", sorted(DATA))
    @pytest.mark.parametrize("route", sorted(ROUTE_POLICIES))
    def test_re_answered_equals_recomputed_on_every_route(self, route, dialect, monkeypatch):
        graph = chain_graph()
        query = DIALECT_QUERIES[dialect]
        session = GraphSession(graph, policy=ROUTE_POLICIES[route])
        session.run(query).rows()
        shortcut_batch(graph)
        expected = fresh_rows(graph, query)
        calls = KernelCalls(monkeypatch)
        served = session.run(query).rows()
        assert served == expected
        stats = session.maintenance_stats()
        # the compact route re-answers from its kept rows; a route that
        # yields none is evaluated afresh, on its own kernels
        if route == "compact":
            assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 1)
        else:
            assert (stats["repairs"], stats["recomputes"]) == (0, 1)
            assert stats["recompute_reasons"] == {"no rows": 1}
        # what explain names is what ran: an RPQ or a scoped data RPQ by
        # one unseeded run of the algebra over the route's index (on the
        # compact route continuing the session's kept rows), an RPQ on the
        # sql route by its CTE — nothing is seeded, no product kernel runs
        if dialect == "rpq" and route == "sql":
            assert not calls.algebra and calls.compact == 0 and calls.dict_forward == 0
        elif dialect in SCOPED:
            assert calls.algebra == [(route == "compact", None)]
            assert calls.compact == 0 and calls.dict_forward == 0
        elif route == "compact":
            assert calls.compact == 1 and calls.dict_forward == 0 and not calls.algebra
        else:  # the register product: no pruning, no algebra, no CSR kernel
            assert calls.compact == 0 and calls.dict_forward == 0 and not calls.algebra

    @pytest.mark.parametrize("removal", [False, True], ids=["insert", "removal"])
    def test_a_run_resolves_its_route_once(self, removal, monkeypatch):
        """The route a re-answer evaluates on is the session's one
        resolution — once per run, not once per path."""
        import repro.api.session as session_module

        graph = chain_graph()
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        queries = [DIALECT_QUERIES["rpq"], Query.parse("x, y :- (x, a+, z), (z, b, y)", dialect="crpq")]
        for query in queries:
            session.run(query).rows()
        with graph.batch() as batch:
            batch.add_edge("k0n1", "b", "k0n7")
            if removal:
                batch.remove_edge("k1n1", "b", "k1n2")
        expected = [fresh_rows(graph, query) for query in queries]
        resolved = []
        route_query = session_module.route_query

        def counting(plan, *args, **kwargs):
            resolved.append(plan.kind.value)
            return route_query(plan, *args, **kwargs)

        monkeypatch.setattr(session_module, "route_query", counting)
        assert [session.run(query).rows() for query in queries] == expected
        assert sorted(resolved) == ["crpq", "rpq"]
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"]) == (2, 0)

    @pytest.mark.parametrize("dialect", sorted(DATA))
    def test_compact_repairs_keep_bit_rows_across_batches(self, dialect, monkeypatch):
        """An RPQ's or scoped data RPQ's rows come from the algebra run
        unseeded, and a repair is the same run again, continuing the
        session's kept sub-expression rows (a cross-scope REM's: the
        register kernel, run again in full): the repaired rows
        are still the fresh run's, bit for bit, on a node ordering the
        first batch grows."""
        graph = chain_graph()
        query = DIALECT_QUERIES[dialect]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        session.run(query).rows()
        assert session._results.peek((graph.version, query.key, False)).bits is not None
        calls = KernelCalls(monkeypatch)
        for step in range(3):  # the first batch appends a node, all add edges
            with graph.batch() as batch:
                if step == 0:
                    batch.add_node("fresh", 1)
                    batch.add_edge("k0n3", "a", "fresh")
                batch.add_edge(f"k{step}n1", "b", f"k{step}n7")
            served = session.run(query).rows()
            assert served == fresh_rows(graph, query)
            entry = session._results.peek((graph.version, query.key, False))
            bits = entry.bits
            assert entry.answer is served and bits is not None
            assert bits.nodes == graph.compact_index().nodes
            assert bits.node_pairs(graph.compact_index().node_objects) == served
            assert bits.count() == len(served)
            fresh = default_engine().atom_bits(graph, query.plan, session._route(query))
            assert bits.rows == fresh.rows
        stats = session.maintenance_stats()
        assert stats["repairs"] == 3
        # per batch: the repair, the default-policy `fresh_rows` and a fresh
        # `atom_bits` run, all on the CSR index and unseeded
        if dialect in SCOPED:
            assert calls.algebra == [(True, None)] * 9
            assert calls.compact == 0 and stats["rows"]["continued"] >= 3
        else:
            assert not calls.algebra and calls.compact == 9

    def test_an_entry_without_bit_rows_still_repairs(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        # a dict route's entry carries no bit rows
        rowless = GraphSession(graph, policy=ROUTE_POLICIES["dict"])
        rowless.run(query).rows()
        entry = rowless._results.peek((graph.version, query.key, False))
        assert entry.bits is None
        session._remember(query, False, graph.version, entry)
        shortcut_batch(graph)
        assert session.run(query).rows() == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"]) == (1, 0)  # nothing to patch from
        assert session._results.peek((graph.version, query.key, False)).bits is not None

    def test_a_superseded_entry_is_dropped_not_kept_until_the_lru_fills(self):
        """Versions only grow, so the entry a repair (or a recompute, or a
        batch) started from can never be hit again; the cache holds one
        entry per plan however many mutations pass."""
        graph = chain_graph()
        rpq, crpq = DIALECT_QUERIES["rpq"], DIALECT_QUERIES["crpq"]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        served_first = session.run(rpq).rows()
        session.run(crpq).rows()
        for step in range(3):
            previous = graph.version
            if step == 1:
                graph.remove_edge("k0n0", "a", "k0n1")  # bypasses the journal: recompute
            else:
                with graph.batch() as batch:
                    batch.add_edge(f"k{step}n1", "b", f"k{step}n7")
            if step == 2:
                session.run_many([rpq, crpq])
            else:
                session.run(rpq).rows(), session.run(crpq).rows()
            for query in (rpq, crpq):
                assert session._results.peek((previous, query.key, False)) is None
                assert session.run(query).rows() == fresh_rows(graph, query)
            assert session.stats()["results"].size == 2
        assert session.stats()["results"].evictions == 0
        assert len(served_first) == 660  # a handed-out answer outlives its entry

    def test_bit_rows_on_another_ordering_are_decoded_not_patched(self):
        """Bit rows only patch an answer whose rows' ordering the new rows
        extend; a cached relation that does not line up is re-answered by
        its new rows alone, decoded in full on their first read."""
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        rows = session.run(query).rows()
        bits = session._results.peek((graph.version, query.key, False)).bits
        base_objects = graph.compact_index().node_objects
        previous = graph.version
        shortcut_batch(graph)
        delta = graph.journal.composed(previous, graph.version)
        route = session._route(query)
        expected = fresh_rows(graph, query)
        objects = graph.compact_index().node_objects

        def evaluate():
            return session._evaluated(query, route, False)

        entry, outcome = repair_full_relation(
            graph, query, (CachedRelation(bits, base_objects, rows), delta), evaluate
        )
        assert outcome == "patched" and entry.answer == expected
        assert entry.bits.node_pairs(objects) == expected

        shuffled = tuple(reversed(bits.nodes))
        misaligned = BitRelation(
            shuffled, {node: at for at, node in enumerate(shuffled)}, dict(bits.rows)
        )
        entry, outcome = repair_full_relation(
            graph, query, (CachedRelation(misaligned, base_objects, rows), delta), evaluate
        )
        assert outcome == "rows" and entry.answer is None
        assert entry.pairs() == entry.bits.node_pairs(objects) == expected

    def test_remove_and_re_add_keeps_the_snapshot_ordering_consistent(self):
        """A node removed and re-added in one batch nets out of the delta;
        whatever ordering the patched index settles on, cached bit rows
        are either on it or gone."""
        graph = chain_graph()
        graph.add_node("loner", 5)
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        session.run(query).rows()
        with graph.batch() as batch:
            batch.remove_node("loner")
            batch.add_node("loner", 5)
            batch.add_edge("k0n1", "b", "k0n7")
        served = session.run(query).rows()
        assert served == fresh_rows(graph, query)
        bits = session._results.peek((graph.version, query.key, False)).bits
        if bits is not None:
            compact = graph.compact_index()
            assert bits.nodes == compact.nodes
            assert bits.node_pairs(compact.node_objects) == served

    def test_a_binary_crpq_re_answer_is_patched_from_its_plan_rows(self, monkeypatch):
        """A binary CRPQ whose plan ends on bit rows keeps them: each
        re-answer runs the plan and decodes only the pairs that changed —
        through a node append, a removal and plain inserts — into the
        previous version's answer."""
        graph = chain_graph()
        query = DIALECT_QUERIES["crpq"]
        session = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
        previous = session.run(query).rows()
        assert session._results.peek((graph.version, query.key, False)).bits is not None
        decoded = decoded_sizes(monkeypatch)
        for step in range(3):
            with graph.batch() as batch:
                if step == 0:
                    batch.add_node("fresh", 1)
                    batch.add_edge("k0n2", "a", "fresh")
                    batch.add_edge("fresh", "b", "k0n9")
                elif step == 1:
                    batch.remove_edge("k1n4", "a", "k1n5")
                else:
                    batch.add_edge(f"k{step}n1", "b", f"k{step}n7")
                    batch.add_edge(f"k{step}n6", "a", f"k{step}n3")
            key = (graph.version, query.key, False)
            fresh = GraphSession(graph, policy=ROUTE_POLICIES["compact"])
            expected = fresh.run(query).rows()
            assert expected == fresh_rows(graph, query)
            decoded.clear()
            served = session.run(query).rows()
            assert served == expected
            assert sum(decoded) == len(previous ^ served) < len(served)
            entry = session._results.peek(key)
            assert entry.answer is served and entry.bits.rows == fresh._results.peek(key).bits.rows
            previous = served
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recomputes"]) == (3, 3, 0)


def decoded_sizes(monkeypatch):
    """Spy on the one decoder: the size of every ``node_pairs`` decode."""
    sizes = []
    node_pairs = BitRelation.node_pairs

    def spied(self, objects):
        pairs = node_pairs(self, objects)
        sizes.append(len(pairs))
        return pairs

    monkeypatch.setattr(BitRelation, "node_pairs", spied)
    return sizes


class TestReAnswersDecodeByDifference:
    """A re-answer decodes its rows' difference from the previous
    version's — when the lineage's entry kept bit rows on a prefix of the
    new ordering and no node changed — and the whole relation otherwise."""

    @pytest.mark.parametrize("dialect", ["rpq", "rem", "crpq"])
    def test_a_removal_decodes_only_the_pairs_it_lost(self, dialect, monkeypatch):
        graph = chain_graph()
        query = DIALECT_QUERIES[dialect]
        events = []
        session = GraphSession(graph, policy=COMPACT, repair_listener=events.append)
        before = session.run(query).rows()
        with graph.batch() as batch:
            batch.remove_edge("k0n5", "b", "k0n6")
        expected = fresh_rows(graph, query)
        decoded = decoded_sizes(monkeypatch)
        served = session.run(query).rows()
        assert served == expected and served < before
        assert decoded == [len(before - served)]
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 1)
        assert stats["recompute_reasons"] == {}
        assert events == ["repair", "patched"]

    def test_a_repair_is_patched_too(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        events = []
        session = GraphSession(graph, policy=COMPACT, repair_listener=events.append)
        session.run(query).rows()
        shortcut_batch(graph)
        assert session.run(query).rows() == fresh_rows(graph, query)
        assert events == ["repair", "patched"]

    def test_a_declined_patch_is_not_counted_as_patched(self, monkeypatch):
        """When the patch declines, the re-answer decodes the new rows in
        full — a repair, but not a patched one."""
        graph = DataGraph(name="chain-300")
        for i in range(300):
            graph.add_node(f"n{i}", i % 3)
        for i in range(299):
            graph.add_edge(f"n{i}", "a", f"n{i + 1}")
        query = Query.parse("a+")
        events = []
        session = GraphSession(graph, repair_listener=events.append)
        session.run(query).rows()
        monkeypatch.setattr(repair_module, "patched_answer", lambda *args: None)
        with graph.batch() as batch:
            batch.add_edge("n0", "a", "n5")  # a shortcut: no new pair
        expected = fresh_rows(graph, query)
        decoded = decoded_sizes(monkeypatch)
        served = session.run(query).rows()
        assert len(served) == 44_850 and served == expected
        assert decoded == [44_850]
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"], stats["patched"]) == (1, 0, 0)
        assert events == ["repair"]

    @pytest.mark.parametrize("dialect", ["rpq", "crpq"])
    @pytest.mark.parametrize("change", ["insert", "removal"])
    def test_only_a_removal_scans_for_lost_pairs(self, dialect, change, monkeypatch):
        """An insert-only patch computes no ``old ∖ new``: every dialect
        it patches is monotone under insertion.  A removal still does."""
        graph = chain_graph()
        query = DIALECT_QUERIES[dialect]
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()
        old_bits = session._results.peek((graph.version, query.key, False)).bits
        assert old_bits is not None
        scans = []
        minus = BitRelation.minus

        def spied(self, other):
            scans.append(self is old_bits)
            return minus(self, other)

        monkeypatch.setattr(BitRelation, "minus", spied)
        if change == "insert":
            shortcut_batch(graph)
        else:
            with graph.batch() as batch:
                batch.remove_edge("k0n5", "b", "k0n6")
        assert session.run(query).rows() == fresh_rows(graph, query)
        assert session.maintenance_stats()["patched"] == 1
        assert any(scans) == (change == "removal")

    @pytest.mark.parametrize(
        "lineage",
        ["value change", "node removal", "base evicted", "broken lineage", "repair disabled"],
    )
    def test_a_lineage_it_cannot_patch_exactly_takes_the_full_decode(self, lineage, monkeypatch):
        """A value change — or a node removed and re-added with another
        value — leaves every bit row as it was but rewrites ``Node``
        objects; an evicted base or a broken lineage leaves nothing to
        patch from.  Each takes the full decode."""
        graph = chain_graph()
        graph.add_node("loner", 5)  # last in the ordering: re-added, it lands there again
        query = Query.parse("(a|b)*")
        policy = {
            "base evicted": ExecutionPolicy(backend="compact", result_cache_size=1),
            "repair disabled": ExecutionPolicy(backend="compact", delta_repair=False),
        }.get(lineage, COMPACT)
        session = GraphSession(graph, policy=policy)
        session.run(query).rows()
        if lineage == "base evicted":
            session.run("a").rows()
        if lineage == "broken lineage":
            graph.add_edge("k0n1", "b", "k0n7")  # bypasses the batch journal
        else:
            with graph.batch() as batch:
                if lineage == "value change":
                    batch.set_value("k0n4", 99)
                elif lineage == "node removal":
                    batch.remove_node("loner")
                    batch.add_node("loner", 6)
                else:
                    batch.add_edge("k0n1", "b", "k0n7")
        expected = fresh_rows(graph, query)
        decoded = decoded_sizes(monkeypatch)
        served = session.run(query).rows()
        assert served == expected and decoded == [len(served)]
        stats = session.maintenance_stats()
        assert stats["patched"] == 0
        recomputed = lineage in ("base evicted", "broken lineage")  # no lineage to re-answer from
        assert stats["recompute_reasons"] == ({lineage: 1} if recomputed else {})


class TestDecodeOnFirstRead:
    """A result-cache entry is rows first: a point reads the rows, the
    decode runs once, on the first read of pairs, against the ``Node``
    column of the snapshot the rows were computed on, and a re-answer from
    an entry nobody read decodes nothing until somebody does."""

    REM = Query.parse("!x.(supplies_to[x!=])+", dialect="rem")

    def expected(self, graph):
        return evaluate_data_rpq_naive(graph, self.REM.plan)

    def rows_only_entry(self, session):
        graph = session.graph
        source = "t0s0"
        assert {node.id for node in session.targets(self.REM, source)} == {
            target.id for start, target in self.expected(graph) if start.id == source
        }
        entry = session._results.peek((graph.version, self.REM.key, False))
        assert entry.bits is not None and entry.answer is None
        return entry

    def test_a_point_decodes_nothing_and_reads_the_cache_once(self, monkeypatch):
        graph = supplier_graph()
        session = GraphSession(graph)
        decoded = decoded_sizes(monkeypatch)
        expected = self.expected(graph)
        for source in graph.node_ids:
            assert session.targets(self.REM, source) == {
                target for start, target in expected if start.id == source
            }
            for target in ("t4s0", "t2s3"):
                assert session.holds(self.REM, source, target) == (
                    (graph.node(source), graph.node(target)) in expected
                )
        assert decoded == []
        stats = session.stats()["results"]  # the first point misses, every later one hits
        assert (stats.misses, stats.hits) == (1, len(graph) * 3 - 1)

    def test_two_reads_decode_once(self, monkeypatch):
        graph = supplier_graph()
        session = GraphSession(graph)
        decoded = decoded_sizes(monkeypatch)
        first = session.run(self.REM).pairs()
        assert session.run(self.REM).pairs() is first
        assert first == self.expected(graph)
        assert decoded == [len(first)]

    def test_a_repair_from_a_rows_only_base_decodes_nothing_until_a_read(self, monkeypatch):
        graph = supplier_graph()
        session = GraphSession(graph)
        self.rows_only_entry(session)
        decoded = decoded_sizes(monkeypatch)
        with graph.batch() as batch:
            batch.add_edge("t3s0", "supplies_to", "t1s2")
        self.rows_only_entry(session)
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recomputes"]) == (1, 0, 0)
        assert decoded == []
        pairs = session.run(self.REM).pairs()
        assert pairs == self.expected(graph)
        assert decoded == [len(pairs)]

    def test_a_standing_rows_only_entry_reads_exactly(self):
        graph = supplier_graph()
        session = GraphSession(graph)
        entry = self.rows_only_entry(session)
        with graph.batch() as batch:  # no supplies_to edge: the entry stands
            batch.add_edge("t1s1", "alt_for", "t1s2")
            batch.remove_edge("t2s0", "alt_for", "t2s3")
        assert session.run(self.REM).pairs() == self.expected(graph)
        assert session._results.peek((graph.version, self.REM.key, False)) is entry
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recomputes"]) == (1, 0, 0)

    def test_a_value_change_after_a_rows_only_entry_is_not_patched(self):
        graph = supplier_graph()
        session = GraphSession(graph)
        self.rows_only_entry(session)
        with graph.batch() as batch:
            batch.set_value("t1s1", 7)
        pairs = session.run(self.REM).pairs()
        assert pairs == self.expected(graph)
        assert graph.node("t1s1") in {target for _source, target in pairs}
        assert all(node.value == 7 for pair in pairs for node in pair if node.id == "t1s1")
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["patched"], stats["recomputes"]) == (1, 0, 0)

    def test_a_write_before_the_first_read_decodes_against_the_rows_own_column(self):
        graph = supplier_graph()
        session = GraphSession(graph)
        before = self.expected(graph)
        entry = self.rows_only_entry(session)
        with graph.batch() as batch:  # a longer column, and a value it rewrites
            batch.add_node("t5s0", 2)
            batch.add_edge("t4s0", "supplies_to", "t5s0")
            batch.set_value("t0s0", 9)
        assert len(graph.compact_index().node_objects) != len(entry.objects)
        assert entry.pairs() == before  # the base's own snapshot, never the graph's
        assert session.run(self.REM).pairs() == self.expected(graph)


def row_outcomes(session, act):
    """The session's row-memo outcomes during *act*()."""
    before = session.maintenance_stats()["rows"]
    act()
    after = session.maintenance_stats()["rows"]
    return {outcome: after[outcome] - before[outcome] for outcome in after}


class TestRowsOutliveAWrite:
    """The session's row memo: sub-expression rows carried across
    batches, continued from what an insert-only delta added."""

    def test_a_closure_resumes_from_its_new_step_and_the_rows_reaching_it(self):
        """A step from the end of chain 0 to the head of chain 1: every
        source reaching ``k0n11`` must flow into chain 1, which only the
        resumed closure's push of the step's origin row achieves."""
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()

        def act():
            with graph.batch() as batch:
                batch.add_edge(f"k0n{CHAIN_LENGTH - 1}", "a", "k1n0")
            assert session.run(query).rows() == fresh_rows(graph, query)

        outcomes = row_outcomes(session, act)
        # b is untouched; a, a|b and (a|b)+ grow
        assert outcomes == {"reused": 1, "continued": 3, "computed": 0}
        assert session.maintenance_stats()["repairs"] == 1

    def test_a_concatenation_continues_through_its_touched_right_factor(self):
        """``alt_for.supplies_to+`` after a ``supplies_to`` insert: the
        closure is continued once (for both queries), ``alt_for`` reused
        and the concatenation grown by ``alt_for`` composed with what the
        closure gained — nothing is evaluated afresh."""
        graph = supplier_graph()
        queries = [Query.parse("supplies_to+"), Query.parse("alt_for.supplies_to+")]
        session = GraphSession(graph, policy=COMPACT)
        for query in queries:
            session.run(query).rows()

        def act():
            with graph.batch() as batch:
                batch.add_edge("t3s0", "supplies_to", "t4s4")
            assert [session.run(q).rows() for q in queries] == [fresh_rows(graph, q) for q in queries]

        outcomes = row_outcomes(session, act)
        assert outcomes == {"reused": 2, "continued": 3, "computed": 0}

    def test_an_insert_its_left_factor_reads_pushes_only_the_new_rows(self):
        graph = supplier_graph()
        query = Query.parse("alt_for.supplies_to+")
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()

        def act():
            with graph.batch() as batch:
                batch.add_edge("t1s0", "alt_for", "t1s1")
            assert session.run(query).rows() == fresh_rows(graph, query)

        assert row_outcomes(session, act) == {"reused": 0, "continued": 2, "computed": 0}

    def test_a_removal_recomputes_what_reads_its_label_and_reuses_the_rest(self):
        """After a ``supplies_to`` removal, ``supplies_to`` and its
        closure are recomputed, and so is the CRPQ's fused atom
        ``alt_for·supplies_to+`` — by pushing ``alt_for``'s rows, which it
        reuses, through the closure."""
        graph = supplier_graph()
        queries = [
            Query.parse("supplies_to+"),
            Query.parse("x, z :- (x, alt_for, y), (y, supplies_to+, z)", dialect="crpq"),
        ]
        session = GraphSession(graph, policy=COMPACT)
        for query in queries:
            session.run(query).rows()

        def act():
            with graph.batch() as batch:
                batch.remove_edge("t1s0", "supplies_to", "t2s0")
            assert [session.run(q).rows() for q in queries] == [fresh_rows(graph, q) for q in queries]

        assert row_outcomes(session, act) == {"reused": 1, "continued": 0, "computed": 3}

    def test_a_wide_insert_is_continued(self):
        """A batch whose backward closure is the whole graph: continuing
        the kept rows costs what the insert adds, not the touched
        closure."""
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=COMPACT)
        session.run(query).rows()
        with graph.batch() as batch:
            for c in range(CHAINS):
                batch.add_edge(f"k{c}n0", "a", f"k{c}n{CHAIN_LENGTH - 1}")
        assert session.run(query).rows() == fresh_rows(graph, query)
        stats = session.maintenance_stats()
        assert (stats["repairs"], stats["recomputes"]) == (1, 0)
        # the first run computed a, b, a|b and (a|b)+; the batch added a-edges only
        assert stats["rows"] == {"reused": 1, "continued": 3, "computed": 4}

    def test_without_delta_repair_rows_serve_one_version_only(self):
        graph = chain_graph()
        query = DIALECT_QUERIES["rpq"]
        session = GraphSession(graph, policy=ExecutionPolicy(backend="compact", delta_repair=False))
        session.run(query).rows()

        def act():
            shortcut_batch(graph)
            assert session.run(query).rows() == fresh_rows(graph, query)

        assert row_outcomes(session, act) == {"reused": 0, "continued": 0, "computed": 4}

    def test_the_memo_is_bounded_by_the_result_cache_size(self):
        graph = chain_graph()
        session = GraphSession(graph, policy=ExecutionPolicy(backend="compact", result_cache_size=3))
        for text in ("(a|b)+", "a.b.a", "b+.a*"):
            session.run(text).rows()
        assert len(session._rows) == 3
        session.clear_cache()
        assert len(session._rows) == 0


def naive_answer(graph: DataGraph, query: Query, null_semantics: bool):
    """The executable specification of *query*'s answer."""
    if query.kind.value == "rpq":
        return evaluate_rpq_naive(graph, query.plan)
    if query.kind.value == "data_rpq":
        return evaluate_data_rpq_naive(graph, query.plan, null_semantics)
    return evaluate_crpq_naive(graph, query.plan, null_semantics)


#: Two RPQs, a scoped REM, an REE, a cross-scope REM, and a binary
#: (ending on bit rows), a unary and a 3-ary CRPQ.
PROPERTY_QUERIES = (
    Query.parse("a.(a|b)*"),
    Query.parse("(a|b).b+.a"),
    DIALECT_QUERIES["rem"],
    Query.parse("((a|b)+)!=", dialect="ree"),
    DIALECT_QUERIES["rem-cross"],
    Query.parse("x, y :- (x, ree:((a|b)+)=, y), (y, b, w)", dialect="crpq"),
    Query.parse("x :- (x, a, y), (y, b+, z)", dialect="crpq"),
    Query.parse("x, y, z :- (x, a, y), (y, b, z)", dialect="crpq"),
)
VALUES = (0, 1, 2, NULL)
ACTIONS = ("add_edge", "add_edge", "remove_edge", "remove_edge", "add_node", "set_value", "remove_node")


def random_batch(graph: DataGraph, data, fresh_ids) -> None:
    """One batch of one to four drawn mutations of any kind."""
    with graph.batch() as batch:
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            ids = sorted(graph.node_ids)
            action = data.draw(st.sampled_from(ACTIONS))
            if action == "add_node" or len(ids) < 3:
                batch.add_node(next(fresh_ids), data.draw(st.sampled_from(VALUES)))
            elif action == "add_edge":
                pick = st.sampled_from(ids)
                batch.add_edge(data.draw(pick), data.draw(st.sampled_from("ab")), data.draw(pick))
            elif action == "remove_edge":
                edges = sorted((s.id, label, t.id) for s, label, t in graph.edges)
                if edges:
                    batch.remove_edge(*data.draw(st.sampled_from(edges)))
            elif action == "set_value":
                batch.set_value(data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(VALUES)))
            else:
                batch.remove_node(data.draw(st.sampled_from(ids)))


def csr_rows(row):
    """A CSR row pair as its offsets and each node's neighbors, sorted:
    a row is a set, whose order follows the graph's adjacency sets."""
    offsets, neighbors = row
    return list(offsets), [sorted(neighbors[offsets[u] : offsets[u + 1]]) for u in range(len(offsets) - 1)]


def assert_write_state_is_fresh(graph: DataGraph) -> None:
    """The snapshots a write carries forward equal fresh ones: the CSR
    index array for array, every label's statistics and edge count."""
    index = graph.label_index()
    carried, fresh = graph.compact_index(), CompactLabelIndex.from_label_index(LabelIndex(graph))
    assert carried.nodes == fresh.nodes and carried.values == fresh.values
    assert carried._counts == fresh._counts
    assert carried.node_objects == fresh.node_objects
    for table in ("forward", "backward"):
        carried_rows, fresh_rows = getattr(carried, table), getattr(fresh, table)
        assert carried_rows.keys() == fresh_rows.keys()
        for label, row in fresh_rows.items():
            assert csr_rows(carried_rows[label]) == csr_rows(row), (table, label)
    stats = graph_statistics(graph)
    for label in graph.alphabet | index.labels:
        assert stats.label(label) == _label_stats(index, label), label
        assert index.edge_count(label) == sum(map(len, index.successors(label).values())), label


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_re_answers_after_random_batches_equal_a_fresh_session_and_the_spec(data):
    """After every batch — edge inserts and removals, node adds, value
    changes, node removals — a warm session's answers equal a fresh
    session's and the naive spec's, its cached bit rows equal the fresh
    rows, every sub-expression's rows its row memo carried or evaluated
    equal a fresh algebra run's (and what they gained since the batch's
    base, the difference), and a lineage that changed a value or
    removed a node is never patched.  The CSR index, statistics and
    edge counts the batch carried forward equal fresh ones.  Half the
    runs drop the row memo after each batch: a re-answer then evaluates
    from nothing and still patches the kept entries."""
    graph = DataGraph(name="random-batches")
    size = data.draw(st.integers(min_value=3, max_value=7))
    for i in range(size):
        graph.add_node(f"n{i}", data.draw(st.sampled_from(VALUES)))
    ids = sorted(graph.node_ids)
    edge = st.tuples(st.sampled_from(ids), st.sampled_from("ab"), st.sampled_from(ids))
    for source, label, target in data.draw(st.lists(edge, max_size=14)):
        graph.add_edge(source, label, target)
    cells = [(query, null) for query in PROPERTY_QUERIES for null in (False, True)]
    session = GraphSession(graph, policy=COMPACT)
    for query, null in cells:
        session.run(query, null).rows()
    forget_rows = data.draw(st.booleans(), label="memo lost")
    fresh_ids = (f"m{i}" for i in range(1000))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        base = graph.version
        before = {key: kept.rows for key, kept in session._rows._entries.items() if kept.version == base}
        for label in graph.alphabet:
            graph_statistics(graph).label(label)  # summaries the batch patches or derives
        random_batch(graph, data, fresh_ids)
        assert_write_state_is_fresh(graph)
        if forget_rows:
            session._rows.clear()
        delta = graph.journal.composed(base, graph.version)
        patched = session.maintenance_stats()["patched"]
        fresh = GraphSession(graph, policy=COMPACT)
        for query, null in cells:
            served = session.run(query, null).rows()
            assert served == fresh.run(query, null).rows() == naive_answer(graph, query, null)
            key = (graph.version, query.key, null)
            warm_bits, fresh_bits = session._results.peek(key).bits, fresh._results.peek(key).bits
            assert (warm_bits is None) == (fresh_bits is None)
            if warm_bits is not None:
                assert warm_bits.nodes == fresh_bits.nodes and warm_bits.rows == fresh_bits.rows
        compact = graph.compact_index()
        for (expression, null), kept in session._rows._entries.items():
            if kept.version != graph.version:
                continue
            assert kept.rows == data_kernels.ree_relation(compact, expression, null).rows
            if kept.since == base and (expression, null) in before:
                new = BitRelation(compact.nodes, compact.position, kept.rows)
                old = BitRelation(compact.nodes, compact.position, before[(expression, null)])
                assert not old.minus(new) and kept.gained == new.minus(old).rows
        if delta.value_changes or delta.removed_nodes:
            assert session.maintenance_stats()["patched"] == patched


class TestPlanRetention:
    """Delta-aware CRPQ plan-cache invalidation: a delta only evicts the
    plans of queries that scan one of its touched labels."""

    QA = Query.parse("x, y :- (x, a.a, z), (z, a*, y)", dialect="crpq")
    QB = Query.parse("x, y :- (x, b, z), (z, b*, y)", dialect="crpq")

    def test_disjoint_delta_retains_plan(self):
        graph = chain_graph()
        session = GraphSession(graph)
        plan_a = session._crpq_plan(self.QA)
        plan_b = session._crpq_plan(self.QB)
        anchor = next(iter(graph.node_ids))
        with graph.batch() as batch:
            batch.add_edge(anchor, "b", anchor)
        # The b-delta retains QA's plan and replans QB.
        assert session._crpq_plan(self.QA) is plan_a
        assert session._crpq_plan(self.QB) is not plan_b
        assert session.maintenance_stats()["plans_retained"] == 1

    def test_node_only_delta_retains_every_plan(self):
        graph = chain_graph()
        session = GraphSession(graph)
        plan_a = session._crpq_plan(self.QA)
        with graph.batch() as batch:
            batch.add_node("retention-node", 1)
        assert session._crpq_plan(self.QA) is plan_a
        assert session.maintenance_stats()["plans_retained"] == 1

    def test_broken_journal_chain_replans(self):
        graph = chain_graph()
        session = GraphSession(graph)
        plan_a = session._crpq_plan(self.QA)
        graph.add_node("gap-node", 1)  # single-op mutation: no journal entry
        assert session._crpq_plan(self.QA) is not plan_a
        assert session.maintenance_stats()["plans_retained"] == 0

    def test_retained_plan_answers_match_fresh(self):
        graph = chain_graph()
        session = GraphSession(graph)
        before = session.run(self.QA).rows()
        assert before == GraphSession(graph).run(self.QA).rows()
        anchor = next(iter(graph.node_ids))
        with graph.batch() as batch:
            batch.add_edge(anchor, "b", anchor)
        after = session.run(self.QA).rows()
        assert session.maintenance_stats()["plans_retained"] >= 1
        assert after == GraphSession(graph).run(self.QA).rows()

    def test_clear_cache_forgets_retention_lineage(self):
        graph = chain_graph()
        session = GraphSession(graph)
        session._crpq_plan(self.QA)
        session.clear_cache()
        with graph.batch() as batch:
            batch.add_node("post-clear", 1)
        session._crpq_plan(self.QA)
        assert session.maintenance_stats()["plans_retained"] == 0
