"""Adaptive execution: re-planning, cached relations, distributed joins.

The invariant under test is the one the v2 planner is built on: the
adaptive executor may change join *order* mid-flight, reuse cached
relations as scan inputs and scatter joins across a worker pool, but
answers stay bit-identical to :func:`repro.query.crpq.evaluate_crpq_naive`.
Hypothesis drives random queries through a forced-re-plan executor
(`ADAPTIVE_REPLAN_RATIO` monkeypatched to 1.0 fires a re-plan after
every join) to hit re-planning on every multi-join query, not just the
ones whose estimates happen to be bad.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.engine import default_engine
from repro.planner import PlanTrace, execute_plan, graph_statistics, plan_crpq
from repro.planner import execute as execute_module
from repro.query.crpq import evaluate_crpq_naive
from repro.workloads import CRPQ_SHAPES, random_crpq

# No DeprecationWarning-as-error mark here: hypothesis pulls in
# mypy_extensions, whose import warns under some interpreter versions.

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


def run_both(graph, query, null_semantics=False, **hooks):
    engine = default_engine()
    expected = evaluate_crpq_naive(
        graph, query, null_semantics=null_semantics, engine=engine
    )
    plan = plan_crpq(query, graph.label_index(), graph_statistics(graph))
    actual = execute_plan(
        plan,
        graph,
        engine=engine,
        null_semantics=null_semantics,
        adaptive=True,
        **hooks,
    )
    assert actual == expected, plan.explain()
    return expected


class TestAdaptiveMatchesTheSpec:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(CRPQ_SHAPES),
        graph_seed=st.integers(0, 7),
        query_seed=st.integers(0, 500),
        num_atoms=st.integers(2, 4),
        null_semantics=st.booleans(),
    )
    def test_random_queries(self, shape, graph_seed, query_seed, num_atoms, null_semantics):
        graph = community(graph_seed * 7 + 1)
        query = random_crpq(
            LABELS,
            shape=shape,
            num_atoms=num_atoms,
            head_arity=2,
            data_atom_prob=0.3,
            closure_prob=0.25,
            self_loop_prob=0.2,
            rng=query_seed,
        )
        run_both(graph, query, null_semantics=null_semantics)

    # Derandomized: the naive nested-loop spec blows up (minutes, GBs) on
    # the rare 5-atom cartesian draw, which made tier-1 hang now and then.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from(CRPQ_SHAPES),
        query_seed=st.integers(0, 500),
        num_atoms=st.integers(3, 5),
    )
    def test_forced_mid_join_replans(self, shape, query_seed, num_atoms):
        """Ratio 1.0 makes every join a misestimate: the executor re-plans
        after each step and must still produce the specification answer.

        The module global is swapped by hand — a function-scoped
        ``monkeypatch`` does not reset between hypothesis examples.
        """
        graph = community(3)
        query = random_crpq(
            LABELS,
            shape=shape,
            num_atoms=num_atoms,
            head_arity=num_atoms + 2,  # every variable: nothing fuses, every join runs
            data_atom_prob=0.25,
            closure_prob=0.3,
            self_loop_prob=0.2,
            rng=query_seed,
        )
        trace = PlanTrace()
        previous = execute_module.ADAPTIVE_REPLAN_RATIO
        execute_module.ADAPTIVE_REPLAN_RATIO = 1.0
        try:
            run_both(graph, query, trace=trace)
        finally:
            execute_module.ADAPTIVE_REPLAN_RATIO = previous
        # self_loop_prob can append extra atoms beyond num_atoms
        assert sorted(trace.atom_order) == list(range(len(query.atoms)))

    def test_replan_actually_fires_and_is_traced(self, monkeypatch):
        monkeypatch.setattr(execute_module, "ADAPTIVE_REPLAN_RATIO", 1.0)
        graph = community(5)
        query = random_crpq(
            LABELS, shape="chain", num_atoms=4, head_arity=5, closure_prob=0.4, rng=13
        )
        trace = PlanTrace()
        run_both(graph, query, trace=trace)
        assert trace.replans >= 1
        assert any(replanned for *_, replanned in trace.steps)
        text = trace.describe()
        assert "re-planned remaining joins" in text
        assert "estimated" in text and "observed" in text


class TestRelationCache:
    def test_cached_relation_is_reused_and_answers_match(self):
        graph = community(9)
        query = random_crpq(LABELS, shape="chain", num_atoms=3, head_arity=4, rng=21)
        engine = default_engine()

        served = []

        def cache(atom, sources, targets):
            pairs = engine.evaluate_atom_ids(graph, atom.query, sources=sources, targets=targets)
            served.append(atom)
            return pairs

        trace = PlanTrace()
        run_both(graph, query, relation_cache=cache, trace=trace)
        assert served  # the executor consulted the cache
        assert trace.cache_hits == len(served)

    def test_declining_cache_changes_nothing(self):
        graph = community(10)
        query = random_crpq(LABELS, shape="star", num_atoms=3, head_arity=2, rng=22)
        run_both(graph, query, relation_cache=lambda atom, sources, targets: None)


class _NeverIterated(frozenset):
    """A cached answer that fails the test if anything walks it."""

    def __iter__(self):
        raise AssertionError("the cached relation was iterated")


class TestSessionRelationReuse:
    """A session serves CRPQ atom scans from its cached full relations
    without re-deriving id pairs from the decoded ``Node`` pairs."""

    CLOSURE = Query.parse("a+")
    #: z is in the head: existential, it would fuse the atoms into ``b.a+``
    JOIN = Query.parse("x, z, y :- (x, b, z), (z, a+, y)", dialect="crpq")

    def _warm(self, backend: str):
        graph = community(17, num_nodes=30)
        session = GraphSession(graph, policy=ExecutionPolicy(backend=backend))
        answer = session.run(self.CLOSURE).pairs()
        key = (graph.version, self.CLOSURE.key, False)
        _answer, bits = session._results.peek(key)
        session._results._entries[key] = (_NeverIterated(answer), bits)
        return graph, session, bits

    def test_seeded_scan_is_served_from_the_bit_rows(self):
        graph, session, bits = self._warm("compact")
        assert bits is not None and bits.count() == len(session.run(self.CLOSURE).pairs())
        rows = session.run(self.JOIN).rows()
        assert rows == evaluate_crpq_naive(graph, self.JOIN.plan)
        assert "1 cached relation(s) reused" in session.explain(self.JOIN)

    def test_seeded_scan_without_bit_rows_runs_the_seeded_kernel(self):
        graph, session, bits = self._warm("dict")
        assert bits is None
        rows = session.run(self.JOIN).rows()
        assert rows == evaluate_crpq_naive(graph, self.JOIN.plan)
        assert "0 cached relation(s) reused" in session.explain(self.JOIN)

    def test_unseeded_scan_still_reuses_an_entry_without_bit_rows(self):
        graph = community(17, num_nodes=30)
        session = GraphSession(graph, policy=ExecutionPolicy(backend="dict"))
        session.run(self.CLOSURE).pairs()
        anchor = Query.parse("x, y :- (x, a+, y), (y, a+, x)", dialect="crpq")
        assert session.run(anchor).rows() == evaluate_crpq_naive(graph, anchor.plan)
        assert "cached relation(s) reused" in session.explain(anchor)
        assert "0 cached relation(s) reused" not in session.explain(anchor)


class TestDistributedJoinHook:
    def test_join_runner_result_is_used(self, monkeypatch):
        monkeypatch.setattr(execute_module, "DISTRIBUTED_JOIN_MIN_ROWS", 0)
        graph = community(11)
        query = random_crpq(LABELS, shape="chain", num_atoms=3, head_arity=4, rng=31)

        calls = []

        def runner(left_rows, right_rows, left_key, right_key, right_only):
            calls.append((len(left_rows), len(right_rows)))
            table = {}
            for row in right_rows:
                table.setdefault(tuple(row[i] for i in right_key), []).append(row)
            return {
                left + tuple(right[i] for i in right_only)
                for left in left_rows
                for right in table.get(tuple(left[i] for i in left_key), ())
            }

        trace = PlanTrace()
        run_both(graph, query, join_runner=runner, trace=trace)
        assert calls
        assert trace.distributed_joins == len(calls)

    def test_busy_runner_falls_back_to_local(self, monkeypatch):
        monkeypatch.setattr(execute_module, "DISTRIBUTED_JOIN_MIN_ROWS", 0)
        graph = community(12)
        query = random_crpq(LABELS, shape="cycle", num_atoms=3, head_arity=3, rng=32)
        trace = PlanTrace()
        run_both(graph, query, join_runner=lambda *a: None, trace=trace)
        assert trace.distributed_joins == 0

    def test_small_joins_are_not_offered(self):
        graph = community(13)
        query = random_crpq(LABELS, shape="chain", num_atoms=2, head_arity=3, rng=33)

        def exploding(*args):  # pragma: no cover - must never run
            raise AssertionError("join below DISTRIBUTED_JOIN_MIN_ROWS was offered")

        run_both(graph, query, join_runner=exploding)
