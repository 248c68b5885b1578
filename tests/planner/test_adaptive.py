"""Adaptive execution: re-planning, cached relations, the local hash join.

The invariant under test is the one the v2 planner is built on: the
adaptive executor may change join *order* mid-flight and reuse cached
relations as scan inputs, but answers stay bit-identical to
:func:`repro.query.crpq.evaluate_crpq_naive`.
Hypothesis drives random queries through a forced-re-plan executor
(`ADAPTIVE_REPLAN_RATIO` monkeypatched to 1.0 fires a re-plan after
every join) to hit re-planning on every multi-join query, not just the
ones whose estimates happen to be bad.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import generators
from repro.engine import default_engine
from repro.engine.bitrelation import BitRelation
from repro.planner import PlanTrace, execute_plan, graph_statistics, plan_crpq
from repro.planner import execute as execute_module
from repro.query.crpq import evaluate_crpq_naive
from repro.workloads import random_crpq
from repro.workloads.random_workloads import CRPQ_SHAPES

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
    expected = evaluate_crpq_naive(graph, query, null_semantics)
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
        entry = session._results.peek(key)
        entry.answer = _NeverIterated(answer)
        return graph, session, entry.bits

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


def nested_loop_join(left, right):
    """The join specification: every compatible pair of rows, with the
    left columns first and then the right-only ones."""
    (left_columns, left_rows), (right_columns, right_rows) = left, right
    out = left_columns + tuple(c for c in right_columns if c not in left_columns)
    rows = set()
    for l_row in left_rows:
        for r_row in right_rows:
            bound = dict(zip(left_columns, l_row))
            if all(bound.get(c, value) == value for c, value in zip(right_columns, r_row)):
                bound.update(zip(right_columns, r_row))
                rows.add(tuple(bound[c] for c in out))
    return out, rows


def random_rows(rng, arity, count, domain):
    return {tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(count)}


class TestLocalHashJoin:
    """``_join_rows``, the executor's one join: build on the smaller side,
    probe with the larger, and treat an all-key side as a filter."""

    @pytest.mark.parametrize(
        "seed, left_size, right_size", [(0, 200, 150), (1, 40, 150), (2, 120, 120)]
    )
    def test_matches_a_nested_loop_join(self, seed, left_size, right_size):
        rng = random.Random(seed)
        left = (("x", "y"), random_rows(rng, 2, left_size, 30))
        right = (("y", "z"), random_rows(rng, 2, right_size, 30))
        assert execute_module._join_rows(left, right, ("y",)) == nested_loop_join(left, right)

    def test_multi_column_keys(self):
        rng = random.Random(99)
        left = (("x", "y", "z"), random_rows(rng, 3, 120, 6))
        right = (("z", "w", "x"), random_rows(rng, 3, 120, 6))
        joined = execute_module._join_rows(left, right, ("x", "z"))
        assert joined == nested_loop_join(left, right)
        assert joined[0] == ("x", "y", "z", "w")

    def test_disjoint_sides_join_empty(self):
        left = (("x", "y"), {(1, 2), (3, 4)})
        right = (("y", "z"), {(100, 200)})
        assert execute_module._join_rows(left, right, ("y",)) == (("x", "y", "z"), set())

    def test_no_keys_is_a_cartesian_product(self):
        left = (("x",), {(1,), (2,)})
        right = (("y", "z"), {(3, 4), (5, 6), (7, 8)})
        joined = execute_module._join_rows(left, right, ())
        assert joined == nested_loop_join(left, right)
        assert len(joined[1]) == 6

    @pytest.mark.parametrize("all_keys", ["left", "right"])
    def test_an_all_key_side_filters_the_other(self, all_keys):
        rng = random.Random(7)
        wide = (("x", "y", "z"), random_rows(rng, 3, 150, 8))
        narrow = (("z", "x"), random_rows(rng, 2, 20, 8))
        left, right = (narrow, wide) if all_keys == "left" else (wide, narrow)
        columns, rows = execute_module._join_rows(left, right, ("x", "z"))
        assert columns == wide[0]  # the filtered side keeps its columns
        expected = nested_loop_join(wide, narrow)[1]
        assert rows == expected and rows <= wide[1]

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_a_one_key_filter_keeps_bit_rows(self, column):
        nodes = [f"n{i}" for i in range(12)]
        position = {node: i for i, node in enumerate(nodes)}
        rng = random.Random(5)
        rows = {}
        for target in range(12):
            mask = rng.getrandbits(12)
            if mask:
                rows[target] = mask
        bits = BitRelation(nodes, position, rows)
        wanted = {nodes[i] for i in range(0, 12, 3)}
        columns, filtered = execute_module._join_rows(
            (("x", "y"), bits), ((column,), {(node,) for node in wanted}), (column,)
        )
        assert columns == ("x", "y")
        assert isinstance(filtered, BitRelation)
        at = ("x", "y").index(column)
        assert filtered.id_pairs() == {pair for pair in bits.id_pairs() if pair[at] in wanted}
