"""The one decision point: route choices, overrides, and "explain is what ran".

Three invariants: (1) the :class:`Route` resolved for a query is the one
the policy says it should be — fully resolved, never
``"auto"``; (2) what ``explain`` prints is what runs: the kernel family
observed at the kernel entry points equals ``route.kernel`` for
``run``, ``run_many`` and ``targets`` alike; (3) whatever route fires,
answers equal the naive specification across all five dialects.

The whole module runs under every host shape of the ``host_shape``
fixture — (1 core), (N cores + fork), (N cores, no fork) — since no
route may depend on the host.  Nothing is routed by graph size: the
default policy resolves ``compact`` on every graph.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import spec_answers
from repro.api import ExecutionPolicy, GraphSession, Query, QueryKind
from repro.datagraph import DataGraph, generators
from repro.datagraph.compact import CompactLabelIndex
from repro.datapaths.fragments import is_scoped
from repro.engine import EvaluationEngine
from repro.engine import compact as compact_kernels
from repro.engine import data as data_kernels
from repro.engine import product as product_kernels
from repro.gxpath import evaluation as gxpath_evaluation
from repro.planner import Route, graph_statistics, route_query
from repro.planner import stats as stats_module
from repro.planner.router import route_point
from repro.sqlbackend import backend as sql_backend

pytestmark = pytest.mark.usefixtures("host_shape")

#: One representative query per dialect (the data RPQ is a scoped REM:
#: the bit-row algebra's, on whichever index its route names).
DIALECTS = {
    "rpq": Query.parse("a.(a|b)+"),
    "data_rpq": Query.parse("!x.((a|b)[x=])+", dialect="rem"),
    "crpq": Query.parse("z(x, y) :- (x, a+, z), (z, (a|b), y)", dialect="crpq"),
    "gxpath_node": Query.parse("<a*.b>", dialect="gxpath-node"),
    "gxpath_path": Query.parse("a*.a-", dialect="gxpath-path"),
}

#: ... and, for "explain is what ran", both data-RPQ paths: an REE (the
#: algebra again) and a REM reading x across ↓y (the register product).
SPIED_DIALECTS = {
    **DIALECTS,
    "ree": Query.parse("((a|b)+)=", dialect="ree"),
    "rem_cross": Query.parse("!x.(a|b).!y.((a|b)[x!= && y=])+", dialect="rem"),
}

#: The policy of every configuration the property sweeps.
CONFIGS = {
    "default": ExecutionPolicy(),
    "dict": ExecutionPolicy(backend="dict"),
    "compact": ExecutionPolicy(backend="compact"),
    "sql": ExecutionPolicy(backend="sql"),
    "manual": ExecutionPolicy(routing="manual"),
}


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(
        3, 12, intra_edges_per_node=2, bridges_per_community=2,
        labels=("a",), bridge_label="b", rng=7, domain_size=4,
    )


def session_under(config: str, graph) -> GraphSession:
    return GraphSession(graph, policy=CONFIGS[config])


class KernelSpy:
    """Record which kernel family actually ran.

    Wraps the kernel entry points — the compact register kernel, the
    dict forward expansion and mask pass of ``product``, the SQL
    backend's ``evaluate_*``, the bit-row algebra and the GXPath row
    evaluator — and counts calls by family (``dict`` / ``compact`` /
    ``sql``).  The algebra and the GXPath evaluator run over either
    index type, so their family is read off the index they were handed;
    ``algebra`` counts the algebra's calls on their own.  ``nfa`` names
    every call into the NFA product — its point BFS on either index, the
    compact NFA kernels — and every ``EvaluationEngine.compile_rpq``: no
    query on the default route makes one (the ``sql`` route compiles its
    CTE from the automaton).
    """

    FAMILIES = (
        (compact_kernels, "register_relation", "compact"),
        (product_kernels, "forward_expand", "dict"),
        (product_kernels, "propagate_masks", "dict"),
        (sql_backend, "evaluate_rpq_pairs", "sql"),
        (sql_backend, "evaluate_plan_rows", "sql"),
    )

    #: The NFA product's entry points (module, name), recorded in ``nfa``.
    NFA = (
        (compact_kernels, "nfa_relation"),
        (compact_kernels, "nfa_reachable_targets"),
        (product_kernels, "reachable_targets"),
        (EvaluationEngine, "compile_rpq"),
    )

    def __init__(self, monkeypatch):
        self.families: Counter = Counter()
        self.algebra = 0
        self.nfa = []
        for module, name, family in self.FAMILIES:
            monkeypatch.setattr(module, name, self._counting(getattr(module, name), family))
        algebra = data_kernels.ree_relation

        def ree_relation(index, *args, **kwargs):
            self.algebra += 1
            self.families["compact" if isinstance(index, CompactLabelIndex) else "dict"] += 1
            return algebra(index, *args, **kwargs)

        monkeypatch.setattr(data_kernels, "ree_relation", ree_relation)
        rows = gxpath_evaluation._RowEvaluator

        def row_evaluator(index, *args, **kwargs):
            self.families["compact" if isinstance(index, CompactLabelIndex) else "dict"] += 1
            return rows(index, *args, **kwargs)

        monkeypatch.setattr(gxpath_evaluation, "_RowEvaluator", row_evaluator)
        for owner, name in self.NFA:
            monkeypatch.setattr(owner, name, self._recording(getattr(owner, name), name))

    def _recording(self, function, name):
        def recorded(*args, **kwargs):
            self.nfa.append(name)
            return function(*args, **kwargs)

        return recorded

    def _counting(self, function, family):
        def counted(*args, **kwargs):
            self.families[family] += 1
            return function(*args, **kwargs)

        return counted

    def reset(self):
        self.families.clear()
        self.algebra = 0
        self.nfa.clear()

    def assert_ran(self, route: Route, context):
        """What ran is what *route* says: its kernel family, and nothing
        else."""
        assert set(self.families) == {route.kernel}, (context, dict(self.families))


@pytest.fixture
def spy(monkeypatch):
    return KernelSpy(monkeypatch)


# ----------------------------------------------------------------------
# Route choices
# ----------------------------------------------------------------------
class TestRouteChoices:
    def test_a_route_is_a_kernel_a_reason_and_an_estimate(self):
        assert [field.name for field in dataclasses.fields(Route)] == [
            "kernel", "reason", "estimate",
        ]
        assert [Route(kernel, "why").strategy for kernel in ("dict", "compact", "sql")] == [
            "sequential", "compact", "sql",
        ]

    @pytest.mark.parametrize("name", sorted(DIALECTS))
    def test_default_routes_are_resolved_and_local(self, graph, name):
        route = route_query(DIALECTS[name], graph, ExecutionPolicy())
        assert isinstance(route, Route)
        assert route.kernel in {"dict", "compact", "sql"}  # never "auto"
        assert route.strategy in {"sequential", "compact", "sql"}
        # Only a CRPQ's join plan prices an answer size.
        if name == "crpq":
            assert route.estimate >= 0.0 and "(est ≈" in route.describe()
        else:
            assert route.estimate is None and "(est ≈" not in route.describe()
        assert route.describe().startswith("route: ")

    @pytest.mark.parametrize("name", sorted(DIALECTS))
    def test_small_graph_routes_compact(self, graph, name):
        # 36 nodes: no size rule sends the default policy to the dict kernels.
        for policy in (None, ExecutionPolicy()):
            route = route_query(DIALECTS[name], graph, policy)
            assert (route.strategy, route.kernel) == ("compact", "compact"), (name, policy)
        assert route_point(graph).kernel == "compact"

    @pytest.mark.parametrize("shape", ["communities", "supplier", "chain", "random"])
    def test_auto_resolves_compact_on_every_shape(self, shape):
        # Whatever the graph or the estimate, ``auto`` resolves the
        # compact kernels.
        graph = ROUTER_GRAPHS[shape]()
        queries = [*DIALECTS.values(), Query.parse("(a|b)+"), Query.parse("(cites)*.tagged")]
        for query in queries:
            route = route_query(query, graph, ExecutionPolicy(), stats=graph_statistics(graph))
            assert route.strategy == "compact", (shape, str(query))
            assert "pool" not in route.describe()

    def test_forced_backend_overrides_routing(self, graph):
        route = route_query(DIALECTS["rpq"], graph, ExecutionPolicy(backend="dict"))
        assert (route.strategy, route.kernel) == ("sequential", "dict")
        assert route.reason == "policy override"
        route = route_query(DIALECTS["rpq"], graph, ExecutionPolicy(backend="sql"))
        assert route.strategy == "sql"

    def test_forced_sql_resolves_to_what_data_rpqs_can_run(self, graph):
        route = route_query(DIALECTS["data_rpq"], graph, ExecutionPolicy(backend="sql"))
        assert route.kernel == "dict" and route.strategy == "sequential"
        assert "no SQL encoding" in route.reason

    @pytest.mark.parametrize("backend", ["sql", "dict"])
    @pytest.mark.parametrize("name", ["gxpath_node", "gxpath_path"])
    def test_gxpath_declines_sql(self, graph, name, backend, spy):
        policy = ExecutionPolicy(backend=backend)
        query = DIALECTS[name]
        route = route_query(query, graph, policy)
        assert route.kernel == route_query(query, graph).kernel == "compact"
        assert f"backend='{backend}' declined" in route.reason
        session = GraphSession(graph, policy=policy)
        assert session.explain(query).splitlines()[0] == route.describe()
        expected = GraphSession(graph).run(query).rows()
        spy.reset()
        assert session.run(query).rows() == expected
        spy.assert_ran(route, name)

    def test_manual_routing_is_ignored(self, graph):
        for query in DIALECTS.values():
            manual = route_query(query, graph, ExecutionPolicy(routing="manual"))
            assert manual == route_query(query, graph, ExecutionPolicy())
        oracle = ExecutionPolicy(routing="manual", backend="dict")
        assert route_query(DIALECTS["rpq"], graph, oracle).strategy == "sequential"

    def test_stats_sharpen_the_estimate(self, graph):
        with_stats = route_query(
            DIALECTS["crpq"], graph, ExecutionPolicy(), stats=graph_statistics(graph)
        )
        without = route_query(DIALECTS["crpq"], graph, ExecutionPolicy())
        # Stats only ever sharpen (shrink data-atom / widen closure
        # numbers); neither changes the kernel.
        assert with_stats.kernel == without.kernel == "compact"
        assert with_stats.estimate >= 0.0 and without.estimate >= 0.0


def citation_chain(length=1200, taps=8):
    """The ``bench_sql_backend`` graph: one long ``cites`` chain against
    insertion order, ``tagged`` on 0.66 % of the nodes."""
    graph = DataGraph()
    for i in range(length):
        graph.add_node(("paper", i), i)
    for i in range(length - 1):
        graph.add_edge(("paper", i + 1), "cites", ("paper", i))
    for k in range(taps):
        graph.add_node(("topic", k), None)
        graph.add_edge(("paper", 1 + k), "tagged", ("topic", k))
    return graph


#: The router graphs of this module, by shape: the small community graph,
#: the 1,100-node random supplier graph and 1,208-node citation chain, and
#: the 2,100-node random graph the concatenation case routes on.
ROUTER_GRAPHS = {
    "communities": lambda: generators.community_graph(
        3, 12, intra_edges_per_node=2, bridges_per_community=2,
        labels=("a",), bridge_label="b", rng=7, domain_size=4,
    ),
    "supplier": lambda: generators.random_graph(
        1100, 2400, labels=("supplies_to", "alt_for"), rng=3
    ),
    "chain": lambda: citation_chain(),
    "random": lambda: generators.random_graph(2100, 4400, labels=("a", "b"), rng=5),
}


class TestRouterSeesTheRegex:
    """Above 1,024 nodes, where a cost rule used to send a selective pivot
    in front of a deep closure to SQL, every shape routes compact; RPQ
    routes carry no estimate, CRPQ routes their plan's."""

    LARGE_SHAPES = {
        "bare closure": ("supplier", Query.parse("supplies_to+")),
        "closure CRPQ": (
            "supplier",
            Query.parse(
                "x, z :- (x, alt_for, y), (y, supplies_to+, z), (z, alt_for, w)", dialect="crpq"
            ),
        ),
        "GXPath axis star": ("supplier", Query.parse("supplies_to*.alt_for-", dialect="gxpath-path")),
        "pivot before a deep closure": ("chain", Query.parse("(cites)*.tagged")),
    }

    @pytest.mark.parametrize("case", sorted(LARGE_SHAPES))
    def test_large_shapes_route_compact(self, case, spy):
        shape, query = self.LARGE_SHAPES[case]
        graph = ROUTER_GRAPHS[shape]()
        assert graph.num_nodes >= 1024
        session = GraphSession(graph)
        route = session._route(query)
        strategy = "compact"
        assert route.strategy == strategy
        if query.kind is QueryKind.CRPQ:
            assert 0 <= route.estimate < graph.num_nodes**2
        else:
            assert route.estimate is None
        assert session.explain(query).startswith(f"route: {strategy} ")
        oracle = GraphSession(graph, policy=ExecutionPolicy(routing="manual", backend="dict"))
        expected = oracle.run(query).rows()
        spy.reset()
        assert session.run(query).rows() == expected
        spy.assert_ran(route, case)

    def test_concatenation_on_a_large_graph_routes_compact(self):
        graph = generators.random_graph(2100, 4400, labels=("a", "b"), rng=5)
        route = route_query(Query.parse("a.b.a"), graph, ExecutionPolicy())
        assert route.estimate is None
        assert route.describe().startswith("route: compact — ")
        assert route.strategy == "compact"


class TestPointQueriesSkipTheRouter:
    def test_point_route_is_the_constant_time_part(self, graph):
        route = route_point(graph)
        assert (route.kernel, route.estimate) == ("compact", None)
        assert route_point(graph, ExecutionPolicy(backend="dict")).kernel == "dict"
        assert route_point(graph, ExecutionPolicy(backend="sql")).kernel == "sql"

    def test_targets_and_holds_never_call_route_query(self, graph, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the point path must not pay for a full route")

        session = GraphSession(graph)
        expected = session.run(DIALECTS["rpq"]).pairs()
        fresh = GraphSession(graph)
        monkeypatch.setattr("repro.api.session.route_query", forbidden)
        monkeypatch.setattr(stats_module, "graph_statistics", forbidden)
        source, target = next(iter(expected))
        assert fresh.targets(DIALECTS["rpq"], source.id) == frozenset(
            v for u, v in expected if u == source
        )
        assert fresh.holds(DIALECTS["rpq"], source.id, target.id)


class TestTheDefaultRouteIsTheAlgebra:
    @pytest.mark.parametrize("name", sorted(SPIED_DIALECTS))
    def test_no_query_reaches_the_nfa_product(self, graph, name, spy):
        """Under the default policy every dialect — in ``run``,
        ``targets`` and ``holds`` form — runs on the CSR index (the
        algebra, the GXPath evaluator, the register product of a
        cross-scope REM), and nothing compiles an NFA or walks its
        product."""
        query = SPIED_DIALECTS[name]
        expected = spec_answers(graph, query)
        spy.reset()
        assert GraphSession(graph).run(query) == expected
        sources = sorted(graph.node_ids)[:4]
        for source in sources:  # fresh sessions: an RPQ point is a cache miss
            if query.arity == 2:
                answer = {v for u, v in expected if u.id == source}
                assert GraphSession(graph).targets(query, source) == answer, source
                for target in sources:
                    holds = (graph.node(source), graph.node(target)) in expected
                    assert GraphSession(graph).holds(query, source, target) == holds
            else:
                holds = graph.node(source) in expected
                assert GraphSession(graph).holds(query, source) == holds
        assert spy.nfa == [], (name, spy.nfa)
        assert set(spy.families) == {"compact"}, (name, dict(spy.families))


# ----------------------------------------------------------------------
# Explain is what ran
# ----------------------------------------------------------------------
graphs = st.builds(
    lambda size, seed: generators.random_graph(
        size, size * 2, labels=("a", "b"), rng=seed, domain_size=3
    ),
    # small graphs, where a size rule used to pick the dict kernels
    size=st.sampled_from([5, 9, 18, 26]),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestExplainIsWhatRan:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graph=graphs)
    def test_every_dialect_under_every_configuration(self, graph, spy):
        for name, query in SPIED_DIALECTS.items():
            expected = spec_answers(graph, query)
            for config in CONFIGS:
                context = (name, config, graph.num_nodes)
                session = session_under(config, graph)
                route = session._route(query)
                assert route.kernel != "auto"
                assert session.explain(query).splitlines()[0] == route.describe(), context

                spy.reset()
                assert session.run(query) == expected, context
                spy.assert_ran(route, context)
                if query.kind is QueryKind.DATA_RPQ:
                    # the body names the data-RPQ kernel, and a decline its reason
                    scoped = is_scoped(query.plan.expression)
                    body = session.explain(query).splitlines()[1]
                    assert ("bit-row algebra" in body) == scoped, context
                    assert ("reads register 'x' across ↓y" in body) == (not scoped), context
                    assert spy.algebra == (1 if scoped else 0), context

                # run_many takes the same dispatcher, plan cache and trace
                spy.reset()
                batch = session_under(config, graph)
                assert batch.run_many([query])[0] == expected, context
                spy.assert_ran(route, context)
                if query.kind is QueryKind.CRPQ:
                    assert (query.key, False) in batch._plan_traces, context
                    if route.kernel != "sql":
                        assert "adaptive:" in batch.explain(query), context

                if query.arity == 2 and query.kind is not QueryKind.CRPQ:
                    source = next(iter(graph.node_ids))
                    spy.reset()
                    point = session_under(config, graph)
                    assert point.targets(query, source) == frozenset(
                        v for u, v in expected if u.id == source
                    ), context
                    if query.kind is QueryKind.RPQ:
                        # the algebra seeded at the source, on the point
                        # route's index (on sql, its seeded CTE)
                        spy.assert_ran(route_point(graph, CONFIGS[config]), context)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_batches_agree_with_run(self, graph, config):
        # One batch of every dialect, a duplicate included: the in-order
        # loop answers each plan as ``run`` does under the same policy.
        queries = [*DIALECTS.values(), DIALECTS["rpq"]]
        expected = [session_under(config, graph).run(query).rows() for query in queries]
        results = session_under(config, graph).run_many(queries)
        assert [result.rows() for result in results] == expected
        assert [result.query for result in results] == queries

    def test_run_many_uses_the_session_plan_cache_and_trace(self, graph):
        session = GraphSession(graph)
        query = DIALECTS["crpq"]
        session.run_many([query])
        assert (graph.version, query.key) in session._crpq_plans
        assert "adaptive:" in session.explain(query)


class TestExplainShowsTheRoute:
    def test_route_header_and_trace(self, graph):
        session = GraphSession(graph, policy=ExecutionPolicy())
        query = DIALECTS["crpq"]
        before = session.explain(query)
        assert before.startswith("route: ")
        session.run(query).rows()  # results are lazy; force the evaluation
        after = session.explain(query)
        assert "adaptive:" in after  # the recorded PlanTrace rides along
        assert "estimated" in after and "observed" in after

    def test_rpq_explain_keeps_nfa_section(self, graph):
        session = GraphSession(graph)
        text = session.explain(DIALECTS["rpq"])
        assert text.startswith("route: ")
