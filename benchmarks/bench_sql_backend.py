"""Benchmark the forced SQL backend against the default compact route, on
the one shape where SQL used to win.

The workload is a citation-style graph: one long ``cites`` chain whose
edges run *against* node-insertion order (papers cite older papers), plus
a handful of ``tagged`` edges near the chain's old end.  The query
``(cites)*.tagged`` is closure heavy — its cost is dominated by the
reflexive-transitive ``cites`` closure over ≥1k nodes — and is evaluated
as a full relation.

The SQL backend's factored plan
(:func:`repro.sqlbackend.compile.factored_rpq_sql`) picks the selective
``tagged`` factor as its pivot — by the store's label statistics — and
grows the closure *backward from the pivot's endpoints* as a seeded
recursive CTE, so its work is bounded by the answer's reachable
neighbourhood.  That beat the NFA mask kernels 7-10x: a FIFO worklist
against the edges' direction moves masks one hop per pass, and a cost
rule routed this shape to SQL.  Now the compact and dict routes run the
bit-row algebra, whose swept closure finishes the whole chain in two
sweeps, and the answer comes 4-6x *faster* there than from the factored
plan; the rule is gone and the default policy routes compact.

All paths must produce bit-identical answers; CI compares the means
from BENCH_pr.json and fails when the default (compact) route falls
below 1.5x faster than forced ``sql`` (the dict ratio is printed for the
record).  The ratio is algorithmic — two sweeps over bit rows vs a
relational fixpoint — so the gate holds on any core count.
"""

from __future__ import annotations

import gc

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.datagraph import DataGraph

#: Chain length: comfortably past the ≥1k-node bar of the gate.
CHAIN = 1200
#: Rare-label edges near the old end of the chain: the factored plan's
#: pivot relation.
TAPS = 8
#: The closure-heavy full-relation query under test.
QUERY = "(cites)*.tagged"

_ANSWERS = {}


def _build_graph() -> DataGraph:
    graph = DataGraph()
    for i in range(CHAIN):
        graph.add_node(("paper", i), i)
    for i in range(CHAIN - 1):
        # Newer papers cite older ones: edges run against insertion order.
        graph.add_edge(("paper", i + 1), "cites", ("paper", i))
    for k in range(TAPS):
        graph.add_node(("topic", k), None)
        graph.add_edge(("paper", 1 + k), "tagged", ("topic", k))
    return graph


def _session(graph: DataGraph, backend: str) -> GraphSession:
    return GraphSession(
        graph, policy=ExecutionPolicy(backend=backend, cache_results=False)
    )


def _run(backend: str, benchmark):
    graph = _build_graph()
    session = _session(graph, backend)
    assert session._route(Query.parse(QUERY)).kernel == ("compact" if backend == "auto" else backend)
    warm = session.run(QUERY).pairs()  # build the D_G store / label index
    gc.collect()  # the timer sees the route, not the previous bench's garbage
    pairs = benchmark.pedantic(
        lambda: session.run(QUERY).pairs(), rounds=1, iterations=1
    )
    assert pairs == warm and len(pairs) > CHAIN, len(pairs)
    benchmark.extra_info["answer_pairs"] = len(pairs)
    _ANSWERS[backend] = frozenset(pairs)
    return pairs


def bench_sql_rpq_closure_pushdown(benchmark):
    _run("sql", benchmark)


def bench_compact_rpq_closure_pushdown(benchmark):
    _run("auto", benchmark)  # the default route: compact


def bench_dict_rpq_closure_pushdown(benchmark):
    _run("dict", benchmark)
    # Every backend ran (definition order): the gate's ratio only means
    # anything if the answers are bit-identical.
    assert _ANSWERS["sql"] == _ANSWERS["auto"] == _ANSWERS["dict"]
