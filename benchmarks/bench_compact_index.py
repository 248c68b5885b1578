"""Benchmark the compact CSR backend against the dict kernels.

Four comparisons on multi-community scenario graphs:

* **RPQ kernels** (gated) — the bit-row algebra
  (:func:`~repro.engine.data.ree_relation` on the regex as a
  register-free REM), which answers every sequential full RPQ, against
  the compact NFA mask kernel (:func:`~repro.engine.compact.nfa_relation`)
  it replaced, each summed over four CSR relations: a closure ending in
  the sparse ``bridge`` label, the dense closure, a selective letter in
  front of a closure, and a two-step word.  Both hand back the same bit
  rows (checked after the timed region); CI gates the algebra at
  >= 1.3x (measures ~2.2x; see the compact backend gate).  A single-core
  constant-factor claim: no host condition.
* **Data-RPQ mask pass** (gated) — the REM register kernel over CSR
  rows vs the dict mask pass, through the engine with
  ``engine="automaton"`` (since ISSUE 24 a session answers this scoped
  REM with the bit-row algebra on either index; the register kernels
  keep cross-scope REMs and are forced here).  Both sit on the
  same :class:`~repro.datapaths.register_automata.RegisterStepper`
  (interned ``(state, valuation)`` pairs, per-value closure memo); the
  compact kernel additionally runs on int configurations, so CI gates
  it at >= 1x dict (measured 2.0x): it may not lose.
* **Closure answer vs bit rows + one decode** (gated) —
  ``session.run(closure).pairs()`` beside the bare algebra call that
  produces the same relation as per-target source bitmasks, and one
  ``BitRelation.node_pairs`` decode of those rows.  The difference is
  everything between the fixpoint and the user: routing, the session,
  and how often the answer is materialised.  CI gates answer <= 1.5x
  (rows + decode): decoded once it measures 0.9-1.0x, twice it would be
  ~1.9x (with the relation materialised three times in Python the
  answer once cost 15.6x the rows).  A single-core constant-factor
  claim.
* **GXPath path vs its RPQ twin** (gated) — ``knows*.bridge`` asked as
  a GXPath path (:func:`~repro.gxpath.evaluation.evaluate_path`) and as
  an RPQ, on the compact route, answer decoded both times.  Both run the
  bit-row algebra, so CI gates GXPath at <= 1.3x the RPQ (measures
  ~1.0x; the pair-set evaluator it replaced measured 5.9x).  A
  single-core constant-factor claim.

Correctness is asserted *after* the timed region — holding a second
large answer set alive while timing would poison the measurement with
gen-2 GC passes over the first one.  Each bench warms the index its
backend reads and runs ``gc.collect()`` before timing, so the timer
sees kernel work, not allocator debt from earlier benchmarks.
"""

from __future__ import annotations

import gc

from repro.api import GraphSession, Query
from repro.api.executors import ExecutionPolicy
from repro.datagraph import DataGraph
from repro.datapaths.fragments import regex_to_rem
from repro.engine import compact as compact_kernels
from repro.engine import data as data_kernels
from repro.engine import default_engine
from repro.gxpath import parse_gxpath_path
from repro.gxpath.evaluation import evaluate_path
from repro.planner.router import route_point
from repro.regular import parse_regex
from repro.workloads import multi_community_scenario

#: Dense reachability with a sparse final label: the closure touches
#: every community through the bridge cut, the answer stays small.
RPQ_QUERY = "(knows|bridge)*.bridge"
#: The register kernel's workload: remember one value, then differ.
REM_QUERY = "!x.((knows|bridge)[x!=])+"
#: A dense closure: nearly every pair is an answer, so materialising the
#: answer — not the fixpoint — is what the user waits for.
CLOSURE_QUERY = "(knows|bridge)+"
#: The kernel pair's relations: a selective letter in front of a dense
#: closure, and a word, beside the two closures above.
KERNEL_QUERIES = (RPQ_QUERY, CLOSURE_QUERY, "bridge.(knows|bridge)*", "knows.knows")
#: One relation in two dialects: a GXPath path and an RPQ, the same text.
TWIN_QUERY = "knows*.bridge"


def _scenario_graph(num_communities: int, community_size: int) -> DataGraph:
    return multi_community_scenario(
        num_communities=num_communities, community_size=community_size, rng=5
    ).source


def _warm(graph: DataGraph, backend: str) -> None:
    """Build the index the backend reads outside the timed region."""
    graph.label_index()
    if backend == "compact":
        graph.compact_index()
    gc.collect()


# ----------------------------------------------------------------------
# RPQ kernels on the CSR index: the algebra against the NFA mask kernel
# ----------------------------------------------------------------------
def _kernel_runs(graph: DataGraph):
    """``(algebra, nfa)``: each a no-argument call returning the bit rows
    of every :data:`KERNEL_QUERIES` relation."""
    compact = graph.compact_index()
    expressions = [parse_regex(text) for text in KERNEL_QUERIES]
    rems = [regex_to_rem(expression) for expression in expressions]
    automata = [default_engine().compile_rpq(expression) for expression in expressions]
    return (
        lambda: [data_kernels.ree_relation(compact, rem) for rem in rems],
        lambda: [compact_kernels.nfa_relation(compact, automaton) for automaton in automata],
    )


def _bench_rpq_kernels(benchmark, kernel: str):
    graph = _scenario_graph(16, 80)
    _warm(graph, "compact")
    algebra, nfa = _kernel_runs(graph)
    relations = benchmark.pedantic(
        algebra if kernel == "algebra" else nfa, rounds=1, iterations=1
    )
    benchmark.extra_info["num_pairs"] = sum(relation.count() for relation in relations)
    if kernel == "algebra":
        assert [relation.rows for relation in relations] == [relation.rows for relation in nfa()]


def bench_compact_rpq_algebra(benchmark):
    _bench_rpq_kernels(benchmark, "algebra")


def bench_compact_rpq_nfa_kernel(benchmark):
    _bench_rpq_kernels(benchmark, "nfa")


# ----------------------------------------------------------------------
# Data-RPQ register mask pass: the second gated pair
# ----------------------------------------------------------------------
def _bench_datarpq_mask_pass(benchmark, backend: str):
    graph = _scenario_graph(6, 50)
    query = Query.parse(REM_QUERY, dialect="rem").plan
    engine = default_engine()

    def register_pass(backend: str):
        route = route_point(graph, ExecutionPolicy(backend=backend))
        return engine.evaluate_data_rpq(graph, query, engine="automaton", route=route)

    _warm(graph, backend)
    pairs = benchmark.pedantic(register_pass, args=(backend,), rounds=1, iterations=1)
    if backend == "compact":
        assert pairs == register_pass("dict")


def bench_compact_datarpq_mask_pass(benchmark):
    _bench_datarpq_mask_pass(benchmark, "compact")


def bench_dict_datarpq_mask_pass(benchmark):
    _bench_datarpq_mask_pass(benchmark, "dict")


# ----------------------------------------------------------------------
# A closure's answer against its bare bit rows and one decode: the decode gate
# ----------------------------------------------------------------------
def _closure_rows(graph: DataGraph):
    return data_kernels.ree_relation(graph.compact_index(), regex_to_rem(parse_regex(CLOSURE_QUERY)))


def bench_compact_closure_rows(benchmark):
    graph = _scenario_graph(6, 50)
    _warm(graph, "compact")
    relation = benchmark.pedantic(_closure_rows, args=(graph,), rounds=1, iterations=1)
    benchmark.extra_info["num_pairs"] = relation.count()


def bench_compact_closure_decode(benchmark):
    graph = _scenario_graph(6, 50)
    relation = _closure_rows(graph)
    objects = graph.compact_index().node_objects
    _warm(graph, "compact")
    pairs = benchmark.pedantic(relation.node_pairs, args=(objects,), rounds=1, iterations=1)
    benchmark.extra_info["num_pairs"] = len(pairs)
    assert len(pairs) == relation.count()


def bench_compact_closure_answer(benchmark):
    graph = _scenario_graph(6, 50)
    session = GraphSession(
        graph, policy=ExecutionPolicy(cache_results=False, backend="compact")
    )
    # One untimed run builds statistics, automaton and node-object
    # column, so the timed one is the steady state a warm service pays.
    expected = session.run(CLOSURE_QUERY).count()
    _warm(graph, "compact")
    pairs = benchmark.pedantic(
        lambda: session.run(CLOSURE_QUERY).pairs(), rounds=1, iterations=1
    )
    benchmark.extra_info["num_pairs"] = len(pairs)
    assert len(pairs) == expected


# ----------------------------------------------------------------------
# One relation as a GXPath path and as an RPQ: the GXPath gate
# ----------------------------------------------------------------------
def _bench_path_answer(benchmark, dialect: str):
    graph = _scenario_graph(16, 80)
    route = route_point(graph, ExecutionPolicy(backend="compact"))
    path, regex = parse_gxpath_path(TWIN_QUERY), parse_regex(TWIN_QUERY)
    runs = {
        "gxpath": lambda: evaluate_path(graph, path),
        "rpq": lambda: default_engine().evaluate_rpq(graph, regex, route),
    }
    graph.compact_index().node_objects  # the decode column, built untimed
    _warm(graph, "compact")
    pairs = benchmark.pedantic(runs[dialect], rounds=5, iterations=1)
    benchmark.extra_info["num_pairs"] = len(pairs)
    if dialect == "gxpath":
        assert pairs == runs["rpq"]()


def bench_gxpath_path_answer(benchmark):
    _bench_path_answer(benchmark, "gxpath")


def bench_rpq_path_answer(benchmark):
    _bench_path_answer(benchmark, "rpq")

