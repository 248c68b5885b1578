"""E10 — baseline query-evaluation complexity and the REE engine ablation.

The tractability results of Sections 7–8 stand on the fact that (data)
RPQ evaluation itself has polynomial data complexity.  This experiment
measures evaluation times of representative RPQ, REE and REM queries over
random data graphs of growing size, and doubles as the ablation called
out in DESIGN.md: the bottom-up algebraic REE engine versus the
register-automaton product engine on identical inputs (both must return
identical answers; their constants differ).

Evaluation routes through the unified :class:`repro.api.GraphSession`
API (result caching disabled, so each timing measures a genuine
evaluation); the sub-engine ablation uses the engine facade directly,
since forcing a specific REE strategy is an engine-level knob.
"""

from __future__ import annotations

from typing import Sequence

from ..api import ExecutionPolicy, GraphSession, Query
from ..datagraph import generators
from ..engine import default_engine
from ..query.data_rpq import equality_rpq, memory_rpq
from ..query.rpq import rpq
from ..query.rpq_eval import evaluate_rpq_naive
from .harness import ExperimentResult, geometric_slowdown, timed

__all__ = ["run", "batch_queries"]


def run(sizes: Sequence[int] = (20, 50, 100, 200), seed: int = 29) -> ExperimentResult:
    """Run E10 over random graphs with the given node counts."""
    result = ExperimentResult(
        experiment="E10",
        claim="(data) RPQ evaluation scales polynomially; the two REE engines agree",
    )
    rpq_query = Query.rpq("(a|b)*.a.(a|b)*")
    naive_rpq_query = rpq("(a|b)*.a.(a|b)*")  # pre-built: keep parsing out of the timed region
    ree_query = equality_rpq("(a|b)* . ((a|b)+)= . (a|b)*")
    rem_query = Query.data_rpq("!x.((a|b)[x!=])+")
    uncached = ExecutionPolicy(cache_results=False)
    rpq_times, ree_times, rem_times = [], [], []
    for size in sizes:
        graph = generators.random_graph(
            size, int(size * 2), labels=("a", "b"), rng=seed, domain_size=max(2, size // 5)
        )
        session = GraphSession(graph, policy=uncached)
        engine_answers, rpq_time = timed(lambda: session.run(rpq_query).pairs())
        naive_answers, rpq_naive_time = timed(lambda: evaluate_rpq_naive(graph, naive_rpq_query))
        algebraic, algebraic_time = timed(
            lambda: default_engine().evaluate_data_rpq(graph, ree_query, engine="algebraic")
        )
        automaton, automaton_time = timed(
            lambda: default_engine().evaluate_data_rpq(graph, ree_query, engine="automaton")
        )
        _, rem_time = timed(lambda: session.run(rem_query).pairs())
        rpq_times.append(rpq_time)
        ree_times.append(algebraic_time)
        rem_times.append(rem_time)
        result.add_row(
            nodes=size,
            edges=graph.num_edges,
            rpq_seconds=rpq_time,
            rpq_naive_seconds=rpq_naive_time,
            rpq_speedup=(rpq_naive_time / rpq_time) if rpq_time > 0 else float("inf"),
            ree_algebraic_seconds=algebraic_time,
            ree_automaton_seconds=automaton_time,
            engines_agree=(algebraic == automaton) and (engine_answers == naive_answers),
            rem_seconds=rem_time,
        )
    for label, times in (("rpq", rpq_times), ("ree", ree_times), ("rem", rem_times)):
        growth = geometric_slowdown(times)
        if growth is not None:
            result.add_note(f"{label} average consecutive slowdown: {growth:.2f}x per size step")
    result.add_note("engines_agree must be yes on every row (REE engine ablation)")
    result.add_note(
        "rpq_speedup compares the session/engine evaluator against the seed per-source BFS"
    )
    return result


def batch_queries() -> list:
    """The e10 query batch used by the ``run_many`` benchmarks.

    A mix of RPQ, REE and REM plans over the ``{a, b}`` alphabet, heavy
    enough that each query costs more than the batch bookkeeping.
    """
    return [
        Query.rpq("(a|b)*.a.(a|b)*"),
        Query.rpq("a.(a|b)*.b"),
        Query.rpq("(a.b)+"),
        Query.rpq("b.a*"),
        Query.data_rpq(equality_rpq("(a|b)* . ((a|b)+)= . (a|b)*").expression),
        Query.data_rpq(equality_rpq("((a.b)+)=").expression),
        Query.data_rpq(memory_rpq("!x.((a|b)[x!=])+").expression),
        Query.data_rpq(memory_rpq("!x.(a[x!=].b)+").expression),
    ]
