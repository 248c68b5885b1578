"""Benchmark data-RPQ kernels: per-source REM baseline vs the mask kernel.

The workload is the multi-community scenario
(:func:`repro.workloads.multi_community_scenario`): dense ``knows``
clusters joined by thin ``bridge`` edges, with data values drawn from a
bounded domain — exactly the regime where runs from different sources
meet in the same ``(node, state, valuation)`` configuration and the
full-relation mask-propagation pass over the
:class:`~repro.engine.spaces.RegisterProductSpace` shares their
downstream work.  Two register-automaton queries are measured:

* a memory RPQ binding the source's value and requiring every hop to
  differ from it (``!x.((knows|bridge)[x!=])+``), and
* the scenario's same-value reachability REE, translated to a register
  automaton (``((knows|bridge)+)=``).

Each runs through the historical per-source product search
(:func:`repro.engine.data.register_automaton_relation_per_source`) and
through the shared-kernel mask pass
(:func:`repro.engine.data.register_automaton_relation`).  Both must
return identical relations; CI compares the means from BENCH_pr.json and
fails when the mask kernel is less than 2x faster than the per-source
baseline (see the bench-smoke gate).  The baseline calls the raw
automaton's ``silent_closure`` per edge; the mask pass takes closures
from the :class:`~repro.datapaths.register_automata.RegisterStepper`
memo.

The REE is measured a third way, untranslated: the bottom-up bit-row
algebra (:func:`repro.engine.data.ree_relation`) over the same index,
which the same gate holds at least 2x under the translated mask pass.

Since ISSUE 24 the same algebra answers scoped REMs with registers as
origin masks.  ``bench_datarpq_rem_bit_rows`` runs the memory RPQ
through it, gated >= 2x the *compact* register mask pass
(``bench_datarpq_compact_mask_kernel``, the kernel it replaced);
``bench_datarpq_rem_distinct_values`` repeats it with every value
distinct — where valuations multiply under the register product and the
algebra does not notice; ``bench_datarpq_rem_deep_chain`` holds the
position worklist of ``e+`` in origin mode within 3x of the closed-mode
closure (``bench_datarpq_ree_deep_chain``) on a 1,200-deep chain, where
a level-synchronous ``e+`` pays one round per level (~500 ms).

Plain RPQs run on the same algebra, and closed mode's
``e+`` shares origin mode's swept worklist: ``bench_rpq_reversed_chain``
(``next+`` on a 1,200-node chain whose edges all point against the index
order) is gated at most 2x ``bench_rpq_forward_chain`` (measures ~1.2x) —
the FIFO worklist it replaced paid one pass per level against the
ordering (~96x).
"""

from __future__ import annotations

import pytest

from repro.datagraph import GraphBuilder, generators
from repro.datapaths import compile_rem, parse_ree, parse_rem, ree_to_rem
from repro.datapaths.fragments import regex_to_rem
from repro.engine import compact as compact_kernels
from repro.engine import data as data_kernels
from repro.regular import parse_regex
from repro.workloads import multi_community_scenario

#: Communities × community size: ~120 nodes with a value domain of 5,
#: small enough for the per-source baseline to stay CI-sized but dense
#: enough in repeated values for valuation sharing to show.
NUM_COMMUNITIES = 6
COMMUNITY_SIZE = 20
#: The memory RPQ: walks whose every hop differs from the source's value.
REM_QUERY = "!x.((knows|bridge)[x!=])+"
#: The equality RPQ (REE → REM translation): same-value reachability.
REE_QUERY = "((knows|bridge)+)="
#: Nodes of the all-distinct chain under ``!x.(a[x!=])+`` / ``((a)+)!=``.
CHAIN_NODES = 1200


@pytest.fixture(scope="module")
def community_graph():
    return multi_community_scenario(NUM_COMMUNITIES, COMMUNITY_SIZE, rng=17).source


@pytest.fixture(scope="module")
def community_index(community_graph):
    return community_graph.label_index()


@pytest.fixture(scope="module")
def chain_index():
    compact = generators.chain(CHAIN_NODES - 1, value_of=lambda i: i).compact_index()
    compact.value_classes  # derived once per snapshot, as in a session
    return compact


@pytest.fixture(scope="module")
def rem_automaton():
    return compile_rem(parse_rem(REM_QUERY))


@pytest.fixture(scope="module")
def ree_automaton():
    return compile_rem(ree_to_rem(parse_ree(REE_QUERY)))


@pytest.fixture(scope="module")
def expected_rem(community_index, rem_automaton):
    return data_kernels.register_automaton_relation(community_index, rem_automaton)


@pytest.fixture(scope="module")
def expected_ree(community_index, ree_automaton):
    return data_kernels.register_automaton_relation(community_index, ree_automaton)


def bench_datarpq_per_source_baseline(benchmark, community_index, rem_automaton, expected_rem):
    pairs = benchmark.pedantic(
        data_kernels.register_automaton_relation_per_source,
        args=(community_index, rem_automaton),
        rounds=1,
        iterations=1,
    )
    assert pairs == expected_rem


def bench_datarpq_mask_kernel(benchmark, community_index, rem_automaton, expected_rem):
    pairs = benchmark.pedantic(
        data_kernels.register_automaton_relation,
        args=(community_index, rem_automaton),
        rounds=1,
        iterations=1,
    )
    assert pairs == expected_rem


def bench_datarpq_ree_per_source_baseline(
    benchmark, community_index, ree_automaton, expected_ree
):
    pairs = benchmark.pedantic(
        data_kernels.register_automaton_relation_per_source,
        args=(community_index, ree_automaton),
        rounds=1,
        iterations=1,
    )
    assert pairs == expected_ree


def bench_datarpq_ree_mask_kernel(benchmark, community_index, ree_automaton, expected_ree):
    pairs = benchmark.pedantic(
        data_kernels.register_automaton_relation,
        args=(community_index, ree_automaton),
        rounds=1,
        iterations=1,
    )
    assert pairs == expected_ree


def bench_datarpq_ree_bit_rows(benchmark, community_index, expected_ree):
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(community_index, parse_ree(REE_QUERY)),
        rounds=1,
        iterations=1,
    )
    assert relation.id_pairs() == expected_ree


# ----------------------------------------------------------------------
# The memory RPQ on bit rows: registers as origin masks (ISSUE 24)
# ----------------------------------------------------------------------
def bench_datarpq_compact_mask_kernel(benchmark, community_graph, rem_automaton, expected_rem):
    relation = benchmark.pedantic(
        compact_kernels.register_relation,
        args=(community_graph.compact_index(), rem_automaton),
        rounds=1,
        iterations=1,
    )
    assert relation.id_pairs() == expected_rem


def bench_datarpq_rem_bit_rows(benchmark, community_graph, expected_rem):
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(community_graph.compact_index(), parse_rem(REM_QUERY)),
        rounds=1,
        iterations=1,
    )
    assert relation.id_pairs() == expected_rem


def bench_datarpq_rem_distinct_values(benchmark, community_graph, rem_automaton):
    distinct = community_graph.map_values(lambda node: node.id).compact_index()
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(distinct, parse_rem(REM_QUERY)),
        rounds=1,
        iterations=1,
    )
    assert relation.id_pairs() == compact_kernels.register_relation(distinct, rem_automaton).id_pairs()


def bench_datarpq_ree_deep_chain(benchmark, chain_index):
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(chain_index, parse_ree("((a)+)!=")),
        rounds=1,
        iterations=1,
    )
    assert relation.count() == CHAIN_NODES * (CHAIN_NODES - 1) // 2


def bench_datarpq_rem_deep_chain(benchmark, chain_index):
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(chain_index, parse_rem("!x.(a[x!=])+")),
        rounds=1,
        iterations=1,
    )
    assert relation.count() == CHAIN_NODES * (CHAIN_NODES - 1) // 2


# ----------------------------------------------------------------------
# Plain RPQs on the same algebra: one closure routine, either edge direction
# ----------------------------------------------------------------------
def _next_chain(reverse: bool):
    builder = GraphBuilder(name="next-chain")
    for i in range(CHAIN_NODES):
        builder.node(i, 0)
    for i in range(1, CHAIN_NODES):
        builder.edge(i, "next", i - 1) if reverse else builder.edge(i - 1, "next", i)
    return builder.build().compact_index()


def _bench_next_chain(benchmark, reverse: bool):
    index = _next_chain(reverse)
    relation = benchmark.pedantic(
        data_kernels.ree_relation,
        args=(index, regex_to_rem(parse_regex("next+"))),
        rounds=1,
        iterations=1,
    )
    assert relation.count() == CHAIN_NODES * (CHAIN_NODES - 1) // 2


def bench_rpq_forward_chain(benchmark):
    _bench_next_chain(benchmark, reverse=False)


def bench_rpq_reversed_chain(benchmark):
    _bench_next_chain(benchmark, reverse=True)
