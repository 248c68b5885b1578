"""The source-block driver, called directly, answers as the sequential pass.

No route reaches :mod:`repro.engine.partition` any more (its docstring
says why it is kept); these cases pin it by calling it.  Every answer
here is compared with a default session's, with the sequential
product relation or with the unrestricted relation filtered after the
fact — seeded evaluation only changes *where* the restriction happens,
never what comes back.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.api import GraphSession, Query
from repro.datagraph import generators
from repro.engine import default_engine, product
from repro.engine.partition import (
    parallel_product_relation,
    partitioned_product_relation,
    split_blocks,
)
from repro.engine.spaces import NfaProductSpace

#: The driver's worker budgets: even blocks, and more (uneven) blocks
#: than a small host has cores.
BUDGETS = {"blocks": 2, "blocks-5": 5}

QUERIES = [
    Query.parse("a.(b|c)+"),
    Query.parse("(a|b)*"),
    Query.parse("((a|c))=", dialect="ree"),
    Query.parse("!x.((a|b)[x!=])+", dialect="rem"),
]

#: Plain RPQs for the seeded driver.
RPQS = ["a.(b|c)+", "(a|b)*", "(a|c)+", "c.a*"]


def make_graph():
    return generators.community_graph(
        3, 40, intra_edges_per_node=3, bridges_per_community=4,
        labels=("a", "b"), bridge_label="c", rng=11, domain_size=4,
    )


@pytest.fixture(scope="module")
def graph():
    return make_graph()


def space_of(graph, text: str) -> NfaProductSpace:
    return NfaProductSpace(graph.label_index(), default_engine().compile_rpq(text))


def driver_pairs(graph, query, budget, null_semantics=False, sources=None):
    """*query*'s relation from the driver, as ``Node`` pairs."""
    space = default_engine().space_for_atom(graph, query.plan, null_semantics=null_semantics)
    pairs = partitioned_product_relation(space, "blocks", workers=BUDGETS[budget], sources=sources)
    return frozenset((graph.node(u), graph.node(v)) for u, v in pairs)


class TestDriverMatchesTheSession:
    """The driver's relation, over the NFA or the register product, is
    the session's answer on its one (sequential) route."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("query", QUERIES, ids=[str(q.plan) for q in QUERIES])
    def test_matches_the_default_route(self, graph, budget, query):
        assert driver_pairs(graph, query, budget) == GraphSession(graph).run(query).pairs()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_null_semantics_reaches_the_driver(self, graph, budget):
        query = Query.parse("((a|b|c)+)=", dialect="ree")
        for null_semantics in (False, True):
            expected = GraphSession(graph).run(query, null_semantics=null_semantics).pairs()
            assert driver_pairs(graph, query, budget, null_semantics) == expected, null_semantics

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_empty_relation(self, graph, budget):
        assert driver_pairs(graph, Query.parse("nolabel"), budget) == frozenset()

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_one_source_is_a_point_query(self, graph, budget):
        # Seeded with one source, the driver answers ``targets``.
        query = QUERIES[0]
        session = GraphSession(graph)
        for source in list(graph.node_ids)[:4]:
            seeded = driver_pairs(graph, query, budget, sources=[source])
            assert frozenset(v for _, v in seeded) == session.targets(query, source)


class TestDriverAfterWrites:
    """After a batch of writes, the driver on the new graph answers as a
    session that repaired its cached relation across the batch."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_insert_only_batch(self, budget):
        graph = make_graph()
        session = GraphSession(graph)
        query = QUERIES[0]
        assert session.run(query).pairs() == driver_pairs(graph, query, budget)
        with graph.batch() as batch:
            batch.add_node("patched-node", 99)
            batch.add_edge("patched-node", "a", next(iter(graph.node_ids)))
        assert session.run(query).pairs() == driver_pairs(graph, query, budget)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_removal_batch(self, budget):
        graph = make_graph()
        session = GraphSession(graph)
        query = QUERIES[1]
        session.run(query).pairs()
        with graph.batch() as batch:
            batch.remove_node(next(iter(graph.node_ids)))
        assert session.run(query).pairs() == driver_pairs(graph, query, budget)

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_consecutive_batches(self, budget):
        graph = make_graph()
        session = GraphSession(graph)
        query = QUERIES[0]
        session.run(query).pairs()
        anchor = next(iter(graph.node_ids))
        with graph.batch() as batch:
            batch.add_node("compose-1", 5)
            batch.add_edge("compose-1", "a", anchor)
        with graph.batch() as batch:
            batch.add_node("compose-2", 6)
            batch.add_edge("compose-2", "b", "compose-1")
        assert session.run(query).pairs() == driver_pairs(graph, query, budget)


class TestSeededDrivers:
    """``partitioned_product_relation`` with *sources* / *targets*: the
    per-atom semijoin form of a seeded scan."""

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("text", RPQS)
    def test_sources_restrict_the_relation(self, graph, budget, text):
        workers = BUDGETS[budget]
        space = space_of(graph, text)
        full = partitioned_product_relation(space, "blocks", workers=workers)
        assert full == product.product_relation(space)
        sources = set(list(graph.node_ids)[::5])
        seeded = partitioned_product_relation(
            space, "blocks", workers=workers, sources=sorted(sources)
        )
        assert seeded == {pair for pair in full if pair[0] in sources}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    @pytest.mark.parametrize("text", RPQS[:2])
    def test_targets_restrict_the_relation(self, graph, budget, text):
        workers = BUDGETS[budget]
        space = space_of(graph, text)
        full = partitioned_product_relation(space, "blocks", workers=workers)
        targets = {target for _, target in list(full)[: max(1, len(full) // 7)]}
        masked = partitioned_product_relation(
            space, "blocks", workers=workers, targets=targets
        )
        assert masked == {pair for pair in full if pair[1] in targets}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_sources_and_targets_compose(self, graph, budget):
        workers = BUDGETS[budget]
        space = space_of(graph, "(a|c)+")
        full = partitioned_product_relation(space, "blocks", workers=workers)
        source, target = next(iter(full))
        point = partitioned_product_relation(
            space, "blocks", workers=workers, sources=[source], targets={target}
        )
        assert point == {(source, target)}

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_empty_restrictions_yield_nothing(self, graph, budget):
        workers = BUDGETS[budget]
        space = space_of(graph, "a")
        assert partitioned_product_relation(space, "blocks", workers=workers, sources=[]) == set()
        assert partitioned_product_relation(space, "blocks", workers=workers, targets=set()) == set()

    @pytest.mark.parametrize("text", RPQS)
    def test_forked_and_threaded_blocks_agree(self, graph, text):
        # The fork backend ships the space to one worker per block by
        # copy-on-write; the thread backend (hosts without fork) shares
        # it.  Same blocks, same answers.
        space = space_of(graph, text)
        threaded = parallel_product_relation(space, num_blocks=4, backend="thread")
        forked = parallel_product_relation(space, num_blocks=4, backend="fork")
        assert forked == threaded == product.product_relation(space)


def test_default_budget_and_backend_follow_the_host(graph, host_shape, monkeypatch):
    """Without a budget the driver cuts one block per core (at most 8);
    ``"auto"`` forks where ``fork`` is available, else it threads."""
    cores, fork = host_shape
    from repro.engine import partition

    seen = {}

    def spy_split(nodes, num_blocks):
        seen["blocks"] = num_blocks
        return split_blocks(nodes, num_blocks)

    real_forked = partition.run_forked

    def spy_forked(*args, **kwargs):
        seen["forked"] = True
        return real_forked(*args, **kwargs)

    monkeypatch.setattr(partition, "split_blocks", spy_split)
    monkeypatch.setattr(partition, "run_forked", spy_forked)
    space = space_of(graph, "(a|b)*")
    assert parallel_product_relation(space) == product.product_relation(space)
    assert seen["blocks"] == cores
    assert seen.get("forked", False) == (cores > 1 and fork and partition.fork_available())


def test_no_other_module_imports_the_driver():
    """Every ``repro`` module but the driver's own two imports cleanly
    without loading them: no route can reach the driver."""
    script = (
        "import importlib, pkgutil, sys, repro\n"
        "skip = {'repro.__main__', 'repro.engine.partition', 'repro.engine.forkpool'}\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name not in skip:\n"
        "        importlib.import_module(info.name)\n"
        "loaded = sorted(n for n in ('repro.engine.partition', 'repro.engine.forkpool')"
        " if n in sys.modules)\n"
        "print(len(sys.modules), loaded)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.split()[-1] == "[]", done.stdout
