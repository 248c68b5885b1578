"""Seeded (semijoin) evaluation: restricted kernels equal filtered relations.

``seeded_product_relation(space, sources, targets)`` must equal the full
``product_relation`` filtered to the given endpoint sets — for every
space kind (NFA product, register product) and through every
driver (sequential, source blocks), since the CRPQ planner leans on both
interchangeably.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy
from repro.datagraph import generators
from repro.datapaths import parse_rem
from repro.engine import default_engine
from repro.engine.partition import parallel_product_relation
from repro.engine.product import product_relation, seeded_product_relation
from repro.engine.spaces import NfaProductSpace, RegisterProductSpace
from repro.planner import route_query


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(
        3, 10, intra_edges_per_node=2, bridges_per_community=2,
        labels=("a",), bridge_label="b", rng=5, domain_size=3,
    )


def spaces_under_test(graph):
    engine = default_engine()
    index = graph.label_index()
    yield NfaProductSpace(index, engine.compile_rpq("a*.b.a*"))
    yield RegisterProductSpace(index, engine.compile_data_rpq(parse_rem("!x.(a[x=])+")), False)


def restrictions(space):
    nodes = space.index.nodes
    full = product_relation(space)
    sources = tuple(nodes[: len(nodes) // 2])
    targets = {v for _, v in full} | set(nodes[-3:])
    return full, sources, targets


class TestSeededEqualsFilteredFull:
    @pytest.mark.parametrize("which", [0, 1], ids=["nfa", "register"])
    def test_sequential(self, graph, which):
        space = list(spaces_under_test(graph))[which]
        full, sources, targets = restrictions(space)
        expected = {(u, v) for u, v in full if u in set(sources) and v in targets}
        assert seeded_product_relation(space, sources=sources, targets=targets) == expected
        # One-sided restrictions too.
        assert seeded_product_relation(space, sources=sources) == {
            (u, v) for u, v in full if u in set(sources)
        }
        assert seeded_product_relation(space, targets=targets) == {
            (u, v) for u, v in full if v in targets
        }

    @pytest.mark.parametrize("backend", ["fork", "thread"])
    @pytest.mark.parametrize("which", [0, 1], ids=["nfa", "register"])
    def test_source_block_driver(self, graph, which, backend):
        space = list(spaces_under_test(graph))[which]
        full, sources, targets = restrictions(space)
        expected = {(u, v) for u, v in full if u in set(sources) and v in targets}
        got = parallel_product_relation(
            space, num_blocks=3, backend=backend, sources=sources, targets=targets
        )
        assert got == expected

    def test_empty_restrictions_short_circuit(self, graph):
        space = next(spaces_under_test(graph))
        assert seeded_product_relation(space, sources=()) == set()
        assert seeded_product_relation(space, targets=set()) == set()
        assert parallel_product_relation(space, sources=()) == set()

    def test_unrestricted_seeded_is_the_full_relation(self, graph):
        for space in spaces_under_test(graph):
            assert seeded_product_relation(space) == product_relation(space)


class TestEngineAtomEntryPoint:
    def test_evaluate_atom_ids_filters_and_sorts_sources(self, graph):
        from repro.query import rpq

        engine = default_engine()
        full = engine.evaluate_rpq_ids(graph, rpq("a*.b"))
        some = list(graph.node_ids)[:8]
        expected = frozenset((u, v) for u, v in full if u in set(some))
        # Sources arrive as an unordered set with a foreign id mixed in.
        got = engine.evaluate_atom_ids(graph, rpq("a*.b"), sources=set(some) | {"no-such"})
        assert got == expected
        route = route_query(rpq("a*.b"), graph, ExecutionPolicy(backend="dict"))
        assert engine.evaluate_atom_ids(
            graph, rpq("a*.b"), sources=set(some) | {"no-such"}, route=route
        ) == expected

    def test_evaluate_atom_ids_data_dialect(self, graph):
        from repro.query import equality_rpq

        engine = default_engine()
        query = equality_rpq("((a|b)+)=")
        full = {(a.id, b.id) for a, b in engine.evaluate_data_rpq(graph, query)}
        some = set(list(graph.node_ids)[10:20])
        got = engine.evaluate_atom_ids(graph, query, targets=some)
        assert got == frozenset((u, v) for u, v in full if v in some)
