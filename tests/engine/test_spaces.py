"""The ProductSpace protocol: every dialect through one kernel stack.

The generic phase kernels and the ``blocks`` driver must agree with the
dialect's executable spec for every space — the NFA product (plain
RPQs) and the register product (REE/REM data RPQs, including valuations
with one source per block).  GXPath's ``a*`` / ``a-*`` (the bit-row
algebra's closure, on either index) is held to the per-start BFS spec
here too.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy
from repro.datagraph import DataGraph, generators
from repro.datapaths import compile_rem, parse_ree, parse_rem, ree_to_rem
from repro.engine import NfaProductSpace, RegisterProductSpace, default_engine, product
from repro.engine.data import (
    register_automaton_relation,
    register_automaton_relation_per_source,
)
from repro.engine.partition import parallel_product_relation
from repro.gxpath.ast import AxisStar
from repro.gxpath.evaluation import evaluate_path
from repro.planner.router import route_point

REM_POOL = [
    "!x.((a|b)[x!=])+",
    "!x.(a|b)+[x=]",
    "(a|b)*",
    "!x.(a.(b[x=]|a))+",
]

REE_POOL = [
    "(a|b)* . ((a|b)+)= . (a|b)*",
    "((a|b)+)!=",
]

graphs = st.builds(
    lambda size, edges, seed: generators.random_graph(
        size, edges, labels=("a", "b"), rng=seed, domain_size=3
    ),
    size=st.integers(min_value=1, max_value=18),
    edges=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=10_000),
)


def rem_space(index, text, null_semantics=False):
    return RegisterProductSpace(index, compile_rem(parse_rem(text)), null_semantics)


def naive_closure(index, label, inverse=False):
    """Per-start BFS closure: the executable spec of GXPath ``a*`` / ``a-*``."""
    adjacency = index.predecessors(label) if inverse else index.successors(label)
    pairs = set()
    for start in index.nodes:
        seen = {start}
        queue = deque((start,))
        while queue:
            current = queue.popleft()
            pairs.add((start, current))
            for neighbour in adjacency.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return pairs


# ----------------------------------------------------------------------
# The register product space vs the per-source spec
# ----------------------------------------------------------------------
class TestRegisterProductSpace:
    @settings(max_examples=25, deadline=None)
    @given(graph=graphs, text=st.sampled_from(REM_POOL), nulls=st.booleans())
    def test_mask_kernel_equals_per_source_search(self, graph, text, nulls):
        index = graph.label_index()
        automaton = compile_rem(parse_rem(text))
        assert register_automaton_relation(
            index, automaton, nulls
        ) == register_automaton_relation_per_source(index, automaton, nulls)

    @settings(max_examples=15, deadline=None)
    @given(graph=graphs, text=st.sampled_from(REE_POOL))
    def test_translated_ree_agrees_too(self, graph, text):
        index = graph.label_index()
        automaton = compile_rem(ree_to_rem(parse_ree(text)))
        assert register_automaton_relation(
            index, automaton
        ) == register_automaton_relation_per_source(index, automaton)

    @settings(max_examples=10, deadline=None)
    @given(
        graph=graphs,
        text=st.sampled_from(REM_POOL),
        num_blocks=st.integers(min_value=1, max_value=4),
    )
    def test_block_driver_agrees_on_the_register_space(self, graph, text, num_blocks):
        index = graph.label_index()
        space = rem_space(index, text)
        expected = set(register_automaton_relation_per_source(index, space.automaton))
        assert (
            parallel_product_relation(space, num_blocks=num_blocks, backend="thread")
            == expected
        )

    @pytest.mark.parametrize("nulls", [False, True], ids=["plain", "nulls"])
    @pytest.mark.parametrize("text", REM_POOL)
    def test_forked_blocks_agree_on_the_register_space(self, text, nulls):
        # Each forked worker inherits the register space (interned
        # valuations included) by copy-on-write and walks its own block.
        graph = generators.random_graph(16, 40, labels=("a", "b"), rng=29, domain_size=3)
        index = graph.label_index()
        space = rem_space(index, text, nulls)
        expected = set(register_automaton_relation_per_source(index, space.automaton, nulls))
        assert parallel_product_relation(space, num_blocks=3, backend="fork") == expected

    def test_valuations_with_one_source_per_block(self):
        """A chain split into single-source blocks: each block's register
        walk must still see every node past its source."""
        graph = DataGraph(alphabet={"a"})
        values = [1, 2, 1, 3, 1, 2]
        for position, value in enumerate(values):
            graph.add_node(f"n{position}", value)
        for position in range(len(values) - 1):
            graph.add_edge(f"n{position}", "a", f"n{position + 1}")
        index = graph.label_index()
        space = rem_space(index, "!x.(a[x!=])+")
        expected = set(
            register_automaton_relation_per_source(index, space.automaton)
        )
        # sanity: the expected relation really does depend on the register
        assert ("n0", "n1") in expected and ("n0", "n2") not in expected
        blocks = len(index.nodes)
        assert parallel_product_relation(space, num_blocks=blocks, backend="thread") == expected


# ----------------------------------------------------------------------
# GXPath a* / a-* (the bit-row algebra's closure) vs the per-start BFS spec
# ----------------------------------------------------------------------
def axis_star_ids(graph, label, inverse, backend):
    route = route_point(graph, ExecutionPolicy(backend=backend))
    pairs = evaluate_path(graph, AxisStar(label, inverse), route=route)
    return {(source.id, target.id) for source, target in pairs}


class TestAxisStarClosure:
    @settings(max_examples=25, deadline=None)
    @given(graph=graphs, label=st.sampled_from(["a", "b"]), inverse=st.booleans())
    def test_axis_star_equals_per_start_bfs(self, graph, label, inverse):
        expected = naive_closure(graph.label_index(), label, inverse)
        for backend in ("compact", "dict"):
            assert axis_star_ids(graph, label, inverse, backend) == expected, backend

    def test_inverse_axis_star_is_the_transpose(self):
        graph = generators.random_graph(12, 30, labels=("a",), rng=9)
        expected = naive_closure(graph.label_index(), "a", inverse=True)
        for backend in ("compact", "dict"):
            forward = axis_star_ids(graph, "a", False, backend)
            assert {(v, u) for u, v in forward} == axis_star_ids(graph, "a", True, backend) == expected


# ----------------------------------------------------------------------
# The NFA space through the generic composition
# ----------------------------------------------------------------------
class TestNfaSpaceGenericComposition:
    @settings(max_examples=20, deadline=None)
    @given(graph=graphs, text=st.sampled_from(["a", "(a|b)*", "a.(a|b)*.b"]))
    def test_product_relation_matches_full_relation(self, graph, text):
        index = graph.label_index()
        automaton = default_engine().compile_rpq(text)
        space = NfaProductSpace(index, automaton)
        assert product.product_relation(space) == product.full_relation(index, automaton)

    def test_empty_graph_is_empty_for_every_space(self):
        index = DataGraph(alphabet={"a"}).label_index()
        automaton = default_engine().compile_rpq("a")
        rem = compile_rem(parse_rem("!x.(a[x!=])+"))
        for space in (
            NfaProductSpace(index, automaton),
            RegisterProductSpace(index, rem),
        ):
            assert product.product_relation(space) == set()
            assert parallel_product_relation(space, backend="thread") == set()

    def test_rejects_unknown_backend_before_running(self):
        index = generators.chain(2).label_index()
        space = NfaProductSpace(index, default_engine().compile_rpq("a"))
        with pytest.raises(Exception):
            parallel_product_relation(space, backend="gpu")
