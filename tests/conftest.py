"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
import random
import sys

import pytest
from hypothesis import strategies as st

from repro.datagraph import NULL, DataGraph, GraphBuilder, values_differ, values_equal
from repro.datapaths.conditions import And, Equal, NotEqual, Or
from repro.datapaths.rem import (
    RemBind,
    RemConcat,
    RemEpsilon,
    RemLetter,
    RemPlus,
    RemTest,
    RemUnion,
)
from repro.engine import forkpool
from repro.gxpath.ast import (
    Axis,
    AxisStar,
    NodeAnd,
    NodeExists,
    NodeNot,
    NodeOr,
    NodeTest,
    PathConcat,
    PathEpsilon,
    PathEqual,
    PathNotEqual,
    PathUnion,
)
from repro.regular import EPSILON, concat, letter, plus, star, union

#: The host shapes a suite can run under: ``(cores, fork)``.
HOST_SHAPES = {"1-core": (1, True), "n-core-fork": (4, True), "n-core-no-fork": (4, False)}


@pytest.fixture(params=sorted(HOST_SHAPES))
def host_shape(request, monkeypatch):
    """Pin ``os.cpu_count()`` and fork availability, so a suite shows it
    gives the same verdict on every host: no route or policy may depend
    on the host's cores or on ``fork``.  Returns ``(cores, fork)``."""
    cores, fork = HOST_SHAPES[request.param]
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    real = forkpool.fork_available
    # ``from ..forkpool import fork_available`` bindings hold the same
    # object under their own name; replace each of them.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "fork_available", None) is real:
            monkeypatch.setattr(module, "fork_available", lambda: fork and real())
    return cores, fork


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for tests needing randomness."""
    return random.Random(20170514)  # PODS 2017 start date


@pytest.fixture
def toy_graph() -> DataGraph:
    """A small social-network-like data graph used by many tests.

    Four people, a ``knows`` relation and a ``worksAt`` relation; two of
    the people share a data value (the city they live in).
    """
    return (
        GraphBuilder(name="toy")
        .node("alice", "Edinburgh")
        .node("bob", "Edinburgh")
        .node("carol", "Paris")
        .node("dave", "Chicago")
        .node("uni", "UoE")
        .edge("alice", "knows", "bob")
        .edge("bob", "knows", "carol")
        .edge("carol", "knows", "dave")
        .edge("dave", "knows", "alice")
        .edge("alice", "worksAt", "uni")
        .edge("bob", "worksAt", "uni")
        .build()
    )


@pytest.fixture
def chain_graph_10() -> DataGraph:
    """A 10-edge chain with all-distinct data values."""
    builder = GraphBuilder(name="chain10")
    for i in range(11):
        builder.node(f"c{i}", f"value{i}")
    for i in range(10):
        builder.edge(f"c{i}", "a", f"c{i + 1}")
    return builder.build()


@st.composite
def regex_strategy(draw, depth=3):
    """Regex ASTs over ``a``/``b``/``c`` and ε, built by the smart
    constructors (shared by the parser round trip and the kernel suites)."""
    if depth == 0:
        return draw(st.sampled_from([letter("a"), letter("b"), letter("c"), EPSILON]))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(st.sampled_from([letter("a"), letter("b"), letter("c")]))
    if choice == 1:
        return concat(draw(regex_strategy(depth=depth - 1)), draw(regex_strategy(depth=depth - 1)))
    if choice == 2:
        return union(draw(regex_strategy(depth=depth - 1)), draw(regex_strategy(depth=depth - 1)))
    if choice == 3:
        return star(draw(regex_strategy(depth=depth - 1)))
    return plus(draw(regex_strategy(depth=depth - 1)))


# ----------------------------------------------------------------------
# Tricky data values and REM ASTs (the compact-backend and wire suites)
# ----------------------------------------------------------------------
#: equal across types (1 == 1.0 == True), the SQL null and two distinct
#: NaN objects (each equal to nothing, itself included)
TRICKY_VALUES = [1, 1.0, True, 2, "1", NULL, float("nan"), float("nan")]


@st.composite
def tricky_graphs(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    builder = GraphBuilder(name="tricky")
    for i in range(size):
        builder.node(f"n{i}", draw(st.sampled_from(TRICKY_VALUES)))
    ends = st.integers(min_value=0, max_value=size - 1)
    for source, label, target in draw(
        st.lists(st.tuples(ends, st.sampled_from("ab"), ends), max_size=3 * size)
    ):
        builder.edge(f"n{source}", label, f"n{target}")
    return builder.build()


REGISTERS = ("x", "y", "z")


@st.composite
def rem_asts(draw, innermost=(), depth=4):
    """Letters ``a``/``b``/``c`` and ε under every operator: 1–2-register
    binds, ``∧``/``∨`` conditions, ``+``, nesting.  A test mostly reads
    the registers of the bind around it (scoped), sometimes any of the
    three (across a bind, after one closed, or never bound), and nested
    binds draw their registers freely, so some re-bind an outer one."""
    shape = draw(st.sampled_from(["leaf", "concat", "union", "plus", "test", "test", "bind"]))
    if depth == 0 or shape == "leaf":
        return draw(st.just(RemEpsilon()) | st.sampled_from("abc").map(RemLetter))
    if shape == "test" and not innermost and draw(st.integers(0, 7)):
        shape = "bind"  # outside every bind a test can only read the unbound
    below = rem_asts(innermost, depth - 1)
    if shape == "concat":
        return RemConcat(draw(below), draw(below))
    if shape == "union":
        return RemUnion(draw(below), draw(below))
    if shape == "plus":
        return RemPlus(draw(below))
    if shape == "bind":
        bound = tuple(draw(st.lists(st.sampled_from(REGISTERS), min_size=1, max_size=2, unique=True)))
        return RemBind(bound, draw(rem_asts(bound, depth - 1)))
    readable = innermost if innermost and draw(st.integers(0, 7)) else REGISTERS
    atoms = st.sampled_from(readable).map(Equal) | st.sampled_from(readable).map(NotEqual)
    condition = draw(
        st.recursive(
            atoms,
            lambda inner: st.builds(And, inner, inner) | st.builds(Or, inner, inner),
            max_leaves=3,
        )
    )
    return RemTest(draw(below), condition)


REM_ASTS = rem_asts()


# ----------------------------------------------------------------------
# GXPath's executable specification (Figure 1), written on the graph API
# ----------------------------------------------------------------------
def reference_path(graph, expression, null_semantics=False):
    """``[[α]]_G`` as id pairs, case by case from Figure 1 of the paper."""
    if isinstance(expression, PathEpsilon):
        return frozenset((node_id, node_id) for node_id in graph.node_ids)
    if isinstance(expression, Axis):
        pairs = {
            (source.id, target.id)
            for source, target in graph.edge_relation(expression.label)
        }
        return frozenset((t, s) for s, t in pairs) if expression.inverse else frozenset(pairs)
    if isinstance(expression, AxisStar):
        result = set()
        for start in graph.node_ids:
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                result.add((start, current))
                steps = (
                    graph.predecessors(current, expression.label)
                    if expression.inverse
                    else graph.successors(current, expression.label)
                )
                for _, neighbour in steps:
                    if neighbour.id not in seen:
                        seen.add(neighbour.id)
                        stack.append(neighbour.id)
        return frozenset(result)
    if isinstance(expression, PathConcat):
        left = reference_path(graph, expression.left, null_semantics)
        after = {}
        for middle, target in reference_path(graph, expression.right, null_semantics):
            after.setdefault(middle, set()).add(target)
        return frozenset((s, t) for s, middle in left for t in after.get(middle, ()))
    if isinstance(expression, PathUnion):
        return reference_path(graph, expression.left, null_semantics) | reference_path(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, (PathEqual, PathNotEqual)):
        inner = reference_path(graph, expression.inner, null_semantics)
        want_equal = isinstance(expression, PathEqual)
        kept = set()
        for s, t in inner:
            first, last = graph.value_of(s), graph.value_of(t)
            if null_semantics:
                ok = values_equal(first, last) if want_equal else values_differ(first, last)
            else:
                ok = (first == last) if want_equal else (first != last)
            if ok:
                kept.add((s, t))
        return frozenset(kept)
    if isinstance(expression, NodeTest):
        return frozenset(
            (v, v) for v in reference_node(graph, expression.condition, null_semantics)
        )
    raise AssertionError(f"unexpected path expression {expression!r}")


def reference_node(graph, expression, null_semantics=False):
    """``[[φ]]_G`` as a set of node ids, case by case from Figure 1."""
    if isinstance(expression, NodeNot):
        return frozenset(graph.node_ids) - reference_node(graph, expression.inner, null_semantics)
    if isinstance(expression, NodeAnd):
        return reference_node(graph, expression.left, null_semantics) & reference_node(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, NodeOr):
        return reference_node(graph, expression.left, null_semantics) | reference_node(
            graph, expression.right, null_semantics
        )
    if isinstance(expression, NodeExists):
        return frozenset(s for s, _ in reference_path(graph, expression.path, null_semantics))
    raise AssertionError(f"unexpected node expression {expression!r}")
