"""Tests for GXPath-core syntax and Figure 1 semantics."""

from __future__ import annotations

import pytest

from repro.datagraph import NULL, DataGraph, GraphBuilder
from repro.exceptions import ParseError
from repro.gxpath import (
    axis,
    axis_star,
    epsilon,
    evaluate_node,
    evaluate_path,
    exists,
    inverse_axis,
    node_and,
    node_holds,
    node_not,
    node_or,
    node_test,
    parse_gxpath_node,
    parse_gxpath_path,
    path_concat,
    path_equal,
    path_not_equal,
    path_union,
)


def _ids(pairs):
    return {(source.id, target.id) for source, target in pairs}


def _node_ids(nodes):
    return {node.id for node in nodes}


@pytest.fixture
def gx_graph() -> DataGraph:
    """r(1) -a-> s(2) -a-> t(1), r -b-> u(2), t -b-> u."""
    return (
        GraphBuilder(name="gx")
        .node("r", 1)
        .node("s", 2)
        .node("t", 1)
        .node("u", 2)
        .edge("r", "a", "s")
        .edge("s", "a", "t")
        .edge("r", "b", "u")
        .edge("t", "b", "u")
        .build()
    )


class TestAstConstructors:
    def test_validation(self):
        with pytest.raises(ValueError):
            axis("")
        with pytest.raises(ValueError):
            inverse_axis("")
        with pytest.raises(ValueError):
            axis_star("")
        with pytest.raises(ValueError):
            path_union()
        with pytest.raises(ValueError):
            node_and()
        with pytest.raises(ValueError):
            node_or()

    def test_operators_on_node_expressions(self):
        phi = exists(axis("a"))
        psi = exists(axis("b"))
        assert str(phi & psi)
        assert str(phi | psi)
        assert str(~phi)

    def test_labels(self):
        expression = path_concat(axis("a"), node_test(exists(inverse_axis("b"))))
        assert expression.labels() == frozenset({"a", "b"})
        assert epsilon().labels() == frozenset()


class TestPathSemantics:
    def test_epsilon(self, gx_graph):
        assert _ids(evaluate_path(gx_graph, epsilon())) == {(n, n) for n in gx_graph.node_ids}

    def test_axis_and_inverse(self, gx_graph):
        assert _ids(evaluate_path(gx_graph, axis("a"))) == {("r", "s"), ("s", "t")}
        assert _ids(evaluate_path(gx_graph, inverse_axis("a"))) == {("s", "r"), ("t", "s")}

    def test_axis_star(self, gx_graph):
        answers = _ids(evaluate_path(gx_graph, axis_star("a")))
        assert ("r", "t") in answers
        assert ("r", "r") in answers
        assert ("r", "u") not in answers
        inverse = _ids(evaluate_path(gx_graph, axis_star("a", inverse=True)))
        assert ("t", "r") in inverse

    def test_concat_and_union(self, gx_graph):
        answers = _ids(evaluate_path(gx_graph, path_concat(axis("a"), axis("a"))))
        assert answers == {("r", "t")}
        union = _ids(evaluate_path(gx_graph, path_union(axis("a"), axis("b"))))
        assert ("r", "u") in union and ("r", "s") in union

    def test_data_tests(self, gx_graph):
        equal = _ids(evaluate_path(gx_graph, path_equal(path_concat(axis("a"), axis("a")))))
        assert equal == {("r", "t")}  # values 1 and 1
        not_equal = _ids(evaluate_path(gx_graph, path_not_equal(axis("a"))))
        assert ("r", "s") in not_equal and ("s", "t") in not_equal

    def test_node_test_filter(self, gx_graph):
        # a-step into a node that has an outgoing b-edge
        expression = path_concat(axis("a"), node_test(exists(axis("b"))))
        assert _ids(evaluate_path(gx_graph, expression)) == {("s", "t")}

    def test_path_holds(self, gx_graph):
        assert ("r", "t") in _ids(evaluate_path(gx_graph, axis_star("a")))
        assert ("s", "u") not in _ids(evaluate_path(gx_graph, axis("b")))

    def test_null_semantics(self):
        g = GraphBuilder().node("x", NULL).node("y", NULL).edge("x", "a", "y").build()
        assert _ids(evaluate_path(g, path_equal(axis("a")))) == {("x", "y")}
        assert _ids(evaluate_path(g, path_equal(axis("a")), null_semantics=True)) == set()
        assert _ids(evaluate_path(g, path_not_equal(axis("a")), null_semantics=True)) == set()


class TestNodeSemantics:
    def test_exists(self, gx_graph):
        assert _node_ids(evaluate_node(gx_graph, exists(axis("b")))) == {"r", "t"}

    def test_negation(self, gx_graph):
        assert _node_ids(evaluate_node(gx_graph, node_not(exists(axis("b"))))) == {"s", "u"}

    def test_and_or(self, gx_graph):
        both = node_and(exists(axis("a")), exists(axis("b")))
        assert _node_ids(evaluate_node(gx_graph, both)) == {"r"}
        either = node_or(exists(axis("a")), exists(axis("b")))
        assert _node_ids(evaluate_node(gx_graph, either)) == {"r", "s", "t"}

    def test_node_holds(self, gx_graph):
        phi = exists(path_equal(path_concat(axis("a"), axis("a"))))
        assert node_holds(gx_graph, phi, "r")
        assert not node_holds(gx_graph, phi, "s")

    def test_data_comparison_via_inverse(self, gx_graph):
        # nodes having another node with the same data value reachable by going
        # back one a-edge and forward one b-edge
        phi = exists(path_equal(path_concat(inverse_axis("a"), axis("b"))))
        # from s: back to r(1), forward b to u(2): values 2 vs 2 -> s qualifies
        assert _node_ids(evaluate_node(gx_graph, phi)) == {"s"}


class TestParser:
    def test_path_parsing(self, gx_graph):
        assert _ids(evaluate_path(gx_graph, parse_gxpath_path("a.a"))) == {("r", "t")}
        assert _ids(evaluate_path(gx_graph, parse_gxpath_path("a/a"))) == {("r", "t")}
        assert ("t", "s") in _ids(evaluate_path(gx_graph, parse_gxpath_path("a-")))
        assert ("r", "t") in _ids(evaluate_path(gx_graph, parse_gxpath_path("a*")))
        assert ("t", "r") in _ids(evaluate_path(gx_graph, parse_gxpath_path("a-*")))
        assert _ids(evaluate_path(gx_graph, parse_gxpath_path("(a.a)="))) == {("r", "t")}
        assert ("r", "s") in _ids(evaluate_path(gx_graph, parse_gxpath_path("(a)!=")))
        assert ("r", "s") in _ids(evaluate_path(gx_graph, parse_gxpath_path("(a)≠")))

    def test_epsilon_and_filter(self, gx_graph):
        assert _ids(evaluate_path(gx_graph, parse_gxpath_path("eps"))) == {
            (n, n) for n in gx_graph.node_ids
        }
        filtered = parse_gxpath_path("a.[<b>]")
        assert _ids(evaluate_path(gx_graph, filtered)) == {("s", "t")}

    def test_node_parsing(self, gx_graph):
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("<a>"))) == {"r", "s"}
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("~<a>"))) == {"t", "u"}
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("<a> & <b>"))) == {"r"}
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("<a> | <b>"))) == {"r", "s", "t"}
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("<(a.a)=>"))) == {"r"}
        assert _node_ids(evaluate_node(gx_graph, parse_gxpath_node("(<a>) & ~<b>"))) == {"s"}

    def test_star_only_on_axes(self):
        with pytest.raises(ParseError):
            parse_gxpath_path("(a.b)*")

    def test_errors(self):
        for bad in ["", "   ", "(a", "a)", "<a", "[<a>", "a !", "~", "a.b>"]:
            with pytest.raises(ParseError):
                if "<" in bad or "~" in bad:
                    parse_gxpath_node(bad)
                else:
                    parse_gxpath_path(bad)

    def test_unicode_inverse(self, gx_graph):
        assert ("s", "r") in _ids(evaluate_path(gx_graph, parse_gxpath_path("a⁻")))
