"""Tests for data graph homomorphisms and isomorphisms."""

from __future__ import annotations


from repro.datagraph import (
    NULL,
    DataGraph,
    GraphBuilder,
    apply_homomorphism,
    find_homomorphism,
    find_isomorphism,
    is_homomorphism,
    is_isomorphism,
    is_null_homomorphism,
)


def _triangle(values=(1, 2, 3), prefix="t") -> DataGraph:
    g = DataGraph()
    for index, value in enumerate(values):
        g.add_node(f"{prefix}{index}", value)
    g.add_edge(f"{prefix}0", "e", f"{prefix}1")
    g.add_edge(f"{prefix}1", "e", f"{prefix}2")
    g.add_edge(f"{prefix}2", "e", f"{prefix}0")
    return g


class TestPlainHomomorphism:
    def test_identity_is_homomorphism(self, toy_graph):
        identity = {node_id: node_id for node_id in toy_graph.node_ids}
        assert is_homomorphism(identity, toy_graph, toy_graph)

    def test_value_must_be_preserved(self):
        source = GraphBuilder().node("a", 1).build()
        target = GraphBuilder().node("b", 2).build()
        assert not is_homomorphism({"a": "b"}, source, target)

    def test_edges_must_be_preserved(self):
        source = GraphBuilder().node("a", 1).node("b", 2).edge("a", "r", "b").build()
        target = GraphBuilder().node("x", 1).node("y", 2).build()
        assert not is_homomorphism({"a": "x", "b": "y"}, source, target)

    def test_missing_assignment_rejected(self, toy_graph):
        assert not is_homomorphism({}, toy_graph, toy_graph)

    def test_image_outside_target_rejected(self):
        source = GraphBuilder().node("a", 1).build()
        target = GraphBuilder().node("b", 1).build()
        assert not is_homomorphism({"a": "ghost"}, source, target)

    def test_collapse_homomorphism(self):
        # A 6-cycle with alternating values maps onto a 2-cycle.
        source = DataGraph()
        for i in range(6):
            source.add_node(i, i % 2)
        for i in range(6):
            source.add_edge(i, "e", (i + 1) % 6)
        target = DataGraph()
        target.add_node("even", 0)
        target.add_node("odd", 1)
        target.add_edge("even", "e", "odd")
        target.add_edge("odd", "e", "even")
        mapping = {i: ("even" if i % 2 == 0 else "odd") for i in range(6)}
        assert is_homomorphism(mapping, source, target)


class TestNullHomomorphism:
    def test_null_maps_anywhere(self):
        source = GraphBuilder().node("a", NULL).node("b", 1).edge("a", "r", "b").build()
        target = GraphBuilder().node("x", 42).node("y", 1).edge("x", "r", "y").build()
        assert is_null_homomorphism({"a": "x", "b": "y"}, source, target)
        assert not is_homomorphism({"a": "x", "b": "y"}, source, target)

    def test_non_null_values_still_preserved(self):
        source = GraphBuilder().node("a", 5).build()
        target = GraphBuilder().node("x", 6).build()
        assert not is_null_homomorphism({"a": "x"}, source, target)


class TestFindHomomorphism:
    def test_finds_identity(self, toy_graph):
        h = find_homomorphism(toy_graph, toy_graph)
        assert h is not None
        assert is_null_homomorphism(h, toy_graph, toy_graph)

    def test_respects_fixed_part(self, toy_graph):
        h = find_homomorphism(toy_graph, toy_graph, fixed={"alice": "alice"})
        assert h is not None
        assert h["alice"] == "alice"

    def test_fixed_part_can_make_it_impossible(self):
        source = GraphBuilder().node("a", 1).node("b", 2).edge("a", "r", "b").build()
        target = GraphBuilder().node("x", 1).node("y", 2).node("z", 2).edge("x", "r", "y").build()
        assert find_homomorphism(source, target, fixed={"b": "z"}) is None
        h = find_homomorphism(source, target, fixed={"b": "y"})
        assert h == {"a": "x", "b": "y"}

    def test_fixed_part_invalid_ids(self, toy_graph):
        assert find_homomorphism(toy_graph, toy_graph, fixed={"ghost": "alice"}) is None

    def test_no_homomorphism_when_values_missing(self):
        source = GraphBuilder().node("a", "unique").build()
        target = GraphBuilder().node("x", "other").build()
        assert find_homomorphism(source, target) is None

    def test_strict_mode_requires_exact_values(self):
        source = GraphBuilder().node("a", NULL).build()
        target = GraphBuilder().node("x", 1).build()
        assert find_homomorphism(source, target, allow_null_relaxation=True) is not None
        assert find_homomorphism(source, target, allow_null_relaxation=False) is None

    def test_triangle_into_triangle(self):
        source = _triangle()
        target = _triangle()
        h = find_homomorphism(source, target, allow_null_relaxation=False)
        assert h is not None
        assert is_homomorphism(h, source, target)

    def test_path_into_cycle(self):
        # A null-valued 4-path maps into a 2-cycle.
        source = DataGraph()
        for i in range(5):
            source.add_node(i)
        for i in range(4):
            source.add_edge(i, "e", i + 1)
        target = DataGraph()
        target.add_node("p", 1)
        target.add_node("q", 2)
        target.add_edge("p", "e", "q")
        target.add_edge("q", "e", "p")
        h = find_homomorphism(source, target)
        assert h is not None
        assert is_null_homomorphism(h, source, target)

    def test_cycle_into_path_impossible(self):
        source = DataGraph()
        for i in range(3):
            source.add_node(i)
        for i in range(3):
            source.add_edge(i, "e", (i + 1) % 3)
        target = DataGraph()
        for i in range(4):
            target.add_node(f"p{i}", i)
        for i in range(3):
            target.add_edge(f"p{i}", "e", f"p{i+1}")
        assert find_homomorphism(source, target) is None

    def test_apply_homomorphism(self):
        source = GraphBuilder().node("a", 1).node("b", 2).edge("a", "r", "b").build()
        target = GraphBuilder().node("x", 1).node("y", 2).node("z", 9).edge("x", "r", "y").edge(
            "y", "r", "z"
        ).build()
        h = {"a": "x", "b": "y"}
        image = apply_homomorphism(h, source, target)
        assert image.num_nodes == 2
        assert image.has_edge("x", "r", "y")
        assert not image.has_node("z")


class TestIsomorphism:
    def test_isomorphic_up_to_renaming(self):
        left = _triangle()
        right = _triangle(prefix="u")
        mapping = find_isomorphism(left, right)
        assert mapping is not None
        assert is_isomorphism(mapping, left, right)

    def test_non_isomorphic_different_sizes(self):
        left = _triangle()
        right = GraphBuilder().node("x", 1).build()
        assert find_isomorphism(left, right) is None

    def test_non_isomorphic_same_size_different_values(self):
        left = _triangle((1, 2, 3))
        right = _triangle((1, 2, 4))
        assert find_isomorphism(left, right) is None

    def test_non_isomorphic_same_values_different_structure(self):
        left = _triangle((1, 1, 1))
        right = DataGraph()
        for i in range(3):
            right.add_node(i, 1)
        right.add_edge(0, "e", 1)
        right.add_edge(1, "e", 2)
        right.add_edge(2, "e", 1)
        assert find_isomorphism(left, right) is None

    def test_is_isomorphism_rejects_non_bijection(self):
        left = _triangle((1, 1, 1))
        assert not is_isomorphism({"t0": "t0", "t1": "t0", "t2": "t2"}, left, left)

    def test_is_isomorphism_rejects_partial(self):
        left = _triangle()
        assert not is_isomorphism({"t0": "t0"}, left, left)
