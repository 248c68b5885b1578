"""Tests for the Proposition 3 and Theorem 6 gadgets."""

from __future__ import annotations

import pytest

from repro.core import certain_answers_naive, is_solution
from repro.exceptions import ReductionError
from repro.gxpath import has_non_repeating_property, node_holds, tree_root
from repro.reductions import (
    SOLVABLE_EXAMPLES,
    UndirectedGraph,
    complete_graph_k4,
    gadget_certain_by_coloring_adversary,
    is_three_colorable,
    odd_cycle,
    pcp_tree_encoding,
    petersen_fragment,
    solution_extension,
    solve_pcp_bounded,
    structure_error_formula,
    theorem6_mapping,
    three_coloring_gadget,
    triangle,
)


class TestThreeColoringInputs:
    def test_graph_validation(self):
        with pytest.raises(ReductionError):
            UndirectedGraph("ab", [("a", "a")])
        with pytest.raises(ReductionError):
            UndirectedGraph("ab", [("a", "c")])
        with pytest.raises(ReductionError):
            odd_cycle(4)

    def test_brute_force_colorability(self):
        assert is_three_colorable(triangle())
        assert is_three_colorable(odd_cycle(5))
        assert not is_three_colorable(complete_graph_k4())
        assert not is_three_colorable(petersen_fragment())


class TestThreeColoringGadget:
    def test_gadget_shape(self):
        source, mapping, query, (start, finish) = three_coloring_gadget(triangle())
        assert mapping.is_lav()
        assert mapping.is_relational()
        assert query.expression.inequality_count() == 3
        assert source.has_node(start) and source.has_node(finish)

    def test_colored_target_is_solution(self):
        graph = triangle()
        source, mapping, query, _ = three_coloring_gadget(graph)
        from repro.reductions.three_coloring import _materialise_coloring

        colouring = {"x": "colour:red", "y": "colour:green", "z": "colour:blue"}
        target = _materialise_coloring(source, graph, colouring)
        assert is_solution(mapping, source, target)

    @pytest.mark.parametrize(
        "builder,expected_colorable",
        [(triangle, True), (odd_cycle, True), (complete_graph_k4, False), (petersen_fragment, False)],
    )
    def test_certainty_matches_colorability(self, builder, expected_colorable):
        graph = builder()
        assert is_three_colorable(graph) is expected_colorable
        certain = gadget_certain_by_coloring_adversary(graph)
        # (start, finish) is certain iff the graph is NOT 3-colourable
        assert certain is (not expected_colorable)

    def test_generic_algorithm_agrees_on_triangle(self):
        """The library's exact certain-answer algorithm agrees with the gadget shortcut."""
        graph = triangle()
        source, mapping, query, (start, finish) = three_coloring_gadget(graph)
        answers = certain_answers_naive(mapping, source, query, budget=50_000)
        pair = (source.node(start), source.node(finish))
        assert (pair in answers) is (not is_three_colorable(graph))
        assert (pair in answers) is gadget_certain_by_coloring_adversary(graph)


class TestTheorem6Gadget:
    @pytest.fixture(scope="class")
    def instance(self):
        return SOLVABLE_EXAMPLES["two-tiles"]

    def test_tree_encoding_preconditions(self, instance):
        tree = pcp_tree_encoding(instance)
        assert tree_root(tree) == "start"
        assert has_non_repeating_property(tree)
        values = [node.value for node in tree.nodes]
        assert len(values) == len(set(values))

    def test_tile_subtrees(self, instance):
        tree = pcp_tree_encoding(instance)
        # each tile root hangs off the t-path and has left/right chains
        assert tree.has_edge("start", "t", "I1")
        assert tree.has_edge("I1", "t", "I2")
        assert any(label == "left" for label, _ in tree.successors("I1"))
        assert any(label == "right" for label, _ in tree.successors("I1"))
        # the left chain of tile 1 spells u_1
        letters = []
        current = "I1"
        while True:
            nexts = dict((label, node) for label, node in tree.successors(current))
            if "left" not in nexts:
                break
            current = nexts["left"].id
            letter_edges = [label for label, _ in tree.successors(current) if label in {"a", "b"}]
            letters.extend(letter_edges)
        assert "".join(letters) == instance.top(1)

    def test_copy_mapping_class(self):
        mapping = theorem6_mapping()
        assert mapping.is_lav() and mapping.is_gav() and mapping.is_relational()

    def test_solution_extension_contains_source(self, instance):
        solution = solve_pcp_bounded(instance, max_length=4)
        tree = pcp_tree_encoding(instance)
        extended = solution_extension(instance, solution)
        assert extended.contains_graph(tree)
        # the extension is a solution of the copy mapping for the tree
        assert is_solution(theorem6_mapping(), tree, extended)

    def test_extension_rejects_non_solutions(self, instance):
        with pytest.raises(ReductionError):
            solution_extension(instance, [1, 1, 1])

    def test_error_formula_behaviour(self, instance):
        solution = solve_pcp_bounded(instance, max_length=4)
        tree = pcp_tree_encoding(instance)
        extension = solution_extension(instance, solution)
        phi = structure_error_formula()
        # the bare source tree has no solution section: error detected at the root
        assert node_holds(tree, phi, "start")
        # the well-formed extension falsifies every checked error pattern
        assert not node_holds(extension, phi, "start")

    def test_error_formula_detects_out_of_sync_sections(self, instance):
        solution = solve_pcp_bounded(instance, max_length=4)
        extension = solution_extension(instance, solution)
        # desynchronise: change the first verification id value
        extension.set_value("verify:0:id0", "corrupted")
        phi = structure_error_formula()
        assert node_holds(extension, phi, "start")

    def test_error_formula_detects_missing_verification(self, instance):
        solution = solve_pcp_bounded(instance, max_length=4)
        extension = solution_extension(instance, solution)
        # remove the verification branch entirely
        to_remove = [node.id for node in extension.nodes if str(node.id).startswith("verify:")]
        for node_id in to_remove:
            extension.remove_node(node_id)
        phi = structure_error_formula()
        assert node_holds(extension, phi, "start")
