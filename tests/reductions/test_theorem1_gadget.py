"""Tests for the Theorem 1 gadget (PCP → certain answering of equality RPQs)."""

from __future__ import annotations

import pytest

from repro.api import GraphSession
from repro.core import is_solution
from repro.exceptions import ReductionError
from repro.query import rpq
from repro.reductions import (
    SOLVABLE_EXAMPLES,
    decode_witness,
    pcp_source_graph,
    repetition_error_query,
    solution_witness_graph,
    solve_pcp_bounded,
    structural_error_query,
    theorem1_mapping,
)
from repro.reductions.pcp_mapping import THEOREM1_ALPHABET


@pytest.fixture(scope="module")
def instance():
    return SOLVABLE_EXAMPLES["two-tiles"]


@pytest.fixture(scope="module")
def solution(instance):
    found = solve_pcp_bounded(instance, max_length=4)
    assert found is not None
    return found


class TestSourceGraph:
    def test_path_structure(self, instance):
        source = pcp_source_graph(instance)
        assert source.has_node("start")
        assert source.has_node("end")
        # the source is a single path: every node has out-degree ≤ 1
        assert all(source.out_degree(node.id) <= 1 for node in source.nodes)
        # start -i-> input
        assert source.has_edge("start", "i", "input")
        # end is reached by the # edge
        assert any(label == "#" for label, _ in source.predecessors("end"))

    def test_all_values_distinct(self, instance):
        source = pcp_source_graph(instance)
        values = [node.value for node in source.nodes]
        assert len(values) == len(set(values))

    def test_tile_sections_present(self, instance):
        source = pcp_source_graph(instance)
        for r in range(1, instance.size + 1):
            assert source.has_node(f"tile{r}:start")
            assert source.has_node(f"tile{r}:sep")
        # letters of the first tile appear as edge labels along the path
        labels = {label for _, label, _ in source.edges}
        assert "a" in labels or "b" in labels

    def test_encodes_tile_words(self, instance):
        source = pcp_source_graph(instance)
        # walking from tile r start: the labels until 'sep' spell u_r
        for r in range(1, instance.size + 1):
            current = f"tile{r}:start"
            word = []
            while True:
                label, node = next(iter(source.successors(current)))
                if label == "sep":
                    break
                word.append(label)
                current = node.id
            assert "".join(word) == instance.top(r)


class TestMappingClass:
    def test_minimal_theorem1_class(self):
        mapping = theorem1_mapping()
        assert mapping.is_lav()
        assert mapping.is_lav_gav_relational_reachability()
        assert not mapping.is_relational()  # the reachability rule is not a word
        assert mapping.is_relational_reachability()

    def test_copy_rules_and_reachability_rule(self):
        mapping = theorem1_mapping()
        reach_rules = [rule for rule in mapping if rule.name == "reach-#"]
        assert len(reach_rules) == 1
        assert reach_rules[0].is_reachability_rule(THEOREM1_ALPHABET)
        assert len(mapping) == 7


class TestWitnessGraph:
    def test_witness_is_a_solution(self, instance, solution):
        source = pcp_source_graph(instance)
        witness = solution_witness_graph(instance, solution)
        assert is_solution(theorem1_mapping(), source, witness)

    def test_copy_of_source_alone_is_not_a_solution(self, instance):
        """Without a replacement for the # edge the reachability rule fails."""
        source = pcp_source_graph(instance)
        broken = source.copy()
        anchor = next(
            node.id for node in source.nodes for label, succ in source.successors(node.id) if label == "#"
        )
        broken.remove_edge(anchor, "#", "end")
        assert not is_solution(theorem1_mapping(), source, broken)

    def test_round_trip_decoding(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        assert decode_witness(witness) == tuple(solution)

    def test_invalid_solution_rejected(self, instance):
        with pytest.raises(ReductionError):
            solution_witness_graph(instance, [2, 2, 2])

    def test_decode_rejects_source_graph(self, instance):
        with pytest.raises(ReductionError):
            decode_witness(pcp_source_graph(instance))

    def test_verification_section_spells_common_word(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        # follow the verification chain and read off the letters
        current = "verify:start"
        letters = []
        while True:
            successors = list(witness.successors(current))
            if not successors:
                break
            label, node = successors[0]
            if label in {"a", "b"}:
                letters.append(label)
            if label == "#":
                break
            current = node.id
        top, bottom = instance.words(solution)
        assert "".join(letters) == top == bottom


class TestErrorQueries:
    def test_structural_error_absent_on_witness(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        start, end = witness.node("start"), witness.node("end")
        assert (start, end) not in GraphSession(witness).run(structural_error_query()).pairs()

    def test_structural_error_detected_on_malformed_witness(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        # malform it: make the s edge jump directly to the verification section
        witness.add_edge("sol:start", "v", "verify:start")
        answers = GraphSession(witness).run(structural_error_query()).pairs()
        assert any(left.id == "solution-anchor" for left, _ in answers)

    def test_repetition_error_absent_on_witness(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        answers = GraphSession(witness).run(repetition_error_query()).pairs()
        # no pair whose witness path lies after the v separator repeats a value
        assert not any(left.id.startswith("sol:") and left.id.endswith(":close") for left, _ in answers)

    def test_repetition_error_detected_when_values_repeat(self, instance, solution):
        witness = solution_witness_graph(instance, solution)
        # duplicate a data value inside the verification section
        verify_nodes = [node for node in witness.nodes if str(node.id).startswith("verify:") and node.id != "verify:start"]
        assert len(verify_nodes) >= 2
        witness.set_value(verify_nodes[0].id, "dup")
        witness.set_value(verify_nodes[-1].id, "dup")
        answers = GraphSession(witness).run(repetition_error_query()).pairs()
        assert answers  # the repetition is now detectable


class TestReductionCorrespondence:
    """PCP solvable ⇔ a well-formed witness solution exists (bounded check)."""

    @pytest.mark.parametrize("name", sorted(SOLVABLE_EXAMPLES))
    def test_solvable_instances_admit_witnesses(self, name):
        instance = SOLVABLE_EXAMPLES[name]
        solution = solve_pcp_bounded(instance, max_length=6)
        assert solution is not None
        witness = solution_witness_graph(instance, solution)
        assert is_solution(theorem1_mapping(), pcp_source_graph(instance), witness)

    def test_reachability_certain_answer_start_end(self, instance):
        """(start, end) is always a certain answer of plain reachability."""

        source = pcp_source_graph(instance)
        sigma = "|".join(label for label in THEOREM1_ALPHABET)
        # the reachability rule forces end to stay reachable from the anchor
        witness = solution_witness_graph(instance, solve_pcp_bounded(instance, max_length=4))
        answers = GraphSession(witness).run(rpq(f"({sigma})*")).pairs()
        assert (witness.node("start"), witness.node("end")) in answers
