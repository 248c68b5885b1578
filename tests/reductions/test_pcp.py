"""Tests for PCP instances and the bounded solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReductionError
from repro.reductions import (
    SOLVABLE_EXAMPLES,
    UNSOLVABLE_EXAMPLES,
    PCPInstance,
    solve_pcp_bounded,
)
from repro.reductions.pcp import verify_pcp_solution


class TestPCPInstance:
    def test_validation(self):
        with pytest.raises(ReductionError):
            PCPInstance(())
        with pytest.raises(ReductionError):
            PCPInstance((("", "a"),))
        with pytest.raises(ReductionError):
            PCPInstance((("a", "c"),))

    def test_accessors(self):
        instance = PCPInstance((("a", "ab"), ("bb", "b")))
        assert instance.size == 2
        assert instance.top(1) == "a"
        assert instance.bottom(2) == "b"
        assert instance.words([1, 2]) == ("abb", "abb")
        assert "a/ab" in str(instance)

    def test_verify_solution(self):
        instance = PCPInstance((("a", "ab"), ("bb", "b")))
        assert verify_pcp_solution(instance, [1, 2])
        assert not verify_pcp_solution(instance, [])
        assert not verify_pcp_solution(instance, [1])
        assert not verify_pcp_solution(instance, [3])
        assert not verify_pcp_solution(instance, [2, 1])


class TestBoundedSolver:
    @pytest.mark.parametrize("name,instance", sorted(SOLVABLE_EXAMPLES.items()))
    def test_solvable_examples_are_solved(self, name, instance):
        solution = solve_pcp_bounded(instance, max_length=6)
        assert solution is not None, name
        assert verify_pcp_solution(instance, solution)

    @pytest.mark.parametrize("name,instance", sorted(UNSOLVABLE_EXAMPLES.items()))
    def test_unsolvable_examples_are_not_solved(self, name, instance):
        assert solve_pcp_bounded(instance, max_length=6) is None, name

    def test_shortest_solution_found(self):
        instance = SOLVABLE_EXAMPLES["identity"]
        assert solve_pcp_bounded(instance, max_length=3) == (1,)

    def test_two_tile_solution(self):
        instance = SOLVABLE_EXAMPLES["two-tiles"]
        solution = solve_pcp_bounded(instance, max_length=4)
        assert solution == (1, 2)

    def test_classic_wikipedia_instance(self):
        instance = SOLVABLE_EXAMPLES["classic"]
        solution = solve_pcp_bounded(instance, max_length=5)
        assert solution is not None
        assert verify_pcp_solution(instance, solution)
        assert len(solution) == 4

    def test_budget_guard(self):
        # an instance whose overhang keeps growing exercises the state guard
        instance = PCPInstance((("ab", "a"), ("ba", "b"), ("aa", "a"), ("bb", "b")))
        with pytest.raises(ReductionError):
            solve_pcp_bounded(instance, max_length=60, max_states=50)

    def test_bound_respected(self):
        # the classic instance needs 4 tiles; with max_length 2 nothing is found
        instance = SOLVABLE_EXAMPLES["classic"]
        assert solve_pcp_bounded(instance, max_length=2) is None

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ab", min_size=1, max_size=3),
                st.text(alphabet="ab", min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_solver_output_is_always_a_real_solution(self, tiles):
        instance = PCPInstance(tuple(tiles))
        try:
            solution = solve_pcp_bounded(instance, max_length=5, max_states=20_000)
        except ReductionError:
            return  # state budget exceeded: nothing to check
        if solution is not None:
            assert verify_pcp_solution(instance, solution)
