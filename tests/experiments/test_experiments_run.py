"""Smoke + claim tests for the experiment modules (small parameters).

Each experiment is run with reduced parameters and its *claim columns*
are asserted — the same invariants ``python -m repro experiment <name>``
reports for the full runs (DESIGN.md §9 indexes them).  This keeps the
experiments themselves under test, not just the library they exercise.
"""

from __future__ import annotations


from repro.experiments import EXPERIMENTS
from repro.experiments import (
    e1_bounded_search,
    e2_three_coloring,
    e3_single_inequality,
    e4_universal_solution,
    e5_least_informative,
    e6_null_approximation,
    e7_pcp_gadget,
    e8_datapath_arbitrary,
    e9_gxpath_gadget,
    e10_query_eval,
)
from repro.reductions.three_coloring import complete_graph_k4, triangle


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 11)}


class TestE1:
    def test_claims(self):
        result = e1_bounded_search.run(sizes=(2, 3))
        assert len(result.rows) == 2
        assert all(row["exact_equals_least_informative"] for row in result.rows)
        assert all(row["nulls_subset_of_exact"] for row in result.rows)
        assert all(row["repeat_query_agrees"] for row in result.rows)


class TestE2:
    def test_claims(self):
        result = e2_three_coloring.run(inputs=(triangle, complete_graph_k4))
        assert len(result.rows) == 2
        assert all(row["matches_claim"] for row in result.rows)
        by_name = {row["input"]: row for row in result.rows}
        assert by_name["triangle"]["three_colorable"] is True
        assert by_name["K4"]["certain_answer"] is True


class TestE3:
    def test_claims(self):
        result = e3_single_inequality.run(small_sizes=(2, 3), large_sizes=(20,))
        agreement = [row for row in result.rows if row["phase"] == "agreement"]
        scaling = [row for row in result.rows if row["phase"] == "scaling"]
        assert agreement and scaling
        assert all(row["agree"] for row in agreement)
        assert all(row["approx_seconds"] is not None for row in scaling)


class TestE4:
    def test_claims(self):
        result = e4_universal_solution.run(chain_lengths=(4, 8), agreement_chain_length=2)
        soundness = [row for row in result.rows if row["phase"] == "soundness"]
        assert soundness and all(row["sound"] for row in soundness)
        scaling = [row for row in result.rows if row["phase"] == "scaling"]
        assert len(scaling) == 2


class TestE5:
    def test_claims(self):
        # The default `small_people`: an agreement phase over the naive
        # budget fails here rather than under `python -m repro experiment E5`.
        result = e5_least_informative.run(scaling_people=(10,))
        agreement = [row for row in result.rows if row["phase"] == "agreement"]
        assert agreement
        assert all(row["agree"] for row in agreement)


class TestE6:
    def test_claims(self):
        result = e6_null_approximation.run(sizes=(3, 4), query_tests=("equal", "unequal"), instances_per_setting=1)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row["answer_recall"] <= 1.0
            assert 0.0 <= row["exact_match_rate"] <= 1.0


class TestE7:
    def test_claims(self):
        result = e7_pcp_gadget.run(max_solution_length=5)
        solvable_rows = [row for row in result.rows if row["solvable_within_bound"]]
        unsolvable_rows = [row for row in result.rows if not row["solvable_within_bound"]]
        assert solvable_rows and unsolvable_rows
        for row in solvable_rows:
            assert row["witness_is_solution"] and row["decodes_back"] and row["error_free"]


class TestE8:
    def test_claims(self):
        result = e8_datapath_arbitrary.run(sizes=(3, 4))
        assert all(row["agree"] for row in result.rows)
        assert all(row["rules_dropped"] == 2 for row in result.rows)


class TestE9:
    def test_claims(self):
        result = e9_gxpath_gadget.run(max_solution_length=5)
        gadget_rows = [row for row in result.rows if row["instance"] != "theorem7-check"]
        assert all(row["preconditions_hold"] for row in gadget_rows)
        assert all(row["bare_tree_flagged"] for row in gadget_rows)
        for row in gadget_rows:
            if row["solvable_within_bound"]:
                assert row["extension_is_solution"]
                assert row["extension_error_free"]
                assert row["corrupted_flagged"]
        theorem7 = next(row for row in result.rows if row["instance"] == "theorem7-check")
        assert theorem7["preconditions_hold"]
        assert theorem7["extension_error_free"]
        assert theorem7["corrupted_flagged"]


class TestE10:
    def test_claims(self):
        result = e10_query_eval.run(sizes=(10, 20))
        assert len(result.rows) == 2
        assert all(row["engines_agree"] for row in result.rows)
        assert all(row["rpq_seconds"] >= 0 for row in result.rows)
