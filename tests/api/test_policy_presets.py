"""ExecutionPolicy: eight plain fields, each validated where it is set.

Runs under every host shape of the ``host_shape`` fixture — (1 core),
(N cores + fork), (N cores, no fork) — so no verdict depends on the
machine the suite happens to run on: a worker budget is checked at
construction, never resolved against the host's CPU count first.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.api import ExecutionPolicy, GraphSession, Query
from repro.exceptions import EvaluationError
from repro.planner import route_query

pytestmark = [
    pytest.mark.filterwarnings("error::DeprecationWarning"),
    pytest.mark.usefixtures("host_shape"),
]


class TestFields:
    def test_eight_plain_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionPolicy)] == [
            "max_workers", "cache_results", "result_cache_size", "point_cache_size",
            "delta_repair", "routing", "backend", "intra_query",
        ]

    def test_every_field_is_a_plain_constructor_argument(self):
        policy = ExecutionPolicy(
            max_workers=2, cache_results=False, result_cache_size=16,
            point_cache_size=8, delta_repair=False, routing="manual",
            backend="dict", intra_query="blocks",
        )
        assert policy.max_workers == 2 and policy.result_cache_size == 16
        assert policy.intra_query == "blocks" and policy.backend == "dict"
        assert dataclasses.replace(policy, intra_query="off").intra_query == "off"

    @pytest.mark.parametrize(
        "field, value",
        [("routing", "psychic"), ("backend", "gpu"), ("intra_query", "quantum"),
         ("intra_query", "sharded"), ("max_workers", 0), ("max_workers", -2),
         ("max_workers", 2.5), ("max_workers", "4"), ("max_workers", True)],
    )
    def test_invalid_values_rejected_at_construction(self, field, value):
        # Under a forced driver, where a bad worker budget used to surface
        # only at query time (or never).
        with pytest.raises(EvaluationError, match=re.escape(repr(value))):
            ExecutionPolicy(**{"intra_query": "blocks", field: value})

    @pytest.mark.parametrize("workers", [None, 1, 2, 8])
    def test_valid_budgets_are_accepted(self, workers):
        assert ExecutionPolicy(intra_query="blocks", max_workers=workers).max_workers == workers

    def test_replace_validates_again(self):
        policy = ExecutionPolicy(intra_query="blocks", max_workers=2)
        for field, value in (("max_workers", 0), ("intra_query", "sharded")):
            with pytest.raises(EvaluationError, match=re.escape(repr(value))):
                dataclasses.replace(policy, **{field: value})

    def test_removed_knobs_are_gone(self):
        for knob in ("executor", "intra_query_threshold", "num_shards", "sharded_processes"):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{knob: 1})
        assert not hasattr(ExecutionPolicy, "preset") and not hasattr(ExecutionPolicy, "auto")


class TestDefaults:
    def test_the_default_policy_forces_nothing(self):
        policy = ExecutionPolicy()
        assert policy.intra_query == "off" and policy.backend == "auto"
        assert policy.routing == "auto" and policy.max_workers is None
        assert policy.cache_results and policy.delta_repair

    def test_the_default_route_is_sequential(self, toy_graph):
        for policy in (ExecutionPolicy(), ExecutionPolicy(max_workers=4)):
            route = route_query(Query.parse("knows.knows"), toy_graph, policy)
            assert (route.driver, route.workers) == ("sequential", 1)

    def test_a_forced_budget_is_the_route_budget(self, toy_graph, host_shape):
        cores, _fork = host_shape
        query = Query.parse("knows.knows")
        for workers, expected in ((None, min(cores, 8)), (1, 1), (3, 3)):
            policy = ExecutionPolicy(intra_query="blocks", max_workers=workers)
            route = route_query(query, toy_graph, policy)
            assert (route.driver, route.workers) == ("blocks", expected), workers

    def test_default_and_forced_sessions_run_queries(self, toy_graph):
        expected = GraphSession(toy_graph).run("knows.knows").rows()
        for policy in (ExecutionPolicy(), ExecutionPolicy(intra_query="blocks", max_workers=2)):
            assert GraphSession(toy_graph, policy=policy).run("knows.knows").rows() == expected
