"""ExecutionPolicy: six plain fields, each validated where it is set.

Runs under every host shape of the ``host_shape`` fixture — (1 core),
(N cores + fork), (N cores, no fork): no field, default or route may
depend on the host.
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
    def test_six_plain_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionPolicy)] == [
            "cache_results", "result_cache_size", "point_cache_size",
            "delta_repair", "routing", "backend",
        ]

    def test_every_field_is_a_plain_constructor_argument(self):
        policy = ExecutionPolicy(
            cache_results=False, result_cache_size=16, point_cache_size=8,
            delta_repair=False, routing="manual", backend="dict",
        )
        assert policy.result_cache_size == 16 and policy.point_cache_size == 8
        assert policy.backend == "dict" and policy.routing == "manual"
        assert dataclasses.replace(policy, backend="sql").backend == "sql"

    @pytest.mark.parametrize(
        "field, value",
        [("routing", "psychic"), ("backend", "gpu"),
         ("result_cache_size", 0), ("result_cache_size", -2), ("result_cache_size", 2.5),
         ("result_cache_size", "4"), ("result_cache_size", True),
         ("point_cache_size", 0), ("point_cache_size", 2.5), ("point_cache_size", None),
         ("point_cache_size", False), ("cache_results", "no"), ("cache_results", 0),
         ("delta_repair", "off"), ("delta_repair", None)],
    )
    def test_invalid_values_rejected_at_construction(self, field, value):
        with pytest.raises(EvaluationError, match=re.escape(repr(value))):
            ExecutionPolicy(**{field: value})

    @pytest.mark.parametrize("size", [1, 2, 1024])
    def test_valid_sizes_are_accepted(self, toy_graph, size):
        policy = ExecutionPolicy(result_cache_size=size, point_cache_size=size)
        session = GraphSession(toy_graph, policy=policy)
        assert session.stats()["results"].maxsize == size
        assert session.stats()["points"].maxsize == size

    def test_replace_validates_again(self):
        policy = ExecutionPolicy(result_cache_size=4)
        for field, value in (("result_cache_size", 0), ("point_cache_size", 1.5),
                             ("backend", "gpu")):
            with pytest.raises(EvaluationError, match=re.escape(repr(value))):
                dataclasses.replace(policy, **{field: value})

    def test_removed_knobs_are_gone(self):
        for knob in ("executor", "intra_query_threshold", "num_shards", "sharded_processes",
                     "intra_query", "max_workers"):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{knob: 1})
        assert not hasattr(ExecutionPolicy, "preset") and not hasattr(ExecutionPolicy, "auto")


class TestDefaults:
    def test_the_default_policy_forces_nothing(self):
        policy = ExecutionPolicy()
        assert policy.backend == "auto" and policy.routing == "auto"
        assert policy.cache_results and policy.delta_repair
        assert policy.result_cache_size == policy.point_cache_size == 1024

    def test_the_default_route_is_compact(self, toy_graph):
        route = route_query(Query.parse("knows.knows"), toy_graph, ExecutionPolicy())
        assert (route.kernel, route.strategy) == ("compact", "compact")

    def test_every_policy_runs_queries(self, toy_graph):
        expected = GraphSession(toy_graph).run("knows.knows").rows()
        for policy in (ExecutionPolicy(), ExecutionPolicy(backend="dict"),
                       ExecutionPolicy(result_cache_size=1, point_cache_size=1)):
            assert GraphSession(toy_graph, policy=policy).run("knows.knows").rows() == expected
