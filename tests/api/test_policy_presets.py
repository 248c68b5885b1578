"""ExecutionPolicy: nine plain fields, presets and host auto-selection.

Runs under every host shape of the ``host_shape`` fixture — (1 core),
(N cores + fork), (N cores, no fork) — so the verdicts never depend on
the machine the suite happens to run on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import POLICY_PRESETS, ExecutionPolicy, GraphSession
from repro.exceptions import EvaluationError

pytestmark = [
    pytest.mark.filterwarnings("error::DeprecationWarning"),
    pytest.mark.usefixtures("host_shape"),
]


class TestFields:
    def test_nine_plain_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionPolicy)] == [
            "executor", "max_workers", "cache_results", "result_cache_size",
            "point_cache_size", "delta_repair", "routing", "backend", "intra_query",
        ]

    def test_every_field_is_a_plain_constructor_argument(self):
        policy = ExecutionPolicy(
            executor="thread", max_workers=2, cache_results=False,
            result_cache_size=16, point_cache_size=8, delta_repair=False,
            routing="manual", backend="dict", intra_query="blocks",
        )
        assert policy.executor == "thread" and policy.result_cache_size == 16
        assert policy.intra_query == "blocks" and policy.backend == "dict"
        assert dataclasses.replace(policy, intra_query="off").intra_query == "off"

    @pytest.mark.parametrize(
        "field, value",
        [("executor", "quantum"), ("routing", "psychic"), ("backend", "gpu"),
         ("intra_query", "quantum")],
    )
    def test_invalid_values_rejected_at_construction(self, field, value):
        with pytest.raises(EvaluationError, match=value):
            ExecutionPolicy(**{field: value})

    def test_removed_knobs_are_gone(self):
        for knob in ("intra_query_threshold", "num_shards", "sharded_processes"):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{knob: 1})


class TestPresets:
    def test_local_is_the_default_policy(self):
        assert ExecutionPolicy.preset("local") == ExecutionPolicy()

    def test_no_preset_forces_a_route(self):
        for name in POLICY_PRESETS:
            policy = ExecutionPolicy.preset(name)
            assert policy.intra_query == "off" and policy.backend == "auto"
            assert policy.routing == "auto"

    def test_parallel_preset_picks_the_batch_executor_only(self):
        assert ExecutionPolicy.preset("parallel") == ExecutionPolicy(executor="process")

    def test_presets_accept_overrides(self):
        policy = ExecutionPolicy.preset("parallel", executor="thread", max_workers=2)
        assert policy.executor == "thread" and policy.max_workers == 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(EvaluationError, match="unknown policy preset"):
            ExecutionPolicy.preset("quantum")

    def test_invalid_override_still_validates(self):
        with pytest.raises(EvaluationError):
            ExecutionPolicy.preset("local", intra_query="quantum")


class TestAuto:
    def test_auto_follows_the_host_shape(self, host_shape):
        cores, fork = host_shape
        expected = "parallel" if cores >= 2 and fork else "local"
        assert ExecutionPolicy.auto() == ExecutionPolicy.preset(expected)

    def test_auto_leaves_routing_to_the_router(self):
        policy = ExecutionPolicy.auto()
        assert policy.intra_query == "off" and policy.routing == "auto"

    def test_auto_accepts_overrides(self):
        assert ExecutionPolicy.auto(max_workers=2).max_workers == 2

    def test_auto_sessions_run_queries(self, toy_graph):
        sequential = GraphSession(toy_graph).run("knows.knows").rows()
        session = GraphSession(toy_graph, policy=ExecutionPolicy.auto())
        assert session.run("knows.knows").rows() == sequential
