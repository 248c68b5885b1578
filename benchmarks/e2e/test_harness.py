"""Self-test of the benchmark harness (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Runs every workload once, briefly, so expect about two minutes.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
for path in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as runner  # noqa: E402
from graphs import graph_document, graph_json  # noqa: E402
from harness import run_workload  # noqa: E402
from oracle import load_expected  # noqa: E402
from tracer import TABLE, raw_object  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = runner.manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def inputs_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    document = graph_document(workload.graph, seed)
    payload = graph_json(document) + json.dumps(workload.client_ops(seed, document))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_on_the_seed_and_nothing_else(name):
    assert inputs_digest(name, 7) == inputs_digest(name, 7)
    assert inputs_digest(name, 7) != inputs_digest(name, 8)


def test_manifest_declares_the_workloads_and_bounded_metrics():
    assert [entry["name"] for entry in MANIFEST["workloads"]] == list(WORKLOADS)
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for key in ("end_to_end", "per_layer") for entry in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in MANIFEST["end_to_end"])
    assert any(entry["name"] == "setup_s" for entry in MANIFEST["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_and_tracing_restores_names(name):
    before = {dotted: raw_object(dotted) for _metric, dotted in TABLE}
    for trace in (False, True):
        result = run_workload(name, seed=1, seconds=0.1, trace=trace)
        assert result["failed"] == 0, result["problems"]
        line = json.loads(runner.result_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in runner.declared_metrics(trace)}
        assert set(line["metrics"]) == set(declared)
        # the harness computes nothing the manifest does not declare
        assert set(result["metrics"]) == set(declared)
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == declared[metric]
            assert isinstance(entry["value"], (int, float))
        if not trace:
            assert all(entry["value"] > 0 for entry in line["metrics"].values())
    for dotted, original in before.items():
        assert raw_object(dotted) is original, dotted


def test_a_wrong_expected_count_is_a_failed_operation():
    workload = WORKLOADS["rpq_full"]
    expected = load_expected(workload, 1)
    key = next(iter(expected))
    expected[key] = (expected[key][0] + 1, expected[key][1])
    result = run_workload("rpq_full", seed=1, seconds=0.1, trace=False, expected=expected)
    assert result["failed"] > 0 and result["correct"] is False
    assert any(key in problem for problem in result["problems"])


def test_a_wrong_expected_digest_is_a_failed_operation():
    workload = WORKLOADS["rpq_full"]
    expected = load_expected(workload, 1)
    key = next(iter(expected))
    expected[key] = (expected[key][0], "0" * 64)
    result = run_workload("rpq_full", seed=1, seconds=0.1, trace=False, expected=expected)
    assert result["failed"] > 0
