"""Smoke tests for the top-level public API and the runnable examples.

The examples are part of the deliverable; running their ``main()``
functions end to end (with captured output) guards against drift between
the library API and the documentation-level code users copy from.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_minimal_workflow_through_top_level_api(self):
        source = (
            repro.GraphBuilder()
            .node("a", 1)
            .node("b", 2)
            .edge("a", "r", "b")
            .build()
        )
        mapping = repro.GraphSchemaMapping([("r", "t.t")])
        target = repro.universal_solution(mapping, source)
        assert repro.is_solution(mapping, source, target)
        answers = repro.certain_answers(mapping, source, repro.rpq("t.t"))
        assert {(left.id, right.id) for left, right in answers} == {("a", "b")}

    def test_subpackages_importable(self):
        for module in (
            "repro.datagraph",
            "repro.regular",
            "repro.datapaths",
            "repro.query",
            "repro.gxpath",
            "repro.relational",
            "repro.core",
            "repro.reductions",
            "repro.workloads",
            "repro.experiments",
        ):
            assert importlib.import_module(module) is not None


def _load_example(name: str):
    """Import an example script as a module (examples are not a package)."""
    path = EXAMPLES_DIR / f"{name}.py"
    assert path.exists(), path
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.parametrize(
        "name,expected_fragment",
        [
            ("quickstart", "Who certainly knows whom"),
            ("social_network_integration", "Certainly knows (direct)"),
            ("provenance_exchange", "approximation recall"),
            ("property_graph_to_datagraph", "certain contacts"),
        ],
    )
    def test_example_runs_and_prints(self, capsys, name, expected_fragment):
        module = _load_example(name)
        module.main()
        output = capsys.readouterr().out
        assert expected_fragment in output

    def test_reproduce_paper_claims_single_experiment(self, capsys):
        module = _load_example("reproduce_paper_claims")
        exit_code = module.main(["--quick", "--only", "E8"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "E8" in output and "agree" in output

    def test_reproduce_paper_claims_rejects_unknown_experiment(self, capsys):
        module = _load_example("reproduce_paper_claims")
        with pytest.raises(SystemExit):
            module.main(["--only", "E99"])
