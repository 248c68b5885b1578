"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import GraphBuilder, graph_to_json
from repro.cli import main
from repro.datagraph import graph_from_json
from repro.experiments import EXPERIMENTS, Experiment, ExperimentResult
from repro.server import ReproServer, ServerConfig


@pytest.fixture
def graph_file(tmp_path):
    graph = (
        GraphBuilder(name="cli-src")
        .node("a", "v1")
        .node("b", "v1")
        .node("c", "v2")
        .edge("a", "r", "b")
        .edge("b", "r", "c")
        .build()
    )
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(graph), encoding="utf-8")
    return path


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({"name": "cli-map", "rules": [["r", "t.t"]]}), encoding="utf-8")
    return path


class TestInfoAndEvaluate:
    def test_info(self, graph_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        output = capsys.readouterr().out
        assert "3 nodes" in output and "alphabet" in output

    def test_evaluate_rpq(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--rpq", "r.r"]) == 0
        output = capsys.readouterr().out
        assert "a (v1)  ->  c (v2)" in output
        assert "1 answer(s)" in output

    def test_evaluate_ree(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--ree", "(r)="]) == 0
        output = capsys.readouterr().out
        assert "a (v1)  ->  b (v1)" in output

    def test_evaluate_rem(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--rem", "!x.(r[x!=])+"]) == 0
        output = capsys.readouterr().out
        assert "answer(s)" in output

    def test_missing_file(self, capsys):
        assert main(["info", "no-such-file.json"]) == 1

    def test_evaluate_crpq(self, graph_file, capsys):
        assert main([
            "evaluate", str(graph_file), "--crpq", "x, z :- (x, r, y), (y, r, z)",
        ]) == 0
        output = capsys.readouterr().out
        assert "a (v1)  ->  c (v2)" in output
        assert "1 answer(s)" in output

    def test_evaluate_crpq_json(self, graph_file, capsys):
        assert main([
            "evaluate", str(graph_file), "--crpq", ":- (x, r.r, y)", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "crpq" and payload["count"] == 1

    def test_explain_prints_the_join_plan_instead_of_answers(self, graph_file, capsys):
        assert main([
            "evaluate", str(graph_file), "--crpq", "x, y, z :- (x, r+, y), (y, r, z)",
            "--explain",
        ]) == 0
        output = capsys.readouterr().out
        assert "join order:" in output
        assert "HashJoin" in output and "SeededScan" in output
        assert "answer(s)" not in output

    def test_explain_prints_the_rewrites_above_the_tree(self, graph_file, capsys):
        assert main([
            "evaluate", str(graph_file), "--crpq", "x, z :- (x, r+, y), (y, r, z), (z, r, w)",
            "--explain",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        fused = next(i for i, line in enumerate(lines) if line.startswith("fused #0·#1 → #0 "))
        emits = next(i for i, line in enumerate(lines) if line.startswith("#1 (z, r, w) emits (z)"))
        tree = next(i for i, line in enumerate(lines) if line.startswith("Project [x, z]"))
        assert fused < emits < tree
        assert "atoms=2 (of 3 written)" in lines[fused - 1]

    def test_explain_other_dialects(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--rpq", "r.r", "--explain"]) == 0
        assert "NFA" in capsys.readouterr().out

    def test_explain_rejects_json(self, graph_file, capsys):
        assert main([
            "evaluate", str(graph_file), "--crpq", ":- (x, r, y)", "--explain", "--json",
        ]) == 1
        assert "drop --json" in capsys.readouterr().err

    def test_crpq_parse_error_is_reported(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--crpq", "x, z (x, r, y)"]) == 1
        assert "error" in capsys.readouterr().err

    def test_certain_has_no_crpq_flag(self, graph_file, mapping_file, capsys):
        with pytest.raises(SystemExit):
            main(["certain", str(graph_file), str(mapping_file), "--crpq", ":- (x, t, y)"])

    def test_backend_flag_forces_the_kernel_family(self, graph_file, capsys):
        for flag, text in (("--rpq", "r.r"), ("--rem", "!x.(r[x!=])+"), ("--gxpath-path", "r*")):
            assert main(["evaluate", str(graph_file), flag, text]) == 0
            expected = capsys.readouterr().out
            for backend in ("dict", "compact", "sql"):
                assert main(["evaluate", str(graph_file), flag, text, "--backend", backend]) == 0
                assert capsys.readouterr().out == expected, (text, backend)
        assert main(["evaluate", str(graph_file), "--rpq", "r.r", "--explain",
                     "--backend", "dict"]) == 0
        assert capsys.readouterr().out.startswith("route: sequential — policy override")

    @pytest.mark.parametrize(
        "flag, value",
        [("--num-shards", "2"), ("--intra-query-threshold", "2"),
         ("--policy", "intra-query"), ("--intra-query", "blocks"), ("--workers", "2"),
         ("--routing", "manual")],
        ids=["--num-shards", "--intra-query-threshold", "--policy", "--intra-query",
             "--workers", "--routing"],
    )
    def test_removed_knob_flags_are_rejected(self, graph_file, flag, value):
        # --backend is the one forcing flag.
        with pytest.raises(SystemExit):
            main(["evaluate", str(graph_file), "--rpq", "r", flag, value])

    @pytest.mark.parametrize("flag", ["--workers", "--num-shards", "--pool-min-nodes"])
    def test_removed_serve_flags_are_rejected(self, graph_file, flag):
        with pytest.raises(SystemExit):
            main(["serve", str(graph_file), "--port", "0", flag, "2"])


class TestRemoteEvaluate:
    @pytest.fixture
    def server(self, graph_file):
        graph = graph_from_json(graph_file.read_text(encoding="utf-8"))
        with ReproServer(graph, ServerConfig()) as server:
            yield "{}:{}".format(*server.address)

    def test_answers_as_a_local_session(self, graph_file, server, capsys):
        assert main(["evaluate", str(graph_file), "--rpq", "r.r"]) == 0
        expected = capsys.readouterr().out
        assert main(["evaluate", "--server", server, "--rpq", "r.r"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("backend", ["auto", "compact", "dict", "sql"])
    def test_a_local_policy_flag_is_rejected(self, server, capsys, backend):
        # The daemon runs its own policy: a local --backend would be ignored.
        assert main(["evaluate", "--server", server, "--rpq", "r.r", "--backend", backend]) == 1
        captured = capsys.readouterr()
        assert "--backend" in captured.err and "repro serve --backend" in captured.err
        assert captured.out == ""

    def test_timeout_needs_a_server(self, graph_file, capsys):
        assert main(["evaluate", str(graph_file), "--rpq", "r", "--timeout", "1"]) == 1
        assert "needs --server" in capsys.readouterr().err


class TestCertainAndExchange:
    def test_certain_answers(self, graph_file, mapping_file, capsys):
        assert main(["certain", str(graph_file), str(mapping_file), "--rpq", "t.t"]) == 0
        output = capsys.readouterr().out
        assert "a (v1)  ->  b (v1)" in output
        assert "2 answer(s)" in output

    def test_certain_answers_with_method(self, graph_file, mapping_file, capsys):
        assert main(
            ["certain", str(graph_file), str(mapping_file), "--ree", "(t.t)=", "--method", "naive"]
        ) == 0
        output = capsys.readouterr().out
        assert "a (v1)  ->  b (v1)" in output

    def test_exchange_to_file(self, graph_file, mapping_file, tmp_path, capsys):
        target_path = tmp_path / "target.json"
        assert main(
            ["exchange", str(graph_file), str(mapping_file), "--policy", "nulls", "-o", str(target_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        target = graph_from_json(target_path.read_text(encoding="utf-8"))
        assert len(target.null_nodes()) == 2

    def test_exchange_to_stdout(self, graph_file, mapping_file, capsys):
        assert main(["exchange", str(graph_file), str(mapping_file), "--policy", "fresh"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"]

    def test_bad_mapping_payload(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rules": "nope"}), encoding="utf-8")
        assert main(["certain", str(graph_file), str(bad), "--rpq", "t"]) == 1
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    @pytest.fixture
    def stub_runs(self, monkeypatch):
        """Replace every registry entry with a one-row stub; returns the call log."""
        calls = []

        def stub(name):
            def run():
                calls.append(name)
                result = ExperimentResult(experiment=name, claim="stub")
                result.add_row(holds=name != "E7")
                return result

            return run

        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, Experiment(stub(name), {}, ("holds",)))
        return calls

    def test_runs_a_small_experiment(self, capsys):
        assert main(["experiment", "e8"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("host: ")
        assert "### E8" in output and "agree" in output

    def test_quick_runs_each_named_experiment_in_order(self, capsys):
        assert main(["experiment", "e8", "e3", "--quick"]) == 0
        output = capsys.readouterr().out
        assert output.index("### E8") < output.index("### E3")
        e8, e3 = output.split("### E3")
        # Data rows: every pipe line but the header and its separator.
        assert e8.count("\n| ") - 2 == 2  # sizes (3, 4)
        assert e3.count("\n| ") - 2 == 3  # two agreement rows, one scaling row

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_an_unknown_name_stops_the_run_before_it_starts(self, stub_runs, capsys):
        assert main(["experiment", "E8", "E99"]) == 1
        captured = capsys.readouterr()
        assert stub_runs == [] and captured.out == ""
        assert "unknown experiment E99;" in captured.err

    def test_all_expands_to_the_registry(self, stub_runs, capsys):
        assert main(["experiment", "all"]) == 1
        assert stub_runs == [f"E{index}" for index in range(1, 11)]
        captured = capsys.readouterr()
        assert captured.out.count("### E") == 10
        assert "verdict columns read 'no': E7.holds" in captured.err
