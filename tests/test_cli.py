"""Tests for the ``python -m repro`` command line."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphgen import generate_rmat
from repro.graphgen.io import write_edge_list
from repro.obs import validate_chrome_trace


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "bfs"])

    def test_run_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "rmat26", "--edges", "x.txt"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "rmat26", "--algorithm", "magic"])

    @pytest.mark.parametrize("flag", [
        ["--backend", "process"], ["--backend-workers", "2"],
        ["--store-mode", "mmap"]])
    def test_removed_host_knobs_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "rmat26", "--algorithm", "bfs"]
                + flag)


class TestDatasetsCommand:
    def test_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "rmat26" in output
        assert "yahooweb" in output


class TestRunCommand:
    def test_bfs_on_registry_dataset(self, capsys):
        assert main(["run", "--dataset", "rmat26",
                     "--algorithm", "bfs"]) == 0
        output = capsys.readouterr().out
        assert "BFS on rmat26" in output
        assert "level" in output

    def test_pagerank_with_options(self, capsys):
        assert main(["run", "--dataset", "rmat26",
                     "--algorithm", "pagerank", "--iterations", "3",
                     "--streams", "4", "--strategy", "scalability",
                     "--micro", "hybrid", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "PageRank on rmat26" in output
        assert "scalability" in output

    def test_kcore(self, capsys):
        assert main(["run", "--dataset", "rmat26",
                     "--algorithm", "kcore", "--k", "3"]) == 0
        assert "KCore" in capsys.readouterr().out

    def test_edge_list_file(self, tmp_path, capsys):
        graph = generate_rmat(7, edge_factor=4, seed=2)
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        assert main(["run", "--edges", path, "--algorithm", "bfs",
                     "--start", "0"]) == 0
        assert "BFS" in capsys.readouterr().out

    def test_gts_error_becomes_exit_code(self, tmp_path, capsys):
        graph = generate_rmat(7, edge_factor=4, seed=2)
        path = str(tmp_path / "g.txt")
        write_edge_list(graph, path)
        # One-GPU machine with start vertex out of range.
        assert main(["run", "--edges", path, "--algorithm", "bfs",
                     "--start", "999999"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSavedDatabaseRuns:
    def _save(self, tmp_path):
        from repro.format import PageFormatConfig, build_database
        from repro.format.io import save_database
        graph = generate_rmat(6, edge_factor=4, seed=3)
        config = PageFormatConfig(2, 2, 2048)
        prefix = str(tmp_path / "saved")
        save_database(build_database(graph, config), prefix)
        return prefix

    def test_run_on_saved_database(self, tmp_path, capsys):
        prefix = self._save(tmp_path)
        assert main(["run", "--db", prefix, "--algorithm", "bfs"]) == 0
        assert "BFS" in capsys.readouterr().out

    def test_weighted_algorithm_rejects_unweighted_db(self, tmp_path,
                                                      capsys):
        """`run --db` must not hand an unweighted topology to a kernel
        that needs edge weights (adj_weights would be None)."""
        prefix = self._save(tmp_path)
        assert main(["run", "--db", prefix, "--algorithm", "sssp"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "weight" in err

    def test_symmetrised_algorithm_warns_on_db(self, tmp_path, capsys):
        prefix = self._save(tmp_path)
        assert main(["run", "--db", prefix, "--algorithm", "cc"]) == 0
        captured = capsys.readouterr()
        assert "used as-is" in captured.err
        assert "CC" in captured.out


class TestRunArtifacts:
    def test_json_output_mode(self, capsys):
        assert main(["run", "--dataset", "rmat26",
                     "--algorithm", "bfs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "BFS"
        assert payload["dataset"] == "rmat26"
        assert payload["num_rounds"] == len(payload["rounds"])
        assert payload["elapsed_seconds"] > 0
        # Value arrays are summarised, not dumped.
        assert set(payload["values"]["level"]) \
            == {"dtype", "size", "min", "max"}

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path,
                                                 capsys):
        path = str(tmp_path / "trace.json")
        assert main(["run", "--dataset", "rmat26", "--algorithm",
                     "pagerank", "--iterations", "2",
                     "--trace-out", path]) == 0
        assert "wrote trace" in capsys.readouterr().err
        events = validate_chrome_trace(json.load(open(path)))
        assert any(e.get("name") == "kernel" for e in events)

    def test_metrics_out_includes_drift(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(["run", "--dataset", "rmat26", "--algorithm",
                     "bfs", "--metrics-out", path]) == 0
        payload = json.load(open(path))
        assert payload["meta"]["algorithm"] == "BFS"
        metrics = payload["metrics"]
        assert metrics["run.elapsed_seconds"]["value"] > 0
        assert metrics["round.latency_seconds"]["value"]["count"] > 0
        assert "cost_model.drift" in metrics


class TestProfileCommand:
    def test_prints_timeline_and_drift(self, capsys):
        assert main(["profile", "--dataset", "rmat26",
                     "--algorithm", "bfs", "--width", "40"]) == 0
        output = capsys.readouterr().out
        assert "gpu0/copy engine" in output
        assert "gpu0/stream[0]" in output
        assert "drift" in output

    def test_profile_writes_artifacts(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        assert main(["profile", "--dataset", "rmat26",
                     "--algorithm", "pagerank", "--iterations", "2",
                     "--trace-out", trace,
                     "--metrics-out", metrics]) == 0
        validate_chrome_trace(json.load(open(trace)))
        assert "cost_model.drift" in json.load(open(metrics))["metrics"]


class TestRecommendCommand:
    def test_prints_recommendation(self, capsys):
        assert main(["recommend", "--dataset", "rmat26",
                     "--algorithm", "pagerank"]) == 0
        output = capsys.readouterr().out
        assert "recommendation" in output
        assert "streams" in output


class TestBenchCommand:
    def test_table2(self, capsys):
        assert main(["bench", "--experiment", "table2"]) == 0
        assert "80.00 GB" in capsys.readouterr().out

    def test_fig14(self, capsys):
        assert main(["bench", "--experiment", "fig14",
                     "--algorithm", "BFS"]) == 0
        assert "vertex-centric" in capsys.readouterr().out


class TestObsAnalyzeCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(["run", "--dataset", "rmat26", "--algorithm",
                     "pagerank", "--iterations", "2", "--no-cache",
                     "--trace-out", path]) == 0
        return path

    def test_analyze_reports_overlap(self, trace_path, capsys):
        assert main(["obs", "analyze", trace_path]) == 0
        output = capsys.readouterr().out
        assert "overlap-hiding ratio" in output
        assert "rounds" in output

    def test_analyze_json_and_out(self, trace_path, tmp_path, capsys):
        out = str(tmp_path / "analysis.json")
        assert main(["obs", "analyze", trace_path, "--json",
                     "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "gts-trace-analysis/1"
        assert payload == json.load(open(out))

    def test_missing_trace_is_an_error(self, capsys):
        assert main(["obs", "analyze", "/nonexistent/trace.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestObsCompareCommand:
    def _write(self, tmp_path, name, elapsed):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"run": {"elapsed_seconds": elapsed, "mteps": 1.0}}))
        return str(path)

    def test_unchanged_exits_zero(self, tmp_path, capsys):
        before = self._write(tmp_path, "a.json", 1.0)
        after = self._write(tmp_path, "b.json", 1.0)
        assert main(["obs", "compare", before, after]) == 0
        assert "UNCHANGED" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, tmp_path,
                                                capsys):
        before = self._write(tmp_path, "a.json", 1.0)
        after = self._write(tmp_path, "b.json", 2.0)
        assert main(["obs", "compare", before, after]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_custom_rules_and_json(self, tmp_path, capsys):
        before = self._write(tmp_path, "a.json", 1.0)
        after = self._write(tmp_path, "b.json", 2.0)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{
            "pattern": "run.elapsed_seconds", "direction": "lower",
            "rel_tol": 5.0}]))
        assert main(["obs", "compare", before, after,
                     "--rules", str(rules), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unchanged"

    def test_history_gate(self, tmp_path, capsys):
        from repro.obs.history import append_history
        history = str(tmp_path / "hist.jsonl")
        append_history(history, "bench",
                       {"run": {"elapsed_seconds": 1.0}},
                       meta={"quick": True})
        current = self._write(tmp_path, "fresh.json", 2.0)
        assert main(["obs", "compare", "--history", history,
                     "--benchmark", "bench", "--match", "quick=true",
                     current]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        # A meta filter with no matching baseline gates nothing.
        assert main(["obs", "compare", "--history", history,
                     "--benchmark", "bench", "--match", "quick=false",
                     current]) == 0
        assert "no matching" in capsys.readouterr().out

    def test_history_requires_benchmark(self, tmp_path, capsys):
        current = self._write(tmp_path, "fresh.json", 1.0)
        assert main(["obs", "compare", "--history",
                     str(tmp_path / "h.jsonl"), current]) == 1
        assert "--benchmark" in capsys.readouterr().err

    def test_two_files_required_without_history(self, tmp_path,
                                                capsys):
        only = self._write(tmp_path, "a.json", 1.0)
        assert main(["obs", "compare", only]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_match_syntax(self, tmp_path, capsys):
        current = self._write(tmp_path, "fresh.json", 1.0)
        assert main(["obs", "compare", "--history",
                     str(tmp_path / "h.jsonl"), "--benchmark", "bench",
                     "--match", "noequals", current]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err


class TestObsHistoryCommand:
    def test_lists_records(self, tmp_path, capsys):
        from repro.obs.history import append_history
        history = str(tmp_path / "hist.jsonl")
        append_history(history, "bench", {"x": 1},
                       meta={"quick": True}, generated="t0")
        append_history(history, "other", {"y": 2}, generated="t1")
        assert main(["obs", "history", "--path", history]) == 0
        output = capsys.readouterr().out
        assert "bench" in output and "other" in output
        assert main(["obs", "history", "--path", history,
                     "--benchmark", "bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["benchmark"] for r in payload] == ["bench"]

    def test_checked_in_history_is_loadable(self, capsys):
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        path = os.path.join(root, "BENCH_history.jsonl")
        assert main(["obs", "history", "--path", path]) == 0
        output = capsys.readouterr().out
        assert "wallclock_batched_vs_paged" in output
        assert "fault_injection_zero_fault_overhead" in output


class TestReportCommand:
    def test_aggregates_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2_idconfig.txt").write_text("Table 2 body\n")
        (results / "custom_extra.txt").write_text("extra body\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        output = capsys.readouterr().out
        assert "REPORT.md" in output
        report = (results / "REPORT.md").read_text()
        assert "Table 2 body" in report
        assert "extra body" in report
        assert "missing artifacts" in output or True

    def test_missing_results_reported(self, tmp_path, capsys):
        results = tmp_path / "empty"
        results.mkdir()
        assert main(["report", "--results-dir", str(results)]) == 0
        assert "missing artifacts" in capsys.readouterr().out
