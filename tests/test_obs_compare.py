"""Tests for run comparison and benchmark history
(:mod:`repro.obs.compare`, :mod:`repro.obs.history`)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.compare import (
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    ToleranceRule,
    compare_metrics,
    flatten_metrics,
    load_rules,
)
from repro.obs.history import (
    append_history,
    compare_to_baseline,
    describe_history,
    latest_baseline,
    load_history,
    make_record,
)


class TestToleranceRule:
    def test_verdicts_lower_is_better(self):
        rule = ToleranceRule("t", "lower", abs_tol=0.1)
        assert rule.verdict(1.0, 1.05) == UNCHANGED
        assert rule.verdict(1.0, 0.5) == IMPROVED
        assert rule.verdict(1.0, 1.5) == REGRESSED

    def test_verdicts_higher_is_better(self):
        rule = ToleranceRule("t", "higher", rel_tol=0.1)
        assert rule.verdict(10.0, 10.5) == UNCHANGED
        assert rule.verdict(10.0, 12.0) == IMPROVED
        assert rule.verdict(10.0, 8.0) == REGRESSED

    def test_tolerance_is_max_of_abs_and_rel(self):
        rule = ToleranceRule("t", rel_tol=0.1, abs_tol=2.0)
        assert rule.tolerance(5.0) == 2.0
        assert rule.tolerance(100.0) == pytest.approx(10.0)

    def test_glob_matching(self):
        rule = ToleranceRule("kernels.*.speedup_best")
        assert rule.matches("kernels.pagerank.speedup_best")
        assert not rule.matches("kernels.pagerank.cold_seconds")

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigurationError):
            ToleranceRule("t", "sideways")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            ToleranceRule("t", rel_tol=-1.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            ToleranceRule.from_dict({"pattern": "t", "typo": 1})


class TestFlatten:
    def test_nested_dicts_dot_join(self):
        flat = flatten_metrics(
            {"a": {"b": 1, "c": {"d": 2.5}}, "e": 3})
        assert flat == {"a.b": 1.0, "a.c.d": 2.5, "e": 3.0}

    def test_skips_identity_and_non_numeric(self):
        flat = flatten_metrics({
            "generated": "2026-08-06", "host": {"python": "3.12"},
            "meta": {"scale": 13}, "gate_passed": True,
            "notes": "text", "warm": [1, 2], "value": 7})
        assert flat == {"value": 7.0}

    def test_registry_snapshot_shape(self):
        flat = flatten_metrics({
            "meta": {"algorithm": "BFS"},
            "metrics": {
                "run.elapsed_seconds": {"kind": "gauge", "value": 0.5},
                "round.latency_seconds": {
                    "kind": "histogram",
                    "value": {"count": 3, "p50": 0.1}},
            }})
        assert flat["run.elapsed_seconds"] == 0.5
        assert flat["round.latency_seconds.count"] == 3.0

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            flatten_metrics([1, 2])


class TestCompare:
    RULES = [ToleranceRule("run.elapsed_seconds", "lower", rel_tol=0.01),
             ToleranceRule("run.mteps", "higher", rel_tol=0.01)]

    def test_unchanged_within_tolerance(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0, "mteps": 100.0}},
            {"run": {"elapsed_seconds": 1.001, "mteps": 100.1}},
            rules=self.RULES)
        assert report.verdict == UNCHANGED
        assert report.exit_code == 0

    def test_injected_regression_trips_the_gate(self):
        """The PR 5 acceptance check: a synthetic slowdown must come
        back as ``regressed`` with a non-zero exit code."""
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0, "mteps": 100.0}},
            {"run": {"elapsed_seconds": 1.5, "mteps": 66.0}},
            rules=self.RULES)
        assert report.verdict == REGRESSED
        assert report.exit_code == 1
        assert {d.name for d in report.regressions()} \
            == {"run.elapsed_seconds", "run.mteps"}

    def test_improvement(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0}},
            {"run": {"elapsed_seconds": 0.5}},
            rules=self.RULES)
        assert report.verdict == IMPROVED
        assert report.exit_code == 0

    def test_regression_outranks_improvement(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0, "mteps": 100.0}},
            {"run": {"elapsed_seconds": 0.5, "mteps": 50.0}},
            rules=self.RULES)
        assert report.verdict == REGRESSED

    def test_untracked_metrics_ignored(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0}, "noise": 1.0},
            {"run": {"elapsed_seconds": 1.0}, "noise": 99.0},
            rules=self.RULES)
        assert report.verdict == UNCHANGED
        assert len(report.deltas) == 1

    def test_added_and_removed_surfaced(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0, "mteps": 10.0}},
            {"run": {"elapsed_seconds": 1.0}},
            rules=self.RULES)
        assert report.removed == ["run.mteps"]
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0}},
            {"run": {"elapsed_seconds": 1.0, "mteps": 10.0}},
            rules=self.RULES)
        assert report.added == ["run.mteps"]

    def test_first_matching_rule_wins(self):
        rules = [ToleranceRule("run.*", "lower", rel_tol=1.0),
                 ToleranceRule("run.elapsed_seconds", "lower")]
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0}},
            {"run": {"elapsed_seconds": 1.5}}, rules=rules)
        # The wide run.* band matched first: within tolerance.
        assert report.verdict == UNCHANGED

    def test_report_serializes(self):
        report = compare_metrics(
            {"run": {"elapsed_seconds": 1.0}},
            {"run": {"elapsed_seconds": 2.0}}, rules=self.RULES)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == REGRESSED
        assert payload["deltas"][0]["rel_change"] == 1.0
        assert "REGRESSED" in report.summary()

    def test_load_rules_roundtrip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"pattern": "x", "direction": "higher", "abs_tol": 0.5}]}))
        rules = load_rules(str(path))
        assert rules == [ToleranceRule("x", "higher", abs_tol=0.5)]

    def test_load_rules_rejects_empty(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_rules(str(path))

    def test_checked_in_regression_rules_parse(self):
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(
            __file__)))
        rules = load_rules(os.path.join(root, "benchmarks",
                                        "regression_rules.json"))
        assert any(r.matches("matrix.mixed.c8.simulated_total_seconds")
                   for r in rules)
        assert any(r.matches("dormant_overhead") for r in rules)


class TestHistory:
    def _append(self, path, elapsed, quick=True, generated="t0"):
        return append_history(
            str(path), "bench",
            {"run": {"elapsed_seconds": elapsed}},
            meta={"quick": quick, "scale": 13}, generated=generated)

    def test_records_roundtrip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0, generated="t0")
        self._append(path, 2.0, generated="t1")
        records = load_history(str(path))
        assert [r["generated"] for r in records] == ["t0", "t1"]
        assert records[0]["metrics"] == {"run.elapsed_seconds": 1.0}
        assert records[0]["schema"] == 1
        assert records[0]["kind"] == "gts-bench-history"

    def test_benchmark_filter(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0)
        append_history(str(path), "other", {"x": 1})
        assert len(load_history(str(path))) == 2
        assert len(load_history(str(path), benchmark="bench")) == 1

    def test_latest_baseline_matches_meta(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0, quick=True, generated="t0")
        self._append(path, 2.0, quick=False, generated="t1")
        records = load_history(str(path))
        assert latest_baseline(
            records, {"quick": True})["generated"] == "t0"
        assert latest_baseline(
            records, {"quick": False})["generated"] == "t1"
        assert latest_baseline(records, {"scale": 99}) is None
        # No filter: newest wins.
        assert latest_baseline(records)["generated"] == "t1"

    def test_compare_to_baseline_regression(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0)
        report, baseline = compare_to_baseline(
            str(path), "bench", {"run": {"elapsed_seconds": 1.5}},
            rules=[ToleranceRule("run.elapsed_seconds", "lower",
                                 rel_tol=0.01)],
            match_meta={"quick": True})
        assert baseline["generated"] == "t0"
        assert report.verdict == REGRESSED
        assert report.exit_code == 1

    def test_compare_to_baseline_no_match(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0, quick=True)
        report, baseline = compare_to_baseline(
            str(path), "bench", {"run": {"elapsed_seconds": 1.0}},
            match_meta={"quick": False})
        assert report is None and baseline is None

    def test_mangled_line_fails_loudly(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0)
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ConfigurationError):
            load_history(str(path))

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ConfigurationError):
            load_history(str(path))

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        record = make_record("bench", {"x": 1})
        record["schema"] = 999
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigurationError):
            load_history(str(path))

    def test_unnamed_record_rejected(self):
        with pytest.raises(ConfigurationError):
            make_record("", {"x": 1})

    def test_describe(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._append(path, 1.0, generated="t0")
        self._append(path, 2.0, generated="t1")
        text = describe_history(load_history(str(path)), limit=1)
        assert "t1" in text and "t0" not in text
        assert "1 older record(s)" in text
        assert describe_history([]) == "no history records"
