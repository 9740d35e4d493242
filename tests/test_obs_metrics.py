"""Tests for the metrics registry and run-metric collection."""

import json

import pytest

from repro.core import BFSKernel, GTSEngine
from repro.errors import ConfigurationError
from repro.obs import (
    Histogram,
    MetricsRegistry,
    collect_run_metrics,
)


@pytest.fixture(scope="module")
def bfs_result(rmat_db, machine):
    return GTSEngine(rmat_db, machine).run(BFSKernel(0))


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_holds_last_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(1.5)
        gauge.set(0.25)
        assert gauge.snapshot() == 0.25

    def test_histogram_snapshot(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["mean"] == 2.5
        assert snap["p50"] == pytest.approx(2.5)

    def test_empty_histogram_snapshot(self):
        # Same keys as a populated snapshot, stats explicitly null — so
        # downstream flattening/JSON consumers see a stable shape.
        assert Histogram("h").snapshot() == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "mean": None, "p50": None, "p95": None, "p99": None,
        }

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")


class TestSerialization:
    def test_as_dict_shape(self):
        registry = MetricsRegistry(meta={"algorithm": "BFS"})
        registry.counter("hits").inc(3)
        payload = registry.as_dict()
        assert payload["meta"] == {"algorithm": "BFS"}
        assert payload["metrics"]["hits"] == {"kind": "counter",
                                              "value": 3}

    def test_to_json_writes_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        path = str(tmp_path / "sub" / "metrics.json")
        text = registry.to_json(path)
        assert json.loads(text)["metrics"]["g"]["value"] == 1.0
        assert json.load(open(path)) == json.loads(text)

    def test_append_jsonl_accumulates(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        for run in range(3):
            registry = MetricsRegistry(meta={"run": run})
            registry.counter("c").inc(run)
            registry.append_jsonl(path)
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[2])["metrics"]["c"]["value"] == 2

    def test_append_jsonl_stamps_schema_and_extra_meta(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        registry = MetricsRegistry(meta={"run": 1})
        registry.counter("c").inc()
        registry.append_jsonl(path, extra_meta={"experiment": "fig9"})
        record = json.loads(open(path).read())
        assert record["schema"] == MetricsRegistry.JSONL_SCHEMA_VERSION
        assert record["meta"] == {"run": 1, "experiment": "fig9"}
        # The merge happens at write time only.
        assert registry.meta == {"run": 1}


class TestCollectRunMetrics:
    def test_counters_match_result(self, bfs_result):
        registry = collect_run_metrics(bfs_result)
        payload = registry.as_dict()["metrics"]
        assert payload["run.bytes_streamed"]["value"] \
            == bfs_result.bytes_streamed
        assert payload["run.pages_streamed"]["value"] \
            == bfs_result.pages_streamed
        assert payload["cache.hits"]["value"] == bfs_result.cache_hits
        assert payload["cache.hit_rate"]["value"] \
            == pytest.approx(bfs_result.cache_hit_rate)
        assert payload["mm_buffer.hit_rate"]["value"] \
            == pytest.approx(bfs_result.mm_buffer_hit_rate)

    def test_round_latency_histogram(self, bfs_result):
        registry = collect_run_metrics(bfs_result)
        snap = registry["round.latency_seconds"].snapshot()
        assert snap["count"] == bfs_result.num_rounds
        assert snap["sum"] == pytest.approx(
            sum(r.elapsed for r in bfs_result.rounds))

    def test_meta_identifies_the_run(self, bfs_result):
        registry = collect_run_metrics(bfs_result)
        assert registry.meta["algorithm"] == "BFS"
        assert registry.meta["strategy"] == bfs_result.strategy
        assert registry.meta["cache_policy"] == bfs_result.cache_policy
        assert "execution" not in registry.meta

    def test_registry_round_trips_through_json(self, bfs_result):
        registry = collect_run_metrics(bfs_result)
        decoded = json.loads(registry.to_json())
        assert decoded["metrics"]["run.num_rounds"]["value"] \
            == bfs_result.num_rounds
