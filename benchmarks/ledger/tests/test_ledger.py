"""Checks on the ledger benchmark itself.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only); run

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
RUN = os.path.join(LEDGER, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def ledger():
    """The benchmark's modules, imported the way ``run.py`` finds them."""
    for path in (os.path.join(ROOT, "src"), LEDGER):
        if path not in sys.path:
            sys.path.insert(0, path)
    # trace.py shares its name with a stdlib module nobody here uses.
    loaded = getattr(sys.modules.get("trace"), "__file__", "")
    if not loaded.startswith(LEDGER):
        sys.modules.pop("trace", None)
    return types.SimpleNamespace(
        trace=importlib.import_module("trace"),
        workloads=importlib.import_module("workloads"),
        metrics=importlib.import_module("metrics"))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_spec_meets_the_contract(spec, ledger):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in ledger.workloads.WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])


def test_selfcheck_emits_exactly_the_named_metrics(spec):
    """rmat10, every workload, untraced and traced: each metric and
    workload BENCHMARK.json names comes out with its unit, and nothing
    unnamed does."""
    done = subprocess.run([sys.executable, RUN, "--selfcheck"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selfcheck: ok" in done.stdout
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith('{"correct"')]
    assert len(lines) == 2 * len(spec["workloads"])
    listed = {kind: {m["name"]: m["unit"] for m in spec[kind]}
              for kind in ("end_to_end", "per_layer")}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        units = {name: entry["unit"]
                 for name, entry in line["metrics"].items()}
        assert units in (listed["end_to_end"], listed["per_layer"])
        if units == listed["end_to_end"]:
            assert all(entry["value"] > 0
                       for entry in line["metrics"].values())


def test_benchmark_fails_fast_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files the command exits non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def traced_run(ledger, tmp_path_factory):
    """Spans of one tiny traced engine run."""
    workloads = ledger.workloads
    workload = workloads.WORKLOADS["traverse"].tiny()
    prefix = str(tmp_path_factory.mktemp("ledger") / "graph")
    _, graph, db = workloads.build_dataset(workload, 7, prefix)
    dataset = {"prefix": prefix, "pool_pages": db.num_pages,
               "num_vertices": db.num_vertices, "num_edges": db.num_edges,
               "starts": workloads.pick_starts(graph, 7)}
    with ledger.trace.Tracer() as tracer:
        measured = workloads.measure_engine(workload, dataset, 7, 0.0,
                                            tracer)
    return tracer, measured


def test_spans_nest_and_self_times_are_non_negative(traced_run, ledger):
    tracer, measured = traced_run
    assert measured["tally"].failed == 0
    by_id = {span[0]: span for span in tracer.spans}
    children = {}
    assert len(by_id) == len(tracer.spans) > 0
    for span in tracer.spans:
        ident, parent, name, start, end, self_ns, thread = span[:7]
        assert name in ledger.trace.SPAN_NAMES
        assert end >= start and self_ns >= 0
        if parent:
            outer = by_id[parent]
            assert outer[3] <= start and end <= outer[4]
            assert outer[6] == thread
            children[parent] = children.get(parent, 0) + end - start
    for ident, covered in children.items():
        span = by_id[ident]
        assert span[5] == span[4] - span[3] - covered


def test_layer_metrics_cover_the_traced_wall(traced_run, ledger, spec):
    tracer, measured = traced_run
    layers = ledger.metrics.per_layer(measured, tracer)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["trace.coverage"] > 0.9
    assert layers["core.plan.gather_s"] > 0
    assert layers["service.http.handler_s"] == 0


def test_deleted_boundary_lands_in_trace_missing(ledger, monkeypatch):
    """A refactor that removes a wrapped attribute (or its module) must
    not fail the benchmark: the span name is listed, the rest trace."""
    from repro.core.plan import PagePlan
    monkeypatch.delattr(PagePlan, "round_batch")
    monkeypatch.setattr(
        ledger.trace, "BOUNDARIES", ledger.trace.BOUNDARIES + [
            ("repro.no_such_module", "Gone", "call", "core.plan.get",
             False, None),
            ("repro.no_such_module", "Gone", "call", "dynamic.pin",
             False, None)])
    with ledger.trace.Tracer() as tracer:
        # core.plan.get is still fed by RoundPlanCache.get; dynamic.pin
        # keeps its real boundary too, so only the gather goes missing.
        assert tracer.missing == ["core.plan.gather"]
        assert tracer.installed
    assert not tracer.installed
    totals = ledger.trace.layer_totals(tracer.spans, "warm")
    assert totals["core.plan.gather"] == {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0}


def test_start_vertex_filter_rejects_a_sink(ledger):
    from repro.graphgen import Graph
    workloads = ledger.workloads
    # 0 -> 1..9, 1 -> 0 and 1 -> 2: vertices 2..9 are sinks.
    graph = Graph.from_edges(10, [0] * 9 + [1, 1],
                             list(range(1, 10)) + [0, 2])
    assert workloads.bfs_edges(graph, 5) == 0
    assert workloads.bfs_edges(graph, 0) == 11
    assert sorted(workloads.pick_starts(graph, seed=3, count=2)) == [0, 1]
    with pytest.raises(ValueError):
        workloads.pick_starts(graph, seed=3, count=3)
    rmat = workloads.make_graph(workloads.WORKLOADS["traverse"].tiny(), 7)
    for start in workloads.pick_starts(rmat, 7):
        assert workloads.bfs_edges(rmat, start) > rmat.num_vertices


def test_files_are_lint_clean_and_outside_tier_one():
    ruff = shutil.which("ruff")
    if ruff is not None:
        done = subprocess.run([ruff, "check", LEDGER], cwd=ROOT,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stdout
    # Tier-1 collects test_*.py / bench_*.py under ``tests/`` only; the
    # ledger's files must stay out of that walk.
    with open(os.path.join(ROOT, "pyproject.toml")) as handle:
        collected = re.search(r"testpaths = \[([^\]]*)\]", handle.read())
    roots = [os.path.join(ROOT, part.strip(' "'))
             for part in collected.group(1).split(",")]
    for folder, _, files in os.walk(LEDGER):
        for name in files:
            if re.match(r"(test|bench)_.*\.py$", name):
                assert not any(folder.startswith(root) for root in roots)
