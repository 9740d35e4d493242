"""Dynamic updates: incremental recomputation vs full rebuild + rerun.

For insert batches touching a small fraction of the graph, continuing
the previous answer from the dirtied pages must beat rebuilding the
database and restreaming every page.  The table sweeps batch sizes from
"a handful of edges" to "a sizable fraction of the graph" and reports
pages streamed plus simulated seconds for both strategies; an in-test
assertion locks the headline claim (strictly fewer pages whenever the
batch touches <10% of the vertices).
"""

import numpy as np

from repro.bench.harness import ExperimentTable, format_seconds
from repro.core import BFSKernel, GTSEngine
from repro.dynamic import (
    DynamicGraphDatabase,
    UpdateBatch,
    WriteAheadLog,
    compact,
    incremental_bfs,
    materialise_graph,
)
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation
from repro.units import KB

SCALE = 13          # 8K vertices -- big enough for many pages
EDGE_FACTOR = 16
BATCH_SIZES = (8, 32, 128, 512)


def _random_batch(rng, num_vertices, num_edges):
    batch = UpdateBatch()
    for _ in range(num_edges):
        batch.insert_edge(int(rng.integers(num_vertices)),
                          int(rng.integers(num_vertices)))
    return batch


def dynamic_update_comparison():
    config = PageFormatConfig(2, 2, 2 * KB)
    machine = scaled_workstation(num_gpus=1, num_ssds=2)
    graph = generate_rmat(SCALE, edge_factor=EDGE_FACTOR, seed=99)
    base = build_database(graph, config)
    start = int(np.argmax(graph.out_degrees()))

    table = ExperimentTable(
        "Incremental BFS after insert batches (RMAT%d, %d pages)"
        % (SCALE, base.num_pages),
        ["touched", "full pages", "incr pages", "full time", "incr time",
         "speedup"],
        caption="full = rebuild database + rerun from scratch; "
                "incr = WAL apply + restream dirtied pages only")

    rng = np.random.default_rng(2024)
    for batch_size in BATCH_SIZES:
        db = DynamicGraphDatabase(base)
        engine = GTSEngine(db, machine)
        prior = engine.run(BFSKernel(start_vertex=start))

        batch = _random_batch(rng, db.num_vertices, batch_size)
        db.apply(batch)
        touched = len(batch.touched_vertices())
        fraction = touched / db.num_vertices

        # Full strategy: fold everything into a fresh base, rerun.
        rebuilt = build_database(materialise_graph(db), config)
        full = GTSEngine(rebuilt, machine).run(BFSKernel(start_vertex=start))

        incr = engine.run(
            incremental_bfs(db, prior.values["level"], [batch]))
        np.testing.assert_array_equal(
            incr.values["level"], full.values["level"])

        if fraction < 0.10:
            assert incr.pages_streamed < full.pages_streamed, (
                "batch touching %.1f%% of vertices streamed %d pages "
                "vs %d for the full rerun"
                % (100 * fraction, incr.pages_streamed,
                   full.pages_streamed))

        speedup = (full.elapsed_seconds / incr.elapsed_seconds
                   if incr.elapsed_seconds > 0 else float("inf"))
        table.add_row(
            "%d edges" % batch_size,
            ["%d (%.1f%%)" % (touched, 100 * fraction),
             str(full.pages_streamed),
             str(incr.pages_streamed),
             format_seconds(full.elapsed_seconds),
             format_seconds(incr.elapsed_seconds),
             "%.1fx" % speedup])

    return table


def wal_compaction_lifecycle():
    """WAL growth and compaction across a stream of batches."""
    import os
    import tempfile

    with tempfile.TemporaryDirectory(prefix="gts-bench-wal-") as tmp:
        return _wal_compaction_lifecycle(os.path.join(tmp, "bench.wal"))


def _wal_compaction_lifecycle(wal_path):
    from repro.obs import collect_dynamic_metrics

    config = PageFormatConfig(2, 2, 2 * KB)
    graph = generate_rmat(SCALE - 2, edge_factor=8, seed=17)
    base = build_database(graph, config)
    wal = WriteAheadLog(wal_path, fsync=False)
    db = DynamicGraphDatabase(base, wal=wal)

    table = ExperimentTable(
        "WAL and delta growth over a mutation stream (RMAT%d)" % (SCALE - 2),
        ["delta bytes", "delta pages", "wal bytes"],
        caption="compaction folds the deltas back into a clean base; "
                "the log is kept until the base is durably saved")

    rng = np.random.default_rng(5)
    for checkpoint in (4, 16, 64):
        while db.applied_batches < checkpoint:
            db.apply(_random_batch(rng, db.num_vertices, 8))
        stats = db.dynamic_stats()
        table.add_row("%d" % checkpoint,
                      [str(stats["delta_bytes"]),
                       str(stats["delta_pages"]),
                       str(stats["wal_bytes_appended"])])

    compact(db)
    stats = db.dynamic_stats()
    assert stats["delta_bytes"] == 0
    assert stats["compactions"] == 1
    metrics = collect_dynamic_metrics(db).as_dict()["metrics"]
    assert metrics["compaction.count"]["value"] == 1
    table.add_row("compacted",
                  [str(stats["delta_bytes"]), str(stats["delta_pages"]),
                   "(kept)"])
    return table


def test_incremental_vs_full(report):
    report(dynamic_update_comparison, "dynamic_incremental_vs_full")


def test_wal_compaction_lifecycle(report):
    report(wal_compaction_lifecycle, "dynamic_wal_compaction")
