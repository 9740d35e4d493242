"""Golden runs: values and simulated times, frozen before the page
kernels were deleted.

``golden_runs.json`` was recorded from the per-page executor (the
``process_sp`` / ``process_lp`` loop) at the commit before it went, so
every row is what the one remaining body — ``process_batch`` plus the
scheduler's booking — must keep reproducing bit for bit: every entry
of :data:`KERNELS` x {performance, scalability} x three R-MAT
databases x {clean, traced, a recoverable fault plan at three seeds},
and the two incremental relaxers after a seeded insert batch on the
same grid.

``PYTHONPATH=src python tests/golden_runs.py --write`` regenerates the
file (byte-identically, on an unchanged program); pytest checks it.
Simulated times, counters and integer / min / OR-valued outputs do not
depend on the NumPy build; the digests of float-accumulating outputs
(:data:`FLOAT_KERNELS`) are compared only under the ``numpy`` version
the file records.

Provenance, so the file can be audited: at commit ``3aaca11`` (PR 21,
the last with ``GTSEngine(execution=)``) run this module's
``golden_rows()`` twice with ``core.GTSEngine`` wrapped to pass
``execution="paged"`` and then ``"auto"``; the two agree on every field
but ``fault_stats["fallback_rounds"]`` (``paged`` never falls back, so
it reads 0), and the file is the ``paged`` rows with that one counter
taken from ``auto``.
"""

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from repro import core
from repro.dynamic import (
    DynamicGraphDatabase,
    UpdateBatch,
    incremental_bfs,
    incremental_wcc,
)
from repro.faults import FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_runs.json")


def _rng(start, num_vertices):
    return np.random.default_rng([start, num_vertices])


#: Every kernel, one table: name -> factory(start vertex, |V|).
KERNELS = {
    "pagerank": lambda start, n: core.PageRankKernel(iterations=4),
    "bfs": lambda start, n: core.BFSKernel(start_vertex=start),
    "sssp": lambda start, n: core.SSSPKernel(start_vertex=start),
    "wcc": lambda start, n: core.WCCKernel(),
    # Two sources, so the per-source state reset is crossed.
    "bc": lambda start, n: core.BCKernel(sources=(start, (start + 1) % n)),
    "kcore1": lambda start, n: core.KCoreKernel(k=1),
    "kcore3": lambda start, n: core.KCoreKernel(k=3),
    "rwr": lambda start, n: core.RWRKernel(query_vertex=start,
                                           iterations=3),
    "radius": lambda start, n: core.RadiusKernel(num_sketches=4,
                                                 max_hops=4),
    "degree": lambda start, n: core.DegreeKernel(),
    "cross_edges": lambda start, n: core.CrossEdgesKernel(
        _rng(start, n).integers(0, 3, size=n)),
    "induced": lambda start, n: core.InducedSubgraphKernel(
        _rng(start, n).random(n) < 0.5, collect_edges=True),
    "egonet": lambda start, n: core.EgonetKernel(start, collect_edges=True),
    "neighborhood": lambda start, n: core.NeighborhoodKernel(start, hops=2),
}
#: Kernels defined on undirected input.
SYMMETRISED = {"wcc", "kcore1", "kcore3"}
#: Kernels whose outputs accumulate floats (``add.reduceat`` /
#: ``add.at``): bit-stable under one NumPy build only.
FLOAT_KERNELS = {"pagerank", "rwr", "bc"}

RECOVERABLE = FaultPlan(ssd_transient_rate=0.02, ssd_corrupt_rate=0.01,
                        copy_error_rate=0.01, stall_rate=0.03,
                        stall_seconds=2e-4)
VARIANTS = {
    "clean": {},
    "traced": {"tracing": True},
    "faults0": {"faults": RECOVERABLE, "fault_seed": 0},
    "faults1": {"faults": RECOVERABLE, "fault_seed": 1},
    "faults2": {"faults": RECOVERABLE, "fault_seed": 2},
}
#: What a row pins of a :class:`~repro.core.result.RunResult`, besides
#: its rounds, values and ``fault_stats``.
PINNED = ("elapsed_seconds", "num_rounds", "cache_hits", "cache_misses",
          "mm_buffer_hits", "mm_buffer_misses", "storage_bytes_read",
          "pages_streamed", "bytes_streamed", "kernel_invocations",
          "edges_traversed", "transfer_busy_seconds",
          "kernel_busy_seconds", "kernel_stream_seconds")


def _databases():
    """The three R-MAT fixtures: weighted 512-byte pages (large-page
    runs interleaved with small pages in pid order), unweighted
    symmetrised 1 KB, weighted 2 KB."""
    return {
        "w512": build_database(
            generate_rmat(9, edge_factor=12, seed=4).with_random_weights(
                seed=4), PageFormatConfig(2, 2, 512, weight_bytes=4)),
        "u1024sym": build_database(
            generate_rmat(8, edge_factor=8, seed=11).symmetrised(),
            PageFormatConfig(2, 2, 1024)),
        "w2048": build_database(
            generate_rmat(9, edge_factor=8, seed=21).with_random_weights(
                seed=21), PageFormatConfig(2, 2, 2048, weight_bytes=4)),
    }


def _cases(db, machine):
    """``(kernel name, database, kernel factory)``: the table, then the
    relaxers continuing a finished run after a seeded 12-edge symmetric
    insert batch on an overlay of ``db``."""
    start = int(np.argmax(db.out_degrees))
    for name in sorted(KERNELS):
        yield name, db, lambda name=name: KERNELS[name](start,
                                                        db.num_vertices)
    dyn = DynamicGraphDatabase(db)
    engine = core.GTSEngine(dyn, machine)
    levels = engine.run(core.BFSKernel(start_vertex=start)).values["level"]
    labels = engine.run(core.WCCKernel()).values["component"]
    rng = np.random.default_rng(db.num_pages)
    weight = 1.5 if db.config.weight_bytes else None
    batch = UpdateBatch()
    for _ in range(12):
        u, v = (int(x) for x in rng.integers(db.num_vertices, size=2))
        batch.insert_edge(u, v, weight).insert_edge(v, u, weight)
    dyn.apply(batch)
    yield "incremental_bfs", dyn, lambda: incremental_bfs(dyn, levels,
                                                          [batch])
    yield "incremental_wcc", dyn, lambda: incremental_wcc(dyn, labels,
                                                          [batch])


def _sha256(values):
    sha = hashlib.sha256()
    for key in sorted(values):
        array = np.ascontiguousarray(values[key])
        sha.update(("%s:%s:%s;" % (key, array.dtype.str,
                                   array.shape)).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _row(name, result):
    row = {field: getattr(result, field) for field in PINNED}
    row["rounds_sha256"] = hashlib.sha256(json.dumps(
        [dataclasses.asdict(r) for r in result.rounds],
        sort_keys=True).encode()).hexdigest()
    row["values_sha256"] = _sha256(result.values)
    row["fault_stats"] = result.fault_stats and dict(result.fault_stats)
    if row["fault_stats"] and name.startswith("incremental"):
        # The page loop that recorded these rows never counted a
        # booking fallback for a kernel without a batch body.
        del row["fault_stats"]["fallback_rounds"]
    # Floats as the strings JSON writes them (``repr``): exact, and
    # immune to a reader's float parsing.
    return json.loads(json.dumps(row), parse_float=str)


def golden_rows():
    """Yield ``(row id, row)`` over the whole grid, in file order."""
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    for db_name, base in _databases().items():
        for name, db, make_kernel in _cases(base, machine):
            for strategy in ("performance", "scalability"):
                for variant, options in VARIANTS.items():
                    # A buffer of 16 pages keeps the storage path (and
                    # its fault sites) in every round.
                    result = core.GTSEngine(
                        db, machine, strategy=strategy,
                        mm_buffer_bytes=16 * db.config.page_size,
                        **options).run(make_kernel())
                    yield ("/".join((db_name, name, strategy, variant)),
                           _row(name, result))


def write_golden():
    """Rewrite the file, one row per line."""
    lines = ["%s: %s" % (json.dumps(row_id), json.dumps(row, sort_keys=True))
             for row_id, row in golden_rows()]
    with open(GOLDEN_PATH, "w") as handle:
        handle.write('{"numpy": %s, "rows": {\n%s\n}}\n'
                     % (json.dumps(np.__version__), ",\n".join(lines)))
    return len(lines)


def test_golden_runs_reproduce_bit_for_bit():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    same_numpy = golden["numpy"] == np.__version__
    seen = 0
    for row_id, row in golden_rows():
        want = golden["rows"][row_id]
        if row_id.split("/")[1] in FLOAT_KERNELS and not same_numpy:
            row["values_sha256"] = want["values_sha256"]
        assert row == want, row_id
        seen += 1
    assert seen == len(golden["rows"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/golden_runs.py --write")
    print("wrote %d rows to %s" % (write_golden(), GOLDEN_PATH))
