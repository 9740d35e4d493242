"""Out-of-core pipeline: build, persist, reopen lazily, process.

Run with::

    python examples/out_of_core_pipeline.py

The deployment story the paper assumes: convert a raw edge list into the
slotted page format once (offline), store it on the SSD, and run
algorithms against the stored pages.  This example exercises the whole
path with real files — the pages on disk are byte-exact slotted pages —
and finishes with the Section 8 comparison against the earlier
out-of-core systems, X-Stream and GraphChi.
"""

import os
import tempfile

import numpy as np

from repro import (
    BFSKernel,
    PageFormatConfig,
    GTSEngine,
    build_database,
    generate_yahooweb_like,
    scaled_workstation,
)
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine
from repro.format.io import FileBackedDatabase, save_database
from repro.graphgen.io import read_edge_list, write_edge_list
from repro.units import KB, format_bytes, format_seconds

SCALE = 8192


def main():
    workdir = tempfile.mkdtemp(prefix="gts-pipeline-")
    edges_path = os.path.join(workdir, "crawl.txt")
    db_prefix = os.path.join(workdir, "crawl-db")

    # 1. A "crawl" arrives as an edge-list text file.
    graph = generate_yahooweb_like(num_vertices=32768, seed=12)
    write_edge_list(graph, edges_path)
    print("edge list: %s (%s)"
          % (edges_path, format_bytes(os.path.getsize(edges_path))))

    # 2. Offline conversion: parse, build slotted pages, persist.
    loaded = read_edge_list(edges_path)
    db = build_database(loaded, PageFormatConfig(2, 2, 2 * KB),
                        name="crawl")
    meta_path, pages_path = save_database(db, db_prefix)
    print("slotted pages: %s (%s, %d SP + %d LP)"
          % (pages_path, format_bytes(os.path.getsize(pages_path)),
             db.num_small_pages, db.num_large_pages))

    # 3. Reopen lazily: only a bounded pool of pages is ever decoded.
    lazy = FileBackedDatabase(db_prefix, pool_pages=64)
    machine = scaled_workstation()
    start = int(np.argmax(loaded.out_degrees()))
    result = GTSEngine(lazy, machine, num_streams=16).run(
        BFSKernel(start_vertex=start))
    print("\nGTS BFS over the file-backed database:")
    print("  " + result.summary())
    print("  page pool: %d resident of %d total (%d disk parses)"
          % (lazy.resident_pages(), lazy.num_pages, lazy.pool_misses))

    # 4. The Section 8 comparison on the same workload.
    print("\nvs the prior out-of-core engines (simulated seconds):")
    for engine in (XStreamEngine(time_scale=SCALE),
                   GraphChiEngine(time_scale=SCALE)):
        baseline = engine.run("bfs", loaded, {"start": start})
        print("  %-9s %10s  (%.1fx GTS; %d full-graph supersteps)"
              % (engine.name,
                 format_seconds(baseline.elapsed_seconds),
                 baseline.elapsed_seconds / result.elapsed_seconds,
                 baseline.num_rounds))
    print("\nwork dir kept at %s" % workdir)


if __name__ == "__main__":
    main()
