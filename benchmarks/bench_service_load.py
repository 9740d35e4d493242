"""Service load benchmark: the workload x concurrency x scale matrix.

Drives a :class:`repro.service.GraphService` the way a tenant mix
would — many concurrent queries over one shared database handle — and
measures what the service layer is for: cross-query sharing of the
page plan, admission behaviour at saturation, and host wall-clock
latency quantiles (p50/p95/p99) per cell of the matrix.

Protocol
--------
Each cell gets a *fresh* service (so its handle starts with no plan and
the build count is the cell's own), a file-backed handle with a deliberately tiny
page pool (``--pool-pages``), and ``--queries`` queries drawn
round-robin from the cell's workload with seeded start vertices.  A
query reads the store only to build the page plan; every later query
on the same topology version runs off the shared plan and reads
nothing.

The headline gate is that sharing: the top-concurrency mixed cell must
build its plan exactly once, however many queries race for it -- one
plan build per topology version against one engine (and one rebuild)
per query, which is what the service replaces.

Three further checks ride along: every query of the top-concurrency
mixed cell must be bit-identical (simulated time and values) to the
same query run serially at concurrency 1; an over-subscribed miniature
service must reject the overflow with typed ``AdmissionError`` while
completing everything it admitted; and in full mode the top cell must
sustain at least 64 concurrent queries.

A fifth gate prices the request telemetry
(:mod:`repro.obs.telemetry`): the same mixed cell runs bare and
instrumented, interleaved ``--telemetry-repeats`` times, and the
best-of-N instrumented p95 must stay within 1.05x of the bare one (a
2 ms absolute floor absorbs clock granularity at quick scale), with
every instrumented result bit-identical to its bare twin.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py          # full
    PYTHONPATH=src python benchmarks/bench_service_load.py --quick  # CI
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.errors import AdmissionError
from repro.format import PageFormatConfig, build_database
from repro.format.io import save_database
from repro.graphgen import generate_rmat
from repro.service import GraphService
from repro.units import KB

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_service.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")

#: Workload name -> algorithm rotation its queries are drawn from.
WORKLOADS = {
    "scan": ["pagerank", "cc"],
    "traversal": ["bfs", "sssp"],
    "mixed": ["bfs", "pagerank", "sssp", "cc"],
}


def build_dataset(tmp, scale, edge_factor, seed):
    """Build, weight and save one RMAT database; returns its prefix."""
    graph = generate_rmat(scale, edge_factor=edge_factor, seed=seed)
    graph = graph.with_random_weights(seed=seed)
    db = build_database(graph,
                        PageFormatConfig(2, 2, 1 * KB, weight_bytes=4),
                        name="rmat%d" % scale)
    prefix = os.path.join(tmp, "rmat%d" % scale)
    save_database(db, prefix)
    return prefix, {
        "scale": scale, "edge_factor": edge_factor, "seed": seed,
        "num_vertices": int(db.num_vertices),
        "num_edges": int(graph.num_edges),
        "num_pages": int(db.num_pages),
    }


def make_queries(workload, num_queries, num_vertices, seed):
    """The cell's query list: seeded starts, round-robin algorithms."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, num_vertices, size=num_queries)
    rotation = WORKLOADS[workload]
    return [
        {"algorithm": rotation[i % len(rotation)],
         "params": {"start": int(starts[i]), "iterations": 3}}
        for i in range(num_queries)
    ]


def run_cell(prefix, queries, concurrency, pool_pages, telemetry=None):
    """One matrix cell: fresh service, all queries, stats snapshot."""
    service = GraphService(max_in_flight=concurrency,
                           max_queue=len(queries),
                           telemetry=telemetry)
    service.add_database("g", prefix=prefix, pool_pages=pool_pages)
    wall_start = time.perf_counter()
    futures = [service.submit(dict(q, database="g")) for q in queries]
    results = [f.result() for f in futures]
    wall = time.perf_counter() - wall_start
    stats = service.stats()
    service.drain(wait=True)
    db = stats["databases"]["g"]
    latency = stats["latency_seconds"]
    cell = {
        "queries": len(results),
        "concurrency": concurrency,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(len(results) / wall, 2),
        "p50_seconds": round(latency["p50"], 4),
        "p95_seconds": round(latency["p95"], 4),
        "p99_seconds": round(latency["p99"], 4),
        "peak_in_flight": stats["peak_in_flight"],
        "completed": stats["completed"],
        "failed": stats["failed"],
        "plan_builds": db["plan_cache"]["builds"],
        # No cell commits, so it serves one version: 1.0 when every
        # query reads the plan the first one built.
        "plan_builds_per_version": (db["plan_cache"]["builds"]
                                    / (db["topology_version"] + 1)),
        "pool_hits": db.get("pool_hits", 0),
        "pool_misses": db.get("pool_misses", 0),
        # Simulated seconds are deterministic whatever the interleaving,
        # so their sum over a fixed query list is a regression canary.
        "simulated_total_seconds": float(
            sum(r.elapsed_seconds for r in results)),
    }
    return cell, results


def check_equivalence(serial, concurrent):
    """Every concurrent result must match its serial twin bit-for-bit."""
    problems = []
    for i, (a, b) in enumerate(zip(serial, concurrent)):
        if a.elapsed_seconds != b.elapsed_seconds:
            problems.append("query %d: elapsed %r != %r"
                            % (i, a.elapsed_seconds, b.elapsed_seconds))
        for key in a.values:
            if not np.array_equal(a.values[key], b.values[key]):
                problems.append("query %d: values[%r] differ" % (i, key))
    for problem in problems:
        print("EQUIVALENCE FAILURE: %s" % problem, file=sys.stderr)
    return not problems


def telemetry_overhead(prefix, queries, concurrency, pool_pages,
                       repeats=3):
    """Price the request telemetry: bare vs instrumented, interleaved.

    Runs the pair ``repeats`` times back to back (interleaving sheds
    slow drift — thermal, page cache — evenly across both arms) and
    compares best-of-N p95s, the stablest host-latency statistic this
    side of a dedicated runner.  The instrumented arm uses a
    production-shaped config: head-sampling every 8th request, the
    default 250 ms slow threshold, no ring directory (ring appends
    only fire on slow/error requests anyway).
    """
    from repro.obs.telemetry import TelemetryConfig
    config = {"slow_ms": 250.0, "sample_every": 8}
    off_p95s, on_p95s = [], []
    off_results = on_results = None
    for _ in range(repeats):
        cell_off, off_results = run_cell(prefix, queries, concurrency,
                                         pool_pages)
        cell_on, on_results = run_cell(
            prefix, queries, concurrency, pool_pages,
            telemetry=TelemetryConfig(**config))
        off_p95s.append(cell_off["p95_seconds"])
        on_p95s.append(cell_on["p95_seconds"])
    best_off, best_on = min(off_p95s), min(on_p95s)
    return {
        "concurrency": concurrency,
        "queries": len(queries),
        "repeats": repeats,
        "config": config,
        "off_p95_seconds": best_off,
        "on_p95_seconds": best_on,
        "overhead_p95": round(best_on / best_off, 4) if best_off > 0
        else 1.0,
        "bit_identical": check_equivalence(off_results, on_results),
    }


def saturation_probe(prefix, pool_pages):
    """Over-subscribe a tiny service; overflow must reject typed."""
    service = GraphService(max_in_flight=2, max_queue=2)
    service.add_database("g", prefix=prefix, pool_pages=pool_pages)
    submitted, rejected, futures = 16, 0, []
    for i in range(submitted):
        try:
            futures.append(service.submit({
                "database": "g", "algorithm": "bfs",
                "params": {"start": 0}}))
        except AdmissionError:
            rejected += 1
    completed = sum(1 for f in futures if f.result() is not None)
    service.drain(wait=True)
    return {"submitted": submitted, "admitted": len(futures),
            "rejected": rejected, "completed": completed}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="load matrix for the multi-tenant graph service")
    parser.add_argument("--scales", default="9,11",
                        help="comma list of RMAT scales (default 9,11); "
                             "the first is the matrix's base scale")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--concurrency", default="1,4,16,64",
                        help="comma list of in-flight widths "
                             "(default 1,4,16,64)")
    parser.add_argument("--queries", type=int, default=64,
                        help="queries per matrix cell (default 64)")
    parser.add_argument("--pool-pages", type=int, default=8,
                        help="page-pool size of the served file store")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="JSONL",
                        help="append a schema-versioned record to this "
                             "benchmark-history log (see repro.obs."
                             "history); '' disables the append")
    parser.add_argument("--telemetry-repeats", type=int, default=3,
                        help="interleaved bare/instrumented pairs for "
                             "the telemetry overhead gate (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: scale 9 only, concurrency 1,8, "
                             "12 queries per cell")
    args = parser.parse_args(argv)
    if args.quick:
        args.scales = args.scales.split(",")[0]
        args.concurrency = "1,8"
        args.queries = min(args.queries, 12)

    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    levels = [int(c) for c in args.concurrency.split(",") if c.strip()]
    base_scale, top = scales[0], max(levels)

    tmp = tempfile.mkdtemp(prefix="bench_service_")
    report = {
        "benchmark": "service_load",
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "protocol": {
            "queries_per_cell": args.queries,
            "pool_pages": args.pool_pages,
            "baseline": "one engine, one plan build per query",
        },
        "quick": args.quick,
        "datasets": {},
        "matrix": {},
        "scales": {},
    }

    try:
        prefixes = {}
        for scale in scales:
            print("building RMAT%d (edge_factor=%d, seed=%d)..."
                  % (scale, args.edge_factor, args.seed))
            prefix, info = build_dataset(tmp, scale, args.edge_factor,
                                         args.seed)
            prefixes[scale] = (prefix, info)
            report["datasets"]["rmat%d" % scale] = info

        ok = True
        base_prefix, base_info = prefixes[base_scale]

        # Workload x concurrency at the base scale.
        serial_mixed = concurrent_mixed = None
        for workload in sorted(WORKLOADS):
            queries = make_queries(workload, args.queries,
                                   base_info["num_vertices"], args.seed)
            for concurrency in levels:
                cell, results = run_cell(base_prefix, queries,
                                         concurrency, args.pool_pages)
                name = "%s.c%d" % (workload, concurrency)
                report["matrix"][name] = cell
                print("  %-16s %5.1f q/s  p95 %.3fs  plan builds/version "
                      "%.2f" % (name, cell["throughput_qps"],
                                cell["p95_seconds"],
                                cell["plan_builds_per_version"]))
                if workload == "mixed" and concurrency == min(levels):
                    serial_mixed = results
                if workload == "mixed" and concurrency == top:
                    concurrent_mixed = results

        # Scale sweep: the mixed workload at the top width.
        for scale in scales:
            prefix, info = prefixes[scale]
            queries = make_queries("mixed", args.queries,
                                   info["num_vertices"], args.seed)
            cell, _ = run_cell(prefix, queries, top, args.pool_pages)
            report["scales"]["rmat%d.c%d" % (scale, top)] = cell

        # Gate 1: concurrency must not change a single bit.
        equivalent = check_equivalence(serial_mixed, concurrent_mixed)
        report["bit_identical"] = equivalent
        ok = ok and equivalent

        # Gate 2: one plan build per cell, shared by every query.
        top_cell = report["matrix"]["mixed.c%d" % top]
        headline = top_cell["plan_builds_per_version"]
        report["headline_plan_builds_per_version"] = headline
        if top_cell["plan_builds"] != 1 or headline != 1.0:
            print("FAIL: %d plan build(s) for %d queries (%.2f per "
                  "version)" % (top_cell["plan_builds"],
                                top_cell["queries"], headline),
                  file=sys.stderr)
            ok = False

        # Gate 3: saturation rejects typed, completes what it admitted.
        probe = saturation_probe(base_prefix, args.pool_pages)
        report["saturation_probe"] = probe
        if not probe["rejected"] or (probe["completed"]
                                     != probe["admitted"]):
            print("FAIL: saturation probe %r" % probe, file=sys.stderr)
            ok = False

        # Gate 5: telemetry is pay-for-use.  Best-of-N instrumented
        # p95 within 1.05x of bare (a 2 ms absolute floor absorbs
        # clock granularity on quick-scale cells), results identical.
        tel_queries = make_queries("mixed", args.queries,
                                   base_info["num_vertices"], args.seed)
        tel = telemetry_overhead(base_prefix, tel_queries, min(top, 8),
                                 args.pool_pages,
                                 repeats=args.telemetry_repeats)
        report["telemetry"] = tel
        print("  telemetry overhead: p95 %.4fs bare -> %.4fs "
              "instrumented (%.2fx)"
              % (tel["off_p95_seconds"], tel["on_p95_seconds"],
                 tel["overhead_p95"]))
        within_budget = (
            tel["overhead_p95"] <= 1.05
            or tel["on_p95_seconds"] - tel["off_p95_seconds"] <= 0.002)
        if not within_budget:
            print("FAIL: telemetry p95 overhead %.3fx above 1.05x "
                  "budget" % tel["overhead_p95"], file=sys.stderr)
            ok = False
        if not tel["bit_identical"]:
            print("FAIL: telemetry changed query results",
                  file=sys.stderr)
            ok = False

        mixed_cells = [(c, report["matrix"]["mixed.c%d" % c])
                       for c in levels]
        report["saturation_concurrency"] = max(
            mixed_cells, key=lambda pair: pair[1]["throughput_qps"])[0]

        # Gate 4 (full runs): the acceptance floor of 64 concurrent
        # queries actually admitted together.
        if not args.quick:
            cell = report["matrix"]["mixed.c%d" % top]
            if top < 64 or cell["completed"] < 64 or cell["failed"]:
                print("FAIL: top cell did not sustain 64 concurrent "
                      "queries: %r" % cell, file=sys.stderr)
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
                meta={"quick": args.quick, "scales": args.scales,
                      "concurrency": args.concurrency,
                      "queries": args.queries, "seed": args.seed,
                      "pool_pages": args.pool_pages},
                generated=report["generated"])
            print("appended history record to %s" % args.history)
        if not ok:
            print("FAIL: service load gate", file=sys.stderr)
            return 1
        print("gate passed: one plan build, %.2f per version, "
              "saturation at c=%d"
              % (headline, report["saturation_concurrency"]))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
