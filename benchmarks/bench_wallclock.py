"""Wall-clock benchmark gate: batched vs paged round execution.

Unlike the ``bench_fig*`` harnesses, which report *simulated* seconds,
this script measures real host wall-clock for the ``execution`` option
of :class:`repro.core.engine.GTSEngine` and fails if it does not deliver.
It is both the acceptance artifact (``BENCH_wallclock.json`` at the
repo root, produced by a full run) and a CI smoke gate (``--quick``).

Protocol
--------
The database is built once and shared.  Each execution mode gets one
engine and ``1 + repeats`` runs: the first is reported as *cold* (for
the batched path it pays the one-time :class:`PagePlan` build; for the
paged path it pays the database scatter-index cache fill), the rest as
*warm*, and the headline speedup compares best-of-warm to best-of-warm.
Cold numbers are reported separately rather than mixed in, because the
plan build amortises across every later run on the same topology.

Every pair of runs is also checked for bit-identical simulated time and
algorithm output — a speedup that changes answers is a bug, not a win.

``--quick`` caches the built database under
``benchmarks/.dataset_cache/`` (keyed by generator parameters and page
size) so repeated CI cells and local reruns skip the RMAT build.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # CI
"""

import argparse
import datetime
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core import GTSEngine
from repro.core.kernels.bfs import BFSKernel
from repro.core.kernels.pagerank import PageRankKernel
from repro.core.kernels.sssp import SSSPKernel
from repro.core.kernels.wcc import WCCKernel
from repro.format import PageFormatConfig, build_database
from repro.format.io import load_database, save_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_wallclock.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")
DATASET_CACHE = os.path.join(ROOT, "benchmarks", ".dataset_cache")
PAGE_SIZE = 2048


def make_kernel(name, iterations):
    if name == "pagerank":
        return PageRankKernel(iterations=iterations)
    if name == "bfs":
        return BFSKernel(start_vertex=0)
    if name == "sssp":
        return SSSPKernel(start_vertex=0)
    if name == "wcc":
        return WCCKernel()
    raise SystemExit("unknown kernel %r" % name)


def summarize_samples(wall):
    """Cold/warm split plus distribution statistics over the warm
    repeats (best-of-warm stays the headline; p50/p95 expose run-to-run
    spread instead of hiding it behind the single best sample)."""
    warm = wall[1:] or wall
    ordered = sorted(warm)
    from repro.obs.metrics import quantile
    return {
        "cold_seconds": round(wall[0], 4),
        "warm_seconds": [round(w, 4) for w in wall[1:]],
        "best_seconds": round(min(warm), 4),
        "mean_seconds": round(sum(warm) / len(warm), 4),
        "p50_seconds": round(quantile(ordered, 0.50), 4),
        "p95_seconds": round(quantile(ordered, 0.95), 4),
    }


def run_mode(db, machine, kernel_name, iterations, execution, repeats):
    """One engine, ``1 + repeats`` runs; returns (timings, last result)."""
    engine = GTSEngine(db, machine, execution=execution)
    wall = []
    result = None
    for _ in range(1 + repeats):
        kernel = make_kernel(kernel_name, iterations)
        start = time.perf_counter()
        result = engine.run(kernel)
        wall.append(time.perf_counter() - start)
    return summarize_samples(wall), result


def check_equivalent(kernel_name, paged, batched):
    """Both paths must agree bit-for-bit on time and answers."""
    problems = []
    if paged.elapsed_seconds != batched.elapsed_seconds:
        problems.append("elapsed_seconds %r != %r" % (
            paged.elapsed_seconds, batched.elapsed_seconds))
    for key in paged.values:
        if not np.array_equal(paged.values[key], batched.values[key]):
            problems.append("values[%r] differ" % key)
    if paged.num_rounds != batched.num_rounds:
        problems.append("num_rounds %d != %d" % (
            paged.num_rounds, batched.num_rounds))
    for problem in problems:
        print("EQUIVALENCE FAILURE (%s): %s" % (kernel_name, problem),
              file=sys.stderr)
    return not problems


def cached_dataset_prefix(args):
    """A saved ``<prefix>.meta.json``/``.pages`` pair for the requested
    RMAT dataset under ``benchmarks/.dataset_cache/``, built on demand
    and keyed by every parameter that shapes the bytes, so repeated
    quick runs skip both the generator and the page build."""
    directory = os.path.join(
        DATASET_CACHE, "rmat_s%d_f%d_seed%d_ps%d" % (
            args.scale, args.edge_factor, args.seed, PAGE_SIZE))
    prefix = os.path.join(directory, "db")
    if (os.path.exists(prefix + ".meta.json")
            and os.path.exists(prefix + ".pages")):
        print("  dataset cache hit: %s" % prefix)
        return prefix
    os.makedirs(directory, exist_ok=True)
    graph = generate_rmat(args.scale, edge_factor=args.edge_factor,
                          seed=args.seed)
    config = PageFormatConfig(page_id_bytes=4, slot_bytes=2,
                              page_size=PAGE_SIZE)
    save_database(build_database(graph, config), prefix)
    return prefix


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="wall-clock gate for batched vs paged execution")
    parser.add_argument("--scale", type=int, default=18,
                        help="RMAT scale (default 18)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--iterations", type=int, default=10,
                        help="PageRank iterations (default 10)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="warm runs per mode (default 3)")
    parser.add_argument("--kernels", default="pagerank",
                        help="comma list: pagerank,bfs,sssp,wcc")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail if the headline kernel's best-of-warm "
                             "speedup is below this (default 1.0: batched "
                             "must not be slower)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="JSONL",
                        help="append a schema-versioned record to this "
                             "benchmark-history log (see repro.obs."
                             "history); '' disables the append")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: scale 13, 2 repeats, 5 iterations")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 13)
        args.repeats = min(args.repeats, 2)
        args.iterations = min(args.iterations, 5)

    print("building RMAT%d (edge_factor=%d, seed=%d)..."
          % (args.scale, args.edge_factor, args.seed))
    # --quick routes through the on-disk dataset cache so reruns skip
    # the generator.
    if args.quick:
        db = load_database(cached_dataset_prefix(args))
    else:
        graph = generate_rmat(args.scale, edge_factor=args.edge_factor,
                              seed=args.seed)
        db = build_database(graph, PageFormatConfig(
            page_id_bytes=4, slot_bytes=2, page_size=PAGE_SIZE))
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    print("  %d vertices, %d edges, %d pages"
          % (db.num_vertices, db.num_edges, db.num_pages))

    kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    report = {
        "benchmark": "wallclock_batched_vs_paged",
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "dataset": {
            "generator": "rmat", "scale": args.scale,
            "edge_factor": args.edge_factor, "seed": args.seed,
            "num_vertices": int(db.num_vertices),
            "num_edges": int(db.num_edges),
            "num_pages": int(db.num_pages),
        },
        "machine": "scaled_workstation(num_gpus=2, num_ssds=2)",
        "protocol": {
            "repeats": args.repeats,
            "timing": "1 cold + N warm runs per mode on one engine; "
                      "headline speedup is best-of-warm / best-of-warm",
        },
        "quick": args.quick,
        "kernels": {},
    }

    ok = True
    headline_speedup = None
    for kernel_name in kernels:
        print("== %s ==" % kernel_name)
        paged_times, paged_result = run_mode(
            db, machine, kernel_name, args.iterations, "paged", args.repeats)
        print("  paged   cold %.2fs  warm %s" % (
            paged_times["cold_seconds"], paged_times["warm_seconds"]))
        batched_times, batched_result = run_mode(
            db, machine, kernel_name, args.iterations, "batched",
            args.repeats)
        print("  batched cold %.2fs  warm %s" % (
            batched_times["cold_seconds"], batched_times["warm_seconds"]))
        equivalent = check_equivalent(
            kernel_name, paged_result, batched_result)
        ok = ok and equivalent
        speedup = round(
            paged_times["best_seconds"] / batched_times["best_seconds"], 2)
        cold_speedup = round(
            paged_times["cold_seconds"] / batched_times["cold_seconds"], 2)
        if headline_speedup is None:
            headline_speedup = speedup
        print("  speedup %.2fx warm best-of-%d (%.2fx cold)"
              % (speedup, args.repeats, cold_speedup))
        report["kernels"][kernel_name] = {
            "iterations": (args.iterations
                           if kernel_name == "pagerank" else None),
            "paged": paged_times,
            "batched": batched_times,
            "speedup_best": speedup,
            "speedup_cold": cold_speedup,
            "simulated_elapsed_seconds": paged_result.elapsed_seconds,
            "bit_identical": equivalent,
        }

    report["headline_speedup"] = headline_speedup
    report["min_speedup_gate"] = args.min_speedup
    gate_ok = headline_speedup is not None and (
        headline_speedup >= args.min_speedup)

    report["gate_passed"] = bool(ok and gate_ok)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print("wrote %s" % args.out)
    if args.history:
        from repro.obs.history import append_history
        append_history(
            args.history, report["benchmark"], report,
            meta={"quick": args.quick, "scale": args.scale,
                  "edge_factor": args.edge_factor, "seed": args.seed,
                  "iterations": args.iterations,
                  "repeats": args.repeats, "kernels": args.kernels},
            generated=report["generated"])
        print("appended history record to %s" % args.history)
    if not ok:
        print("FAIL: the execution path changed results", file=sys.stderr)
        return 1
    if not gate_ok:
        print("FAIL: headline speedup %sx below gate %.2fx"
              % (headline_speedup, args.min_speedup), file=sys.stderr)
        return 1
    print("gate passed: %.2fx >= %.2fx"
          % (headline_speedup, args.min_speedup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
