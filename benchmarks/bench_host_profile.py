"""Host-profiling overhead and coverage gate.

PR 6 threaded :class:`repro.obs.host.HostProfiler` hooks through the
engine's setup/round loop, the plan builder, the stream scheduler and
the page stores.  This script verifies two properties:

* **Disabled is free.**  With ``host_profile=False`` (the default) the
  engine must run the same 10-iteration PageRank within a small
  tolerance of the wall-clock baseline (the ``disabled`` figure of the
  checked-in ``BENCH_host_profile.json``, a full run of this script on
  the same host) — the profiling hooks are ``is not None`` checks and
  nothing else.
* **Enabled is honest.**  A profiled run must (a) leave the simulated
  results bit-identical, and (b) produce a :class:`HostProfile` whose
  top-level phases cover at least ``--min-coverage`` (default 95%) of
  the measured wall-clock — otherwise the timers are missing a hot
  path and the profile lies by omission.

Both configurations use ``bench_fault_overhead``'s protocol (one engine
per mode, 1 cold + N warm runs, best-of-warm headline, p50/p95 over the
warm repeats).  The profiled mode's overhead over the disabled mode is
reported for information — that is the price of *asking* for a profile,
not of carrying the hooks.

Artifacts: the JSON report (``BENCH_host_profile.json``, whose flat
``metrics`` map feeds ``repro obs compare`` directly), a collapsed-stack
flamegraph of the last profiled run, the host-profile JSON itself, and
one record appended to ``BENCH_history.jsonl``.

Usage::

    PYTHONPATH=src python benchmarks/bench_host_profile.py          # full
    PYTHONPATH=src python benchmarks/bench_host_profile.py --quick  # smoke

The checked-in ``BENCH_host_profile.json`` is the baseline: a run writes
``BENCH_host_profile_fresh.json`` beside it, and replaces the baseline only
when ``--out`` names it.
"""

import argparse
import datetime
import json
import os
import platform
import sys
import time

import numpy as np

from bench_fault_overhead import (
    load_baseline, summarize_samples, write_report)
from repro.core import GTSEngine
from repro.core.kernels.pagerank import PageRankKernel
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "BENCH_host_profile.json")
DEFAULT_OUT = os.path.join(ROOT, "BENCH_host_profile_fresh.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")


def run_mode(db, machine, iterations, repeats, host_profile):
    """One engine, ``1 + repeats`` runs; returns (timings, last result)."""
    engine = GTSEngine(db, machine, host_profile=host_profile)
    wall = []
    result = None
    for _ in range(1 + repeats):
        kernel = PageRankKernel(iterations=iterations)
        start = time.perf_counter()
        result = engine.run(kernel)
        wall.append(time.perf_counter() - start)
    return summarize_samples(wall), result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="overhead + coverage gate for the host profiler")
    parser.add_argument("--scale", type=int, default=18)
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--tolerance", type=float, default=0.01,
                        help="allowed fractional regression of the "
                             "disabled config vs the baseline "
                             "(default 0.01 — the hooks must be free)")
    parser.add_argument("--min-coverage", type=float, default=0.95,
                        help="profiled runs: minimum fraction of wall-"
                             "clock inside top-level phases")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="full report of this script to gate against "
                             "('' gates against this run)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where the report goes (default: a fresh "
                             "file beside the baseline)")
    parser.add_argument("--flamegraph", default=None, metavar="PATH",
                        help="write the last profiled run's collapsed-"
                             "stack flamegraph here")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        help="write the last profiled run's host-profile "
                             "JSON here")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        metavar="JSONL",
                        help="append a schema-versioned record to this "
                             "benchmark-history log (see repro.obs."
                             "history); '' disables the append")
    parser.add_argument("--quick", action="store_true",
                        help="smoke: scale 13, 2 repeats, 5 iterations, "
                             "self-measured baseline only")
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 13)
        args.repeats = min(args.repeats, 2)
        args.iterations = min(args.iterations, 5)

    config = PageFormatConfig(page_id_bytes=4, slot_bytes=2, page_size=2048)
    print("building RMAT%d (edge_factor=%d, seed=%d)..."
          % (args.scale, args.edge_factor, args.seed))
    graph = generate_rmat(args.scale, edge_factor=args.edge_factor,
                          seed=args.seed)
    db = build_database(graph, config)
    machine = scaled_workstation(num_gpus=2, num_ssds=2)
    print("  %d vertices, %d edges, %d pages"
          % (db.num_vertices, graph.num_edges, db.num_pages))

    print("== disabled (host_profile=False) ==")
    disabled_times, disabled_result = run_mode(
        db, machine, args.iterations, args.repeats, False)
    print("  cold %.2fs  warm %s" % (disabled_times["cold_seconds"],
                                     disabled_times["warm_seconds"]))
    print("== profiled (host_profile=True) ==")
    profiled_times, profiled_result = run_mode(
        db, machine, args.iterations, args.repeats, True)
    print("  cold %.2fs  warm %s" % (profiled_times["cold_seconds"],
                                     profiled_times["warm_seconds"]))

    identical = (
        disabled_result.elapsed_seconds == profiled_result.elapsed_seconds
        and all(np.array_equal(disabled_result.values[k],
                               profiled_result.values[k])
                for k in disabled_result.values))
    profile = profiled_result.host_profile
    assert profile is not None
    coverage = profile.coverage()
    print(profile.summary())

    # The quick smoke runs a different scale than the checked-in
    # baseline, so it can only gate against itself.
    baseline_best = (None if args.quick
                     else load_baseline(args.baseline, "disabled"))
    gated_against = ("baseline" if baseline_best is not None
                     else "self (no comparable baseline)")
    reference = (baseline_best if baseline_best is not None
                 else disabled_times["best_seconds"])
    overhead = disabled_times["best_seconds"] / reference - 1.0
    profiled_overhead = (profiled_times["best_seconds"]
                         / disabled_times["best_seconds"] - 1.0)
    print("disabled overhead vs %s: %+.1f%% (gate +%.0f%%); "
          "profiled overhead vs disabled: %+.1f%% (informational); "
          "coverage %.1f%% (gate >= %.0f%%)"
          % (gated_against, overhead * 100, args.tolerance * 100,
             profiled_overhead * 100, coverage * 100,
             args.min_coverage * 100))

    gate_passed = (overhead <= args.tolerance and identical
                   and coverage >= args.min_coverage)
    metrics = {
        "disabled_best_seconds": disabled_times["best_seconds"],
        "disabled_p95_seconds": disabled_times["p95_seconds"],
        "profiled_best_seconds": profiled_times["best_seconds"],
        "profiled_p95_seconds": profiled_times["p95_seconds"],
        "disabled_overhead": round(overhead, 4),
        "profiled_overhead": round(profiled_overhead, 4),
    }
    metrics.update(profile.to_metrics())
    report = {
        "benchmark": "host_profile",
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
            "num_pages": int(db.num_pages),
        },
        "machine": "scaled_workstation(num_gpus=2, num_ssds=2)",
        "protocol": {
            "kernel": "pagerank", "iterations": args.iterations,
            "repeats": args.repeats,
            "timing": "1 cold + N warm runs per mode on one engine; "
                      "overhead compares best-of-warm",
        },
        "quick": args.quick,
        "disabled": disabled_times,
        "profiled": profiled_times,
        "baseline_best_seconds": baseline_best,
        "gated_against": gated_against,
        "tolerance": args.tolerance,
        "min_coverage": args.min_coverage,
        "bit_identical": bool(identical),
        "metrics": metrics,
        "profile": profile.to_dict(),
        "gate_passed": bool(gate_passed),
    }
    write_report(report, args.out)
    if args.flamegraph:
        from repro.obs.host import write_flamegraph
        write_flamegraph(profile, args.flamegraph)
        print("wrote %s" % args.flamegraph)
    if args.profile_out:
        from repro.obs.host import write_host_profile
        write_host_profile(profile, args.profile_out)
        print("wrote %s" % args.profile_out)
    if args.history:
        from repro.obs.history import append_history
        append_history(
            args.history, report["benchmark"], {"metrics": metrics},
            meta={"quick": args.quick, "scale": args.scale,
                  "edge_factor": args.edge_factor, "seed": args.seed,
                  "iterations": args.iterations,
                  "repeats": args.repeats},
            generated=report["generated"])
        print("appended history record to %s" % args.history)
    if not identical:
        print("FAIL: profiled run is not bit-identical to disabled",
              file=sys.stderr)
        return 1
    if coverage < args.min_coverage:
        print("FAIL: phase coverage %.1f%% below %.0f%% — the timers "
              "are missing a hot path"
              % (coverage * 100, args.min_coverage * 100),
              file=sys.stderr)
        return 1
    if overhead > args.tolerance:
        print("FAIL: disabled hooks cost %+.1f%% (> %.0f%% gate)"
              % (overhead * 100, args.tolerance * 100), file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
