"""Zero-fault overhead gate for the fault-injection hooks.

PR 4 threaded fault-injection hooks through the storage array, the
stream scheduler and the engine's round loop.  This script verifies the
hooks are pay-for-use: with **no** :class:`~repro.faults.FaultPlan`
installed the engine must run the same 10-iteration PageRank within a
small tolerance of the wall-clock baseline: the ``dormant`` figure of
the checked-in ``BENCH_faults.json``, a full run of this script on the
same host.

Two configurations are measured with one protocol (one engine per mode,
1 cold + N warm runs, best-of-warm headline):

* ``dormant`` — ``faults=None``: the hooks exist in the code but no
  injector is ever built.  **Gated**: best-of-warm must stay within
  ``--tolerance`` (default 3%) of the baseline's best.
* ``inert-plan`` — an *active* plan whose only entry is a device loss
  scheduled far beyond the end of the run: an injector is attached,
  storage reads are booked per call and every per-round loss check
  runs, but no fault ever fires.  Reported for information (this is
  the price of arming the injector, not of carrying the hooks) and
  checked for bit-identical output against ``dormant``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_fault_overhead.py --quick  # smoke

The checked-in ``BENCH_faults.json`` is the baseline: a run writes
``BENCH_faults_fresh.json`` beside it, and replaces the baseline only
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

from repro.core import GTSEngine
from repro.core.kernels.pagerank import PageRankKernel
from repro.faults import FaultPlan
from repro.format import PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import scaled_workstation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "BENCH_faults.json")
DEFAULT_OUT = os.path.join(ROOT, "BENCH_faults_fresh.json")
DEFAULT_HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")

#: Active plan that never fires: one GPU loss a simulated week away.
INERT_PLAN = FaultPlan(gpu_loss={0: 7 * 24 * 3600.0})


def summarize_samples(wall):
    """Cold/warm split plus distribution statistics over the warm
    repeats (best-of-warm stays the headline; p50/p95 expose run-to-run
    spread instead of hiding it behind the single best sample)."""
    from repro.obs.metrics import quantile

    warm = wall[1:] or wall
    ordered = sorted(warm)
    return {
        "cold_seconds": round(wall[0], 4),
        "warm_seconds": [round(w, 4) for w in wall[1:]],
        "best_seconds": round(min(warm), 4),
        "mean_seconds": round(sum(warm) / len(warm), 4),
        "p50_seconds": round(quantile(ordered, 0.50), 4),
        "p95_seconds": round(quantile(ordered, 0.95), 4),
    }


def run_mode(db, machine, iterations, repeats, faults):
    """One engine, ``1 + repeats`` runs; returns (timings, last result)."""
    engine = GTSEngine(db, machine, faults=faults)
    wall = []
    result = None
    for _ in range(1 + repeats):
        kernel = PageRankKernel(iterations=iterations)
        start = time.perf_counter()
        result = engine.run(kernel)
        wall.append(time.perf_counter() - start)
    return summarize_samples(wall), result


def load_baseline(path, mode):
    """Best-of-warm of ``mode`` in a full (not ``--quick``) report of
    this protocol, or None when unavailable."""
    try:
        with open(path) as handle:
            report = json.load(handle)
        if report["quick"]:
            return None
        return report[mode]["best_seconds"]
    except (OSError, KeyError, ValueError):
        return None


def write_report(report, out):
    """Write ``report`` to ``out``.  The default ``out`` is not the
    baseline: a run that passes within the tolerance must not become
    the next run's reference, or slow regressions ratchet through the
    gate (and a ``--quick`` smoke must not replace the full figure)."""
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print("wrote %s" % out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="zero-fault overhead gate for the injection hooks")
    parser.add_argument("--scale", type=int, default=18)
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--tolerance", type=float, default=0.03,
                        help="allowed fractional regression of the dormant "
                             "config vs the baseline (default 0.03)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="full report of this script to gate against "
                             "('' gates against this run)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="where the report goes (default: a fresh "
                             "file beside the baseline)")
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

    print("== dormant (faults=None) ==")
    dormant_times, dormant_result = run_mode(
        db, machine, args.iterations, args.repeats, None)
    print("  cold %.2fs  warm %s" % (dormant_times["cold_seconds"],
                                     dormant_times["warm_seconds"]))
    print("== inert plan (armed injector, no faults fire) ==")
    inert_times, inert_result = run_mode(
        db, machine, args.iterations, args.repeats, INERT_PLAN)
    print("  cold %.2fs  warm %s" % (inert_times["cold_seconds"],
                                     inert_times["warm_seconds"]))

    identical = (
        dormant_result.elapsed_seconds == inert_result.elapsed_seconds
        and all(np.array_equal(dormant_result.values[k],
                               inert_result.values[k])
                for k in dormant_result.values))
    assert inert_result.fault_stats is not None
    no_faults_fired = inert_result.fault_stats["faults_injected"] == 0

    # The quick smoke runs a different scale than the checked-in
    # baseline, so it can only gate against itself.
    baseline_best = (None if args.quick
                     else load_baseline(args.baseline, "dormant"))
    gated_against = ("baseline" if baseline_best is not None
                     else "self (no comparable baseline)")
    reference = (baseline_best if baseline_best is not None
                 else dormant_times["best_seconds"])
    overhead = dormant_times["best_seconds"] / reference - 1.0
    inert_overhead = (inert_times["best_seconds"]
                      / dormant_times["best_seconds"] - 1.0)
    print("dormant overhead vs %s: %+.1f%% (gate +%.0f%%); "
          "inert-plan overhead vs dormant: %+.1f%% (informational)"
          % (gated_against, overhead * 100, args.tolerance * 100,
             inert_overhead * 100))

    gate_passed = (overhead <= args.tolerance and identical
                   and no_faults_fired)
    report = {
        "benchmark": "fault_injection_zero_fault_overhead",
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
        "dormant": dormant_times,
        "inert_plan": inert_times,
        "baseline_best_seconds": baseline_best,
        "gated_against": gated_against,
        "dormant_overhead": round(overhead, 4),
        "inert_plan_overhead": round(inert_overhead, 4),
        "tolerance": args.tolerance,
        "bit_identical": bool(identical),
        "inert_plan_faults_injected":
            inert_result.fault_stats["faults_injected"],
        "gate_passed": bool(gate_passed),
    }
    write_report(report, args.out)
    if args.history:
        from repro.obs.history import append_history
        append_history(
            args.history, report["benchmark"], report,
            meta={"quick": args.quick, "scale": args.scale,
                  "edge_factor": args.edge_factor, "seed": args.seed,
                  "iterations": args.iterations,
                  "repeats": args.repeats},
            generated=report["generated"])
        print("appended history record to %s" % args.history)
    if not identical:
        print("FAIL: inert-plan run is not bit-identical to dormant",
              file=sys.stderr)
        return 1
    if not no_faults_fired:
        print("FAIL: the inert plan injected faults", file=sys.stderr)
        return 1
    if overhead > args.tolerance:
        print("FAIL: dormant hooks cost %+.1f%% (> %.0f%% gate)"
              % (overhead * 100, args.tolerance * 100), file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
