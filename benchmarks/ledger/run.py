"""The repo's one benchmark: four workloads, end to end and layer by layer.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/ledger/run.py --workload scan --seed 7 \\
        --seconds 20 --trace 0

sets the dataset up (generate + build + save, several times, timed),
then measures in a **fresh child process** -- cold samples, warm passes,
output checks -- and prints every metric by name with its unit; the last
line of stdout is the result as one JSON object.  ``--trace 1`` repeats
the run with spans recorded around the program's layer boundaries (see
``trace.py``) and prints the per-layer metrics instead.

Around that unit: ``--all`` runs the four workloads one after the other
(``--traced`` adds a traced run of each and the tracing overhead),
``--repeat N`` runs N sets and prints each end-to-end metric's spread
against its bound, ``--selfcheck`` runs everything at rmat10 in under
30 s and checks the emitted names against ``BENCHMARK.json``.

See README.md beside this file for the metrics, the workloads and why.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: One run must end within the driver's 180 s; leave room to report.
RUN_DEADLINE_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans here")
    parser.add_argument("--json-out", help="write the full report here")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--traced", action="store_true",
                        help="with --all/--repeat: add a traced run")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --repeat: reuse one seed and require "
                             "exact layer counts to repeat")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-expected", action="store_true",
                        help="record this NumPy's golden fingerprints")
    # Internal: the measuring child of one run.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dataset", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


# ----------------------------------------------------------------------
# One run: set-up here, measurement in a fresh child
# ----------------------------------------------------------------------
def run_one(args):
    """Set the dataset up, then measure it in a fresh process whose
    stdout (the report and the final JSON line) is passed through."""
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write("unknown workload %r (have: %s)\n" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    if workload.client_threads > os.cpu_count():
        sys.stderr.write(
            "refusing %s: %d client threads on a %d-CPU host\n" % (
                workload.name, workload.client_threads, os.cpu_count()))
        return 2
    if args.tiny:
        workload = workload.tiny()
    began = time.monotonic()
    work = os.path.join(ROOT, ".ledger_work",
                        "%s-%d" % (workload.name, os.getpid()))
    os.makedirs(work)
    try:
        host = workloads.host_facts()
        prefix = os.path.join(work, "graph")
        setup = []
        for _ in range(workload.setup_samples):
            seconds, graph, db = workloads.build_dataset(
                workload, args.seed, prefix)
            setup.append(seconds)
        dataset = {
            "prefix": prefix, "scale": workload.scale,
            "num_vertices": db.num_vertices, "num_edges": db.num_edges,
            "num_pages": db.num_pages,
            "pool_pages": max(1, db.num_pages // workload.pool_divisor),
            "starts": workloads.pick_starts(graph, args.seed),
            "setup_samples": setup, "host": host,
        }
        del graph, db
        dataset_path = os.path.join(work, "dataset.json")
        with open(dataset_path, "w") as handle:
            json.dump(dataset, handle)
        command = [sys.executable, os.path.abspath(__file__), "--child",
                   "--workload", workload.name, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", str(args.trace), "--dataset", dataset_path]
        for flag, value in (("--trace-out", args.trace_out),
                            ("--json-out", args.json_out)):
            if value:
                command += [flag, os.path.abspath(value)]
        if args.tiny:
            command.append("--tiny")
        if args.write_expected:
            command.append("--write-expected")
        child = subprocess.Popen(command, cwd=ROOT)
        try:
            return child.wait(
                timeout=RUN_DEADLINE_S - (time.monotonic() - began))
        except subprocess.TimeoutExpired:
            sys.stderr.write("%s: measurement overran; killed\n"
                             % workload.name)
            return 3
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def measure_child(args):
    """The fresh process: measure, check, print, exit non-zero on any
    failed or wrong operation."""
    from trace import Tracer

    import metrics
    import workloads

    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    with open(args.dataset) as handle:
        dataset = json.load(handle)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    measure = (workloads.measure_service if workload.live
               else workloads.measure_engine)
    try:
        measured = measure(workload, dataset, args.seed, args.seconds,
                           tracer)
    finally:
        tracer.uninstall()
    tally = measured["tally"]
    report = {
        "workload": workload.name, "why": workload.why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": dataset.pop("host"), "dataset": dataset,
        "queries": workload.queries(dataset["starts"]),
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "golden_compared": measured["golden_compared"],
        "fingerprints": measured["fingerprints"],
        "end_to_end": metrics.end_to_end(measured,
                                         dataset["setup_samples"]),
    }
    if args.trace:
        report["per_layer"] = metrics.per_layer(measured, tracer)
        report["trace_missing"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out)
    if args.write_expected:
        write_expected(workload.name, measured["fingerprints"])
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    print_report(report, spec)
    print(json.dumps(driver_line(report, spec)))
    return 0 if tally.failed == 0 else 1


def write_expected(name, fingerprints):
    import workloads
    with open(workloads.EXPECTED_PATH) as handle:
        expected = json.load(handle)
    numpy_version = workloads.host_facts()["numpy"]
    expected.setdefault(numpy_version, {})[name] = fingerprints
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def driver_line(report, spec):
    """The result object the driver reads: exactly the metrics
    ``BENCHMARK.json`` lists for this kind of run."""
    if report["trace"]:
        values = report["per_layer"]
        listed = spec["per_layer"]
    else:
        values = {name: entry["value"]
                  for name, entry in report["end_to_end"].items()}
        listed = spec["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }


#: Units of the end-to-end metrics the report prints beyond the four
#: BENCHMARK.json bounds (which every workload has): the service-only
#: latencies, throughput (1 / warm_pass_s with one reader, so bounding
#: it would bound the same thing twice) and the failed share (0 when
#: correct; the result line carries it as ``failed`` / ``attempted``).
REPORT_ONLY_UNITS = {"query_p50_s": "s", "post_commit_query_p50_s": "s",
                     "update_p50_s": "s", "ops_per_s": "1/s",
                     "failed_share": "ratio"}


def print_report(report, spec):
    dataset, host = report["dataset"], report["host"]
    print("== %s  seed %d  trace %d ==" % (
        report["workload"], report["seed"], report["trace"]))
    print("   why: %s" % report["why"])
    print("   host: nproc %d, python %s, numpy %s, load(1m) %.2f" % (
        host["nproc"], host["python"], host["numpy"], host["load_1min"]))
    print("   dataset: rmat%d, %d vertices, %d edges, %d pages, pool %d "
          "pages, starts %s" % (
              dataset["scale"], dataset["num_vertices"],
              dataset["num_edges"], dataset["num_pages"],
              dataset["pool_pages"], dataset["starts"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(REPORT_ONLY_UNITS)
    label = ("end to end (traced; not for comparison)" if report["trace"]
             else "end to end")
    print("   %s:" % label)
    for name, entry in report["end_to_end"].items():
        spread = ""
        if "q1" in entry:
            spread = "  [q1 %.4g, q3 %.4g]" % (entry["q1"], entry["q3"])
        print("     %-26s %12.6g %-6s n=%d%s" % (
            name, entry["value"], units[name], entry["n"], spread))
    if report["trace"]:
        print("   per layer (times are self seconds per warm pass):")
        for metric in spec["per_layer"]:
            name = metric["name"]
            print("     %-36s %14.6g %s" % (
                name, report["per_layer"][name], metric["unit"]))
        print("   trace_missing: %s"
              % (", ".join(report["trace_missing"]) or "none"))
    print("   checks: %d attempted, %d failed%s" % (
        report["attempted"], report["failed"],
        "" if report["golden_compared"] else
        " (golden compare skipped: not the default seed, size or NumPy)"))
    for problem in report["problems"]:
        print("   PROBLEM: %s" % problem)


# ----------------------------------------------------------------------
# Sets of runs
# ----------------------------------------------------------------------
def run_fresh(name, seed, seconds, trace, tiny=False, trace_out=None):
    """One run as its own process; returns (exit code, full report)."""
    out = os.path.join(ROOT, ".ledger_work",
                       "report-%s-%d-%d.json" % (name, os.getpid(), trace))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--json-out", out]
    if tiny:
        command.append("--tiny")
    if trace_out:
        command += ["--trace-out",
                    "%s.%s.json" % (os.path.abspath(trace_out), name)]
    try:
        code = subprocess.run(command, cwd=ROOT).returncode
        report = None
        if os.path.exists(out):
            with open(out) as handle:
                report = json.load(handle)
        return code, report
    finally:
        with contextlib.suppress(OSError):
            os.remove(out)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(out))


def run_set(names, seed, seconds, traced, tiny=False, trace_out=None):
    """Every named workload once (plus a traced run when asked);
    returns ``(worst exit code, {workload: {"untraced", "traced"}})``."""
    worst, reports = 0, {}
    for name in names:
        code, untraced = run_fresh(name, seed, seconds, 0, tiny)
        worst = max(worst, code)
        reports[name] = {"untraced": untraced}
        if traced:
            code, report = run_fresh(name, seed, seconds, 1, tiny,
                                     trace_out)
            worst = max(worst, code)
            reports[name]["traced"] = report
            if report and untraced:
                overhead = (report["end_to_end"]["warm_pass_s"]["value"]
                            / untraced["end_to_end"]["warm_pass_s"]["value"])
                report["trace_overhead"] = overhead
                print("   %s: trace_overhead %.3f (traced / untraced "
                      "warm_pass_s), trace_coverage %.3f" % (
                          name, overhead,
                          report["per_layer"]["trace.coverage"]))
                if report["per_layer"]["trace.coverage"] < 0.90 \
                        and not tiny:
                    print("   PROBLEM: %s trace_coverage below 0.90"
                          % name)
                    worst = max(worst, 1)
    return worst, reports


#: Layer counts that must repeat exactly between runs of one commit on
#: one seed (engine workloads; serve_live's commits race its queries).
EXACT = ("core.plan.builds", "core.kernels.edges",
         "core.streams.pages_booked", "core.cache.gpu_hit_rate",
         "core.engine.rounds", "hardware.sim_elapsed_s",
         "hardware.storage_bytes_read")


def run_repeat(args, names, spec):
    """N sets; per workload and end-to-end metric the median, quartiles
    and relative spread, against the bound in BENCHMARK.json."""
    worst, sets = 0, []
    for i in range(args.repeat):
        seed = args.seed if args.same_seed else args.seed + i
        code, reports = run_set(names, seed, args.seconds, args.traced)
        worst = max(worst, code)
        sets.append(reports)
    print("\n== spread over %d sets (%s) ==" % (
        args.repeat, "one seed" if args.same_seed else "a seed each"))
    print("%-11s %-22s %10s %10s %10s %8s %6s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for name in names:
        for metric in spec["end_to_end"]:
            values = [s[name]["untraced"]["end_to_end"][metric["name"]]
                      ["value"] for s in sets if s[name]["untraced"]]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = ""
            if metric["name"] != "setup_s" and spread > metric["bound"]:
                verdict = "  OVER BOUND: lengthen the run"
                worst = max(worst, 1)
            elif spread > metric["bound"] / 3:
                verdict = "  above bound/3"
            print("%-11s %-22s %10.5g %10.5g %10.5g %7.1f%% %5.0f%%%s" % (
                name, metric["name"], q1, median, q3, 100 * spread,
                100 * metric["bound"], verdict))
        if args.same_seed and args.traced and name != "serve_live":
            for exact in EXACT:
                seen = {s[name]["traced"]["per_layer"][exact]
                        for s in sets if s[name].get("traced")}
                if len(seen) > 1:
                    print("PROBLEM: %s %s moved between runs: %s" % (
                        name, exact, sorted(seen)))
                    worst = max(worst, 1)
    return worst


def selfcheck(spec):
    """Everything at rmat10: every metric and workload BENCHMARK.json
    names is emitted with its unit, and nothing unnamed is."""
    import workloads
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if names != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" % (
            names, list(workloads.WORKLOADS)))
    worst, reports = run_set(list(workloads.WORKLOADS), 7, 0.0, True,
                             tiny=True)
    for name, pair in reports.items():
        for kind, listed in (("untraced", spec["end_to_end"]),
                             ("traced", spec["per_layer"])):
            report = pair.get(kind)
            if report is None:
                problems.append("%s %s: no report" % (name, kind))
                continue
            line = driver_line(report, spec)
            if set(line["metrics"]) != {m["name"] for m in listed}:
                problems.append("%s %s: metric names differ"
                                % (name, kind))
            for metric, entry in line["metrics"].items():
                if not isinstance(entry["value"], (int, float)):
                    problems.append("%s %s: %s is not a number"
                                    % (name, kind, metric))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    print("selfcheck: %s" % ("FAILED" if problems or worst else "ok"))
    return 1 if problems else worst


def main(argv=None):
    args = parse_args(argv)
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as error:
        sys.stderr.write("cannot import the program from %s: %s\n" % (
            os.path.join(ROOT, "src"), error))
        return 2
    if args.child:
        return measure_child(args)
    spec = load_spec()
    if args.selfcheck:
        return selfcheck(spec)
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    if args.repeat:
        return run_repeat(args, names, spec)
    if args.all or args.traced:
        code, reports = run_set(names, args.seed, args.seconds,
                                args.traced, trace_out=args.trace_out)
        if args.json_out:
            with open(args.json_out, "w") as handle:
                json.dump(reports, handle, indent=1, sort_keys=True)
        return code
    if not args.workload:
        sys.stderr.write("name a --workload, or --all / --repeat N / "
                         "--selfcheck\n")
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
