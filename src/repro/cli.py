"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

* ``run`` — run one algorithm on a registry dataset (or an edge-list
  file) through the GTS engine and print the result summary.
* ``profile`` — a traced run: ASCII timeline, cost-model drift, and
  optional Perfetto trace / metrics artifacts.
* ``datasets`` — list the scaled experiment datasets (Table 3 view).
* ``recommend`` — cost-based configuration advice (Section 5).
* ``bench`` — regenerate one paper table/figure by ID.
* ``update`` — apply a mutation batch to a saved database through the
  WAL-backed dynamic layer (:mod:`repro.dynamic`).
* ``compact`` — fold accumulated deltas + WAL back into a clean base.
* ``obs`` — trace analytics and regression tooling:
  ``obs analyze`` reports occupancy / overlap-hiding / round
  attribution for a written trace, ``obs compare`` diffs two metrics
  artifacts (or a fresh run against its ``BENCH_history.jsonl``
  baseline) under tolerance rules and exits non-zero on regression,
  and ``obs history`` lists the benchmark trajectory.
* ``serve`` — run the multi-tenant query service
  (:mod:`repro.service`): open databases stay resident, queries run
  concurrently over an HTTP/JSON API with shared caches and admission
  control.  SIGINT/SIGTERM drain in-flight queries and exit cleanly.
* ``query`` — send one query to a running ``serve`` instance.  Exit
  codes: 0 on success, 2 when the service is at capacity (HTTP 429),
  3 while it is draining (HTTP 503), 1 for every other error.

Examples::

    python -m repro datasets
    python -m repro run --dataset rmat27 --algorithm pagerank --iterations 10
    python -m repro run --dataset rmat26 --algorithm bfs --json
    python -m repro run --dataset rmat26 --algorithm pagerank \\
        --trace-out trace.json --metrics-out metrics.json
    python -m repro run --dataset rmat26 --algorithm pagerank \\
        --faults chaos.json --fault-seed 1
    python -m repro profile --dataset rmat26 --algorithm pagerank
    python -m repro run --dataset rmat26 --algorithm pagerank \\
        --host-profile --flamegraph flame.txt --host-profile-out host.json
    python -m repro recommend --dataset rmat32 --algorithm pagerank
    python -m repro bench --experiment fig9 --algorithm BFS
    python -m repro update --db mygraph --batch updates.txt
    python -m repro run --db mygraph --algorithm bfs
    python -m repro compact --db mygraph
    python -m repro report
    python -m repro obs analyze trace.json
    python -m repro obs compare before.json after.json
    python -m repro obs compare --history BENCH_history.jsonl \\
        --benchmark fault_injection_zero_fault_overhead \\
        --match quick=true BENCH_faults.json
    python -m repro obs history --path BENCH_history.jsonl
    python -m repro serve --dataset rmat24 --port 8030
    python -m repro serve --db social=/data/social --port 8030
    python -m repro query --url http://127.0.0.1:8030 \\
        --database rmat24 --algorithm pagerank --iterations 10 --json
"""

import argparse
import json
import sys

import numpy as np

from repro.bench import experiments
from repro.bench.datasets import (
    DATASETS,
    dataset_database,
    dataset_graph,
    default_start_vertex,
)
from repro.core import (
    BCKernel,
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    RWRKernel,
    SSSPKernel,
    WCCKernel,
)
from repro.core.optimizer import recommend_configuration
from repro.errors import ConfigurationError, GTSError
from repro.format import PageFormatConfig, build_database
from repro.graphgen.io import read_edge_list
from repro.hardware.specs import scaled_workstation
from repro.spans import activate, span
from repro.units import KB

#: CLI algorithm name -> (kernel factory, needs weighted db, needs
#: symmetrised db).  Factories take (args, start_vertex).
ALGORITHMS = {
    "bfs": (lambda args, start: BFSKernel(start), False, False),
    "pagerank": (lambda args, start: PageRankKernel(
        iterations=args.iterations), False, False),
    "sssp": (lambda args, start: SSSPKernel(start), True, False),
    "cc": (lambda args, start: WCCKernel(), False, True),
    "bc": (lambda args, start: BCKernel(sources=(start,)), False, False),
    "rwr": (lambda args, start: RWRKernel(
        query_vertex=start, iterations=args.iterations), False, False),
    "degree": (lambda args, start: DegreeKernel(), False, False),
    "kcore": (lambda args, start: KCoreKernel(k=args.k), False, True),
}

#: Experiment IDs for the ``bench`` subcommand.
EXPERIMENTS = {
    "table1": lambda args: experiments.table1_transfer_kernel_ratios(),
    "table2": lambda args: experiments.table2_id_configurations(),
    "table3": lambda args: experiments.table3_dataset_statistics(),
    "table4": lambda args: experiments.table4_wa_sizes(),
    "table5": lambda args: experiments.table5_totem_partitions(),
    "fig6": lambda args: experiments.figure6_distributed(args.algorithm),
    "fig7": lambda args: experiments.figure7_cpu(args.algorithm),
    "fig8": lambda args: experiments.figure8_gpu(args.algorithm),
    "fig9": lambda args: experiments.figure9_strategies(args.algorithm),
    "fig10": lambda args: experiments.figure10_streams(args.algorithm),
    "fig11": lambda args: experiments.figure11_cache(),
    "fig13": lambda args: experiments.figure13_algorithms(
        args.algorithm if args.algorithm in ("SSSP", "CC", "BC")
        else "SSSP"),
    "fig14": lambda args: experiments.figure14_micro(args.algorithm),
    "drift": lambda args: experiments.cost_model_drift_report(),
}


def build_parser():
    """Construct the argparse command tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GTS (SIGMOD 2016) reproduction command line")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_arguments(sub):
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--dataset", choices=sorted(DATASETS),
                            help="registry dataset name")
        source.add_argument("--edges", help="edge-list text file to load")
        source.add_argument("--db", metavar="PREFIX",
                            help="saved database prefix (loads "
                                 "<PREFIX>.meta.json/.pages and replays "
                                 "<PREFIX>.wal if present; the topology "
                                 "is used as-is, so it must already be "
                                 "weighted/symmetrised if the algorithm "
                                 "needs that)")
        sub.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                         default="bfs")
        sub.add_argument("--start", type=int, default=None,
                         help="start/query vertex (default: busiest "
                              "vertex)")
        sub.add_argument("--iterations", type=int, default=10)
        sub.add_argument("--k", type=int, default=2, help="k for k-core")
        sub.add_argument("--strategy",
                         choices=("performance", "scalability"),
                         default="performance")
        sub.add_argument("--streams", type=int, default=16)
        sub.add_argument("--gpus", type=int, default=2)
        sub.add_argument("--ssds", type=int, default=2)
        sub.add_argument("--micro", choices=("edge", "vertex", "hybrid"),
                         default="edge")
        sub.add_argument("--no-cache", action="store_true")
        sub.add_argument("--page-size", type=int, default=2 * KB)
        sub.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="inject faults from a JSON FaultPlan "
                              "(transient SSD errors, corrupt pages, "
                              "copy errors, stream stalls, device "
                              "loss); recoverable faults slow the "
                              "simulated run but leave results "
                              "bit-identical")
        sub.add_argument("--fault-seed", type=int, default=None,
                         metavar="N",
                         help="override the fault plan's seed (one "
                              "plan file, many chaos runs)")
        sub.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON file "
                              "(open in Perfetto / chrome://tracing)")
        sub.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write run metrics (counters, gauges, "
                              "histograms, cost-model drift) as JSON")
        sub.add_argument("--host-profile", action="store_true",
                         help="profile the *host* runtime (not the "
                              "simulation): nested wall-clock spans "
                              "and real I/O counters; "
                              "prints a phase table after the summary")
        sub.add_argument("--flamegraph", default=None, metavar="PATH",
                         help="write host phases as collapsed-stack "
                              "flamegraph text (implies --host-profile; "
                              "feed to flamegraph.pl or speedscope)")
        sub.add_argument("--host-profile-out", default=None,
                         metavar="PATH",
                         help="write the host profile as JSON (implies "
                              "--host-profile); the artifact is "
                              "'repro obs compare' compatible")

    run = commands.add_parser("run", help="run an algorithm through GTS")
    add_run_arguments(run)
    run.add_argument("--json", action="store_true",
                     help="print the full RunResult as JSON instead of "
                          "the one-line summary")

    profile = commands.add_parser(
        "profile",
        help="traced run: ASCII timeline + cost-model drift report")
    add_run_arguments(profile)
    profile.add_argument("--width", type=int, default=72,
                         help="ASCII timeline width in cells")

    commands.add_parser("datasets", help="list experiment datasets")

    recommend = commands.add_parser(
        "recommend", help="cost-based configuration advice")
    recommend.add_argument("--dataset", choices=sorted(DATASETS),
                           required=True)
    recommend.add_argument("--algorithm",
                           choices=("bfs", "pagerank", "sssp", "cc"),
                           default="pagerank")
    recommend.add_argument("--iterations", type=int, default=10)
    recommend.add_argument("--gpus", type=int, default=2)

    bench = commands.add_parser("bench",
                                help="regenerate a paper table/figure")
    bench.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                       required=True)
    bench.add_argument("--algorithm", default="BFS",
                       help="BFS / PageRank (SSSP / CC / BC for fig13)")

    update = commands.add_parser(
        "update",
        help="apply a mutation batch to a saved database (WAL-logged) "
             "or to a running serve instance (--service)")
    update.add_argument("--db", metavar="PREFIX", default=None,
                        help="saved database prefix (offline mode)")
    update.add_argument("--service", metavar="URL", default=None,
                        help="send the batch to a running serve "
                             "instance instead of opening the database; "
                             "commits a new MVCC version while queries "
                             "keep running")
    update.add_argument("--database", default=None,
                        help="served database name (with --service)")
    update.add_argument("--batch", required=True, metavar="FILE",
                        help="batch file: one 'add U V [W]' / 'del U V' "
                             "/ 'vertex [N]' per line")
    update.add_argument("--no-fsync", action="store_true",
                        help="skip fsync on WAL appends (faster, less "
                             "durable)")
    update.add_argument("--compact-threshold", type=int, default=None,
                        metavar="BYTES",
                        help="fold deltas into the base once they "
                             "exceed this many bytes")
    update.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write dynamic-layer metrics as JSON")

    compact_cmd = commands.add_parser(
        "compact",
        help="fold deltas + WAL into a clean base database")
    compact_cmd.add_argument("--db", metavar="PREFIX", required=True,
                             help="saved database prefix")
    compact_cmd.add_argument("--threshold", type=int, default=0,
                             metavar="BYTES",
                             help="only compact when delta bytes exceed "
                                  "this (default: always)")
    compact_cmd.add_argument("--metrics-out", default=None,
                             metavar="PATH",
                             help="write dynamic-layer metrics as JSON")

    report = commands.add_parser(
        "report", help="aggregate results/ into REPORT.md")
    report.add_argument("--results-dir", default="results")
    report.add_argument("--output", default=None)

    obs = commands.add_parser(
        "obs",
        help="trace analytics, run comparison and benchmark history")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    analyze = obs_sub.add_parser(
        "analyze",
        help="occupancy / overlap-hiding / round attribution for a "
             "written Chrome trace")
    analyze.add_argument("trace", metavar="TRACE.json",
                         help="trace file written by --trace-out")
    analyze.add_argument("--json", action="store_true",
                         help="print the full analysis as JSON")
    analyze.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON report (the artifact "
                              "'obs compare' diffs)")

    compare = obs_sub.add_parser(
        "compare",
        help="diff metrics artifacts under tolerance rules; exits "
             "non-zero on regression")
    compare.add_argument("files", nargs="+", metavar="FILE",
                         help="two artifacts (before, after), or one "
                              "current artifact with --history")
    compare.add_argument("--history", default=None, metavar="JSONL",
                         help="compare FILE against its latest matching "
                              "baseline in this history log")
    compare.add_argument("--benchmark", default=None,
                         help="history record name to baseline against "
                              "(required with --history)")
    compare.add_argument("--match", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="baseline meta filter, repeatable (values "
                              "parse as JSON: quick=true, scale=13)")
    compare.add_argument("--rules", default=None, metavar="RULES.json",
                         help="tolerance rules (default: built-in rules "
                              "for run/analysis artifacts)")
    compare.add_argument("--json", action="store_true",
                         help="print the comparison report as JSON")

    history = obs_sub.add_parser(
        "history", help="list the benchmark history log")
    history.add_argument("--path", default="BENCH_history.jsonl",
                         metavar="JSONL")
    history.add_argument("--benchmark", default=None,
                         help="only records from this benchmark")
    history.add_argument("--limit", type=int, default=None,
                         help="show only the newest N records")
    history.add_argument("--json", action="store_true",
                         help="print records as a JSON list")

    requests = obs_sub.add_parser(
        "requests",
        help="tail / filter / summarize a service slow-query ring")
    requests.add_argument("ring", metavar="RING_DIR",
                          help="slow-query ring directory "
                               "(serve --telemetry-ring)")
    requests.add_argument("--tail", type=int, default=None, metavar="N",
                          help="show only the newest N records")
    requests.add_argument("--status", default=None,
                          choices=("ok", "error", "deadline"),
                          help="only records with this outcome")
    requests.add_argument("--database", default=None,
                          help="only records for this database")
    requests.add_argument("--slower-than", type=float, default=None,
                          metavar="MS",
                          help="only records with wall_ms >= MS")
    requests.add_argument("--summarize", action="store_true",
                          help="print an aggregate summary instead of "
                               "per-request lines")
    requests.add_argument("--json", action="store_true",
                          help="print full records (or the summary) "
                               "as JSON")

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant query service over HTTP/JSON")
    serve.add_argument("--db", action="append", default=[],
                       metavar="NAME=PREFIX",
                       help="serve a saved database prefix under NAME "
                            "(repeatable; opened through the WAL-aware "
                            "dynamic layer)")
    serve.add_argument("--dataset", action="append", default=[],
                       metavar="NAME",
                       help="serve a registry dataset, built weighted "
                            "so every algorithm can run (repeatable)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8030,
                       help="TCP port; 0 picks a free one (printed on "
                            "startup)")
    serve.add_argument("--max-in-flight", type=int, default=8,
                       help="queries executing at once")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="queries allowed to wait beyond the "
                            "in-flight set; more are rejected with "
                            "HTTP 429")
    serve.add_argument("--shared-cache-pages", type=int, default=None,
                       metavar="N",
                       help="cross-query shared page cache capacity "
                            "per database (default: unbounded; 0 "
                            "disables caching but keeps accounting)")
    serve.add_argument("--pool-pages", type=int, default=256,
                       help="per-database decoded-page pool for --db "
                            "prefixes")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--stats-out", default=None, metavar="PATH",
                       help="write final service metrics JSON on "
                            "shutdown ('obs compare' compatible)")
    serve.add_argument("--telemetry", action="store_true",
                       help="enable request telemetry: lifecycle "
                            "spans, rolling-window metrics on "
                            "/metrics, structured request logging")
    serve.add_argument("--slow-ms", type=float, default=250.0,
                       metavar="MS",
                       help="tail-capture threshold: requests slower "
                            "than this (or erroring) keep their span "
                            "tree in the slow-query ring")
    serve.add_argument("--sample-every", type=int, default=0,
                       metavar="N",
                       help="head-sample every Nth request with a "
                            "full engine trace attached to its "
                            "tail-capture record (0 disables)")
    serve.add_argument("--telemetry-ring", default=None,
                       metavar="DIR",
                       help="slow-query ring directory (inspect with "
                            "'obs requests'); implies --telemetry")
    serve.add_argument("--ring-capacity", type=int, default=64,
                       help="slow-query ring size bound")
    serve.add_argument("--telemetry-log", default=None, metavar="PATH",
                       help="append structured JSON request log lines "
                            "here ('-' for stderr); implies "
                            "--telemetry")

    query = commands.add_parser(
        "query", help="send one query to a running serve instance")
    query.add_argument("--url", default="http://127.0.0.1:8030",
                       help="service base URL")
    query.add_argument("--database", required=True,
                       help="served database name")
    query.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                       default="bfs")
    query.add_argument("--start", type=int, default=None,
                       help="start/query vertex (default: the "
                            "service picks the busiest vertex)")
    query.add_argument("--iterations", type=int, default=10)
    query.add_argument("--k", type=int, default=2, help="k for k-core")
    query.add_argument("--strategy",
                       choices=("performance", "scalability"),
                       default=None)
    query.add_argument("--streams", type=int, default=None)
    query.add_argument("--gpus", type=int, default=None)
    query.add_argument("--query-id", default=None,
                       help="tag for traces/metrics (default: "
                            "server-assigned)")
    query.add_argument("--timeout", type=float, default=60.0,
                       help="HTTP timeout in seconds (covers the "
                            "admission wait)")
    query.add_argument("--retries", type=int, default=0,
                       help="retry HTTP 429 admission rejections up "
                            "to N times, honouring Retry-After with "
                            "capped backoff (503 is never retried)")
    query.add_argument("--timeout-ms", type=float, default=None,
                       help="per-query deadline in milliseconds "
                            "(queue wait included); the server answers "
                            "504 and the command exits 4 when exceeded")
    query.add_argument("--include-values", action="store_true",
                       help="return full output vectors, not summaries")
    query.add_argument("--json", action="store_true",
                       help="print the full RunResult dict as JSON")
    return parser


def _load_database(args):
    weighted = ALGORITHMS[args.algorithm][1]
    symmetrised = ALGORITHMS[args.algorithm][2]
    if getattr(args, "db", None):
        # A saved topology is used exactly as built — it cannot be
        # re-weighted or symmetrised here, so check it satisfies the
        # algorithm's requirements instead of silently mis-running.
        from repro.dynamic import open_dynamic_database
        db = open_dynamic_database(args.db)
        if weighted and db.config.weight_bytes == 0:
            raise ConfigurationError(
                "algorithm %r needs edge weights, but the database "
                "saved at %r was built without them (weight_bytes=0); "
                "rebuild it from a weighted edge list"
                % (args.algorithm, args.db))
        if symmetrised:
            print("warning: %s expects a symmetrised graph; the saved "
                  "topology at %r is used as-is (directed edges stay "
                  "directed)" % (args.algorithm, args.db),
                  file=sys.stderr)
        return None, db, args.db
    if args.dataset:
        graph = dataset_graph(args.dataset, weighted=weighted,
                              symmetrised=symmetrised)
        db = dataset_database(args.dataset, weighted=weighted,
                              symmetrised=symmetrised)
        return graph, db, args.dataset
    graph = read_edge_list(args.edges)
    if symmetrised:
        graph = graph.symmetrised()
    config = PageFormatConfig(
        page_id_bytes=2, slot_bytes=2, page_size=args.page_size,
        weight_bytes=4 if (weighted and graph.weights is not None) else 0)
    db = build_database(graph, config, name=args.edges)
    return graph, db, args.edges


def _wants_host_profile(args):
    return bool(getattr(args, "host_profile", False)
                or getattr(args, "flamegraph", None)
                or getattr(args, "host_profile_out", None))


def _execute_run(args, tracing=False):
    """Shared by ``run`` and ``profile``: build everything and run.

    Returns ``(result, db, machine, kernel, host_profile)``; the last
    is ``None`` unless a host-profile flag was given.
    """
    profiler = None
    if _wants_host_profile(args):
        # One CLI-owned profiler, this thread's recorder for load *and*
        # run, so the profile covers the whole command.
        from repro.obs.host import HostProfiler
        profiler = HostProfiler()
    with activate(profiler):
        with span("load"):
            graph, db, name = _load_database(args)
        if args.start is not None:
            start = args.start
        elif graph is not None:
            start = default_start_vertex(graph)
        else:
            # No Graph object for --db sources; seed from the busiest
            # vertex.
            start = int(np.argmax(db.out_degrees))
        kernel = ALGORITHMS[args.algorithm][0](args, start)
        machine = scaled_workstation(num_gpus=args.gpus,
                                     num_ssds=args.ssds)
        faults = None
        if getattr(args, "faults", None):
            from repro.faults import FaultPlan
            faults = FaultPlan.from_json_file(args.faults)
        engine = GTSEngine(db, machine, strategy=args.strategy,
                           num_streams=args.streams,
                           micro_technique=args.micro,
                           enable_caching=not args.no_cache,
                           tracing=tracing,
                           faults=faults,
                           fault_seed=getattr(args, "fault_seed", None))
        result = engine.run(kernel, dataset_name=name)
    profile = profiler.finish() if profiler is not None else None
    return result, db, machine, kernel, profile


def _write_artifacts(args, result, db, machine, kernel, profile):
    """Handle ``--trace-out`` / ``--metrics-out`` and the host-profile
    artifacts (``--flamegraph`` / ``--host-profile-out``) for run and
    profile."""
    written = []
    if args.trace_out:
        from repro.obs import write_chrome_trace
        trace = result.trace
        if profile is not None and trace is not None:
            # Merge the host lanes into the exported file only; the
            # live recorder (and result.analyze()) stay untouched.
            from repro.obs.host import merge_host_lanes
            trace = merge_host_lanes(trace, profile)
        write_chrome_trace(trace, args.trace_out)
        written.append(("trace", args.trace_out))
    if getattr(args, "flamegraph", None):
        from repro.obs.host import write_flamegraph
        write_flamegraph(profile, args.flamegraph)
        written.append(("flamegraph", args.flamegraph))
    if getattr(args, "host_profile_out", None):
        from repro.obs.host import write_host_profile
        write_host_profile(profile, args.host_profile_out)
        written.append(("host profile", args.host_profile_out))
    if args.metrics_out:
        from repro.obs import (
            collect_run_metrics,
            cost_model_drift,
            record_drift,
        )
        registry = collect_run_metrics(result, host_profile=profile)
        record_drift(cost_model_drift(result, db, machine, kernel),
                     registry)
        if hasattr(db, "dynamic_stats"):
            from repro.obs import collect_dynamic_metrics
            collect_dynamic_metrics(db, registry)
        registry.to_json(args.metrics_out)
        written.append(("metrics", args.metrics_out))
    return written


def _command_run(args):
    result, db, machine, kernel, profile = _execute_run(
        args, tracing=bool(args.trace_out))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.summary())
        for key, values in result.values.items():
            values = np.asarray(values)
            if values.size <= 4:
                print("  %s: %s" % (key, values))
            elif np.issubdtype(values.dtype, np.floating):
                print("  %s: min %.4g  max %.4g  mean %.4g"
                      % (key, values.min(), values.max(),
                         values.mean()))
            else:
                print("  %s: min %s  max %s" % (key, values.min(),
                                                values.max()))
        if profile is not None:
            print()
            print(profile.summary())
    for label, path in _write_artifacts(args, result, db, machine,
                                        kernel, profile):
        print("wrote %s to %s" % (label, path), file=sys.stderr)
    return 0


def _command_profile(args):
    from repro.obs import ascii_timeline, cost_model_drift
    result, db, machine, kernel, profile = _execute_run(args,
                                                        tracing=True)
    print(result.summary())
    print()
    print(ascii_timeline(result.trace, width=args.width))
    print()
    print(cost_model_drift(result, db, machine, kernel).summary())
    if profile is not None:
        print()
        print(profile.summary())
    for label, path in _write_artifacts(args, result, db, machine,
                                        kernel, profile):
        print("wrote %s to %s" % (label, path), file=sys.stderr)
    return 0


def _command_datasets(args):
    print("%-10s %12s %14s %8s %18s" % ("name", "vertices", "edges",
                                        "(p,q)", "paper vertices"))
    for name in sorted(DATASETS):
        spec = DATASETS[name]
        print("%-10s %12d %14d %8s %18s"
              % (name, spec.scaled_vertices,
                 spec.scaled_vertices * max(
                     1, spec.paper_edges // spec.paper_vertices),
                 spec.page_config, "{:,}".format(spec.paper_vertices)))
    return 0


def _command_recommend(args):
    kernels = {
        "bfs": BFSKernel(0),
        "pagerank": PageRankKernel(iterations=args.iterations),
        "sssp": SSSPKernel(0),
        "cc": WCCKernel(),
    }
    kernel = kernels[args.algorithm]
    db = dataset_database(args.dataset)
    machine = scaled_workstation(num_gpus=args.gpus)
    rounds = args.iterations if args.algorithm in ("pagerank",) else 1
    recommendation = recommend_configuration(db, machine, kernel,
                                             rounds=rounds)
    print(recommendation.describe())
    return 0


def _command_update(args):
    from repro.dynamic import (
        maybe_compact,
        open_dynamic_database,
        parse_batch_file,
    )
    if (args.db is None) == (args.service is None):
        print("update needs exactly one of --db or --service",
              file=sys.stderr)
        return 1
    if args.service is not None:
        return _command_update_service(args)
    batch = parse_batch_file(args.batch)
    db = open_dynamic_database(args.db, fsync=not args.no_fsync)
    report = db.apply(batch)
    print("applied %s to %s: %d page(s) dirtied, WAL record %s"
          % (batch, args.db, len(report.affected_pids), report.lsn))
    print("  " + repr(db))
    if args.compact_threshold is not None:
        outcome = maybe_compact(db, args.compact_threshold,
                                save_prefix=args.db)
        if outcome is not None:
            print("  " + outcome.summary())
    if args.metrics_out:
        from repro.obs import collect_dynamic_metrics
        collect_dynamic_metrics(db).to_json(args.metrics_out)
        print("wrote metrics to %s" % args.metrics_out, file=sys.stderr)
    return 0


def _command_update_service(args):
    """``update --service URL --database NAME``: live MVCC commit."""
    from repro.dynamic import parse_batch_file
    from repro.errors import ServiceError, ShutdownError
    from repro.service import ServiceClient
    if not args.database:
        print("update --service needs --database NAME", file=sys.stderr)
        return 1
    batch = parse_batch_file(args.batch)
    client = ServiceClient(args.service)
    try:
        report = client.update(args.database, batch,
                               compact_threshold=args.compact_threshold)
    except ShutdownError as error:
        print("draining: %s" % error, file=sys.stderr)
        return 3
    except ServiceError as error:
        print("rejected: %s" % error, file=sys.stderr)
        return 1
    print("applied %s to %s@%s: now topology v%d, +%d/-%d edges, "
          "+%d vertices, %dB delta%s"
          % (batch, args.database, args.service,
             report["topology_version"], report["edges_inserted"],
             report["edges_deleted"], report["vertices_added"],
             report["delta_bytes"],
             ", compacted" if report["compacted"] else ""))
    mvcc = report.get("mvcc")
    if mvcc:
        print("  mvcc: %d version(s) retained, %d pinned snapshot(s), "
              "%d reclaimed"
              % (mvcc["version_chain_length"], mvcc["pinned_snapshots"],
                 mvcc["reclaimed_versions"]))
    if args.metrics_out:
        print("--metrics-out is unavailable with --service (use the "
              "server's /stats endpoint)", file=sys.stderr)
    return 0


def _command_compact(args):
    from repro.dynamic import maybe_compact, open_dynamic_database
    db = open_dynamic_database(args.db)
    outcome = maybe_compact(db, args.threshold, save_prefix=args.db)
    if outcome is None:
        print("nothing to do: %d delta byte(s) below threshold %d"
              % (db.delta_bytes, args.threshold))
    else:
        print(outcome.summary())
        print("saved compacted base to %s.meta.json/.pages and reset "
              "the WAL" % args.db)
    if args.metrics_out:
        from repro.obs import collect_dynamic_metrics
        collect_dynamic_metrics(db).to_json(args.metrics_out)
        print("wrote metrics to %s" % args.metrics_out, file=sys.stderr)
    return 0


def _command_report(args):
    from repro.bench.report import generate_report
    path, included, missing = generate_report(args.results_dir,
                                              args.output)
    print("wrote %s with %d section(s)" % (path, len(included)))
    if missing:
        print("missing artifacts (run pytest benchmarks/ first): %s"
              % ", ".join(missing))
    return 0


def _parse_match(items):
    """``KEY=VALUE`` pairs -> a meta-match dict (values parse as JSON
    when they can, so ``quick=true`` and ``scale=13`` type correctly)."""
    match = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                "--match expects KEY=VALUE, got %r" % item)
        try:
            match[key] = json.loads(value)
        except ValueError:
            match[key] = value
    return match


def _command_obs_analyze(args):
    from repro.obs import analyze_trace
    analysis = analyze_trace(args.trace)
    if args.json:
        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    else:
        print(analysis.summary())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(analysis.to_dict(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print("wrote analysis to %s" % args.out, file=sys.stderr)
    return 0


def _command_obs_compare(args):
    from repro.obs import compare_metrics, load_rules
    from repro.obs.history import compare_to_baseline
    rules = load_rules(args.rules) if args.rules else None
    if args.history:
        if len(args.files) != 1:
            raise ConfigurationError(
                "--history compares exactly one current artifact "
                "against the log; got %d files" % len(args.files))
        if not args.benchmark:
            raise ConfigurationError(
                "--history needs --benchmark to pick baseline records")
        with open(args.files[0]) as handle:
            payload = json.load(handle)
        report, baseline = compare_to_baseline(
            args.history, args.benchmark, payload, rules=rules,
            match_meta=_parse_match(args.match))
        if report is None:
            print("no matching %r baseline in %s — nothing to gate "
                  "(append this run to start a trajectory)"
                  % (args.benchmark, args.history))
            return 0
    else:
        if len(args.files) != 2:
            raise ConfigurationError(
                "compare takes exactly two artifacts (before, after) "
                "unless --history is given; got %d" % len(args.files))
        payloads = []
        for path in args.files:
            with open(path) as handle:
                payloads.append(json.load(handle))
        report = compare_metrics(payloads[0], payloads[1], rules=rules,
                                 before_label=args.files[0],
                                 after_label=args.files[1])
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return report.exit_code


def _command_obs_history(args):
    from repro.obs.history import describe_history, load_history
    records = load_history(args.path, benchmark=args.benchmark)
    if args.json:
        shown = (records if args.limit is None
                 else records[-args.limit:])
        print(json.dumps(shown, indent=2, sort_keys=True))
    else:
        print(describe_history(records, limit=args.limit))
    return 0


def _command_obs_requests(args):
    from repro.obs.telemetry import load_ring, summarize_requests

    records = load_ring(args.ring)
    if args.status is not None:
        records = [r for r in records if r.get("status") == args.status]
    if args.database is not None:
        records = [r for r in records
                   if r.get("database") == args.database]
    if args.slower_than is not None:
        records = [r for r in records
                   if (r.get("wall_ms") or 0.0) >= args.slower_than]
    if args.tail is not None:
        records = records[-args.tail:]
    if args.summarize:
        summary = summarize_requests(records)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print("%d captured request(s)" % summary["requests"])
        for key in ("by_status", "by_error_type", "by_database"):
            if summary[key]:
                print("  %s: %s" % (key[3:], ", ".join(
                    "%s=%d" % (name, count)
                    for name, count in sorted(summary[key].items()))))
        if summary["wall_ms"]:
            wall = summary["wall_ms"]
            print("  wall ms: min %.1f  p50 %.1f  p95 %.1f  max %.1f"
                  % (wall["min"], wall["p50"], wall["p95"],
                     wall["max"]))
        for name, mean in sorted(summary["phase_mean_ms"].items()):
            print("  phase %-14s mean %10.3f ms" % (name, mean))
        return 0
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    if not records:
        print("no captured requests match")
        return 0
    for record in records:
        phases = {child["name"]: child["duration_ms"]
                  for child in (record.get("span") or {}).get(
                      "children") or []}
        detail = "  ".join("%s=%.1f" % (name, phases[name])
                           for name in ("queue_wait", "gate_acquire",
                                        "engine", "serialize")
                           if name in phases)
        wall = record.get("wall_ms")
        print("%-12s %-10s %-9s %9s ms  %s%s"
              % (record.get("query_id"), record.get("database"),
                 record.get("status"),
                 "%.1f" % wall if wall is not None else "-", detail,
                 "  [sampled]" if record.get("sampled") else ""))
        if record.get("error_type"):
            print("             %s: %s"
                  % (record["error_type"], record.get("error")))
    return 0


def _command_obs(args):
    handlers = {
        "analyze": _command_obs_analyze,
        "compare": _command_obs_compare,
        "history": _command_obs_history,
        "requests": _command_obs_requests,
    }
    return handlers[args.obs_command](args)


def _command_serve(args):
    import signal
    import threading

    from repro.service import GraphService, make_server
    if not args.db and not args.dataset:
        raise ConfigurationError(
            "serve needs at least one --db NAME=PREFIX or --dataset "
            "NAME")
    telemetry = None
    log_handle = None
    if args.telemetry or args.telemetry_ring or args.telemetry_log:
        from repro.obs.telemetry import TelemetryConfig
        log_stream = None
        if args.telemetry_log == "-":
            log_stream = sys.stderr
        elif args.telemetry_log:
            log_handle = open(args.telemetry_log, "a")
            log_stream = log_handle
        telemetry = TelemetryConfig(
            slow_ms=args.slow_ms,
            sample_every=args.sample_every,
            ring_dir=args.telemetry_ring,
            ring_capacity=args.ring_capacity,
            log_stream=log_stream)
    service = GraphService(max_in_flight=args.max_in_flight,
                           max_queue=args.max_queue,
                           shared_cache_pages=args.shared_cache_pages,
                           telemetry=telemetry)
    if telemetry is not None:
        print("telemetry on: slow-ms %.0f, sample-every %d%s%s"
              % (args.slow_ms, args.sample_every,
                 ", ring %s" % args.telemetry_ring
                 if args.telemetry_ring else "",
                 ", log %s" % args.telemetry_log
                 if args.telemetry_log else ""), file=sys.stderr)
    for item in args.db:
        name, sep, prefix = item.partition("=")
        if not sep or not name or not prefix:
            raise ConfigurationError(
                "--db expects NAME=PREFIX, got %r" % item)
        db = service.add_database(name, prefix=prefix,
                                  pool_pages=args.pool_pages)
        print("serving %r from %s (%d vertices, %d edges)"
              % (name, prefix, db.num_vertices, db.num_edges),
              file=sys.stderr)
    for name in args.dataset:
        if name not in DATASETS:
            raise ConfigurationError(
                "unknown dataset %r (see 'repro datasets')" % name)
        db = dataset_database(name, weighted=True)
        service.add_database(name, db=db)
        print("serving dataset %r (%d vertices, %d edges)"
              % (name, db.num_vertices, db.num_edges), file=sys.stderr)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]

    def _begin_shutdown(signum, frame):
        # serve_forever() must be unblocked from another thread; the
        # drain itself happens below, after the listener stops.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGINT, _begin_shutdown)
    signal.signal(signal.SIGTERM, _begin_shutdown)
    print("serving on http://%s:%d (databases: %s)"
          % (host, port, ", ".join(service.database_names())),
          flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.drain(wait=True)
    stats = service.stats()
    if args.stats_out:
        from repro.obs import collect_service_metrics
        collect_service_metrics(stats).to_json(args.stats_out)
        print("wrote service stats to %s" % args.stats_out,
              file=sys.stderr)
    print("clean shutdown: %d completed, %d failed, %d rejected"
          % (stats["completed"], stats["failed"],
             stats["rejected_admission"] + stats["rejected_shutdown"]),
          file=sys.stderr)
    if log_handle is not None:
        log_handle.close()
    return 0


def _command_query(args):
    from repro.errors import (AdmissionError, DeadlineError,
                              ShutdownError)
    from repro.service import ServiceClient
    client = ServiceClient(args.url, timeout=args.timeout,
                           retries=args.retries)
    params = {"iterations": args.iterations, "k": args.k}
    if args.start is not None:
        params["start"] = args.start
    options = {}
    if args.strategy:
        options["strategy"] = args.strategy
    if args.streams is not None:
        options["num_streams"] = args.streams
    if args.gpus is not None:
        options["num_gpus"] = args.gpus
    if args.timeout_ms is not None:
        options["timeout_ms"] = args.timeout_ms
    try:
        result = client.query(args.database, args.algorithm,
                              params=params, options=options or None,
                              query_id=args.query_id,
                              include_values=args.include_values)
    except AdmissionError as error:
        print("busy: %s" % error, file=sys.stderr)
        return 2
    except ShutdownError as error:
        print("draining: %s" % error, file=sys.stderr)
        return 3
    except DeadlineError as error:
        print("deadline exceeded: %s" % error, file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print("%s on %s [%s]: %.6f s simulated, %d rounds, "
              "%d pages streamed, shared-cache hit rate %.1f%% "
              "(query %s)"
              % (result["algorithm"], result["dataset"],
                 result["strategy"], result["elapsed_seconds"],
                 result["num_rounds"], result["pages_streamed"],
                 100.0 * result["shared_hit_rate"],
                 result["query_id"]))
    return 0


def _command_bench(args):
    outcome = EXPERIMENTS[args.experiment](args)
    tables = outcome if isinstance(outcome, tuple) else (outcome,)
    for table in tables:
        print(table.render())
        print()
    return 0


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "profile": _command_profile,
        "datasets": _command_datasets,
        "recommend": _command_recommend,
        "bench": _command_bench,
        "update": _command_update,
        "compact": _command_compact,
        "report": _command_report,
        "obs": _command_obs,
        "serve": _command_serve,
        "query": _command_query,
    }
    try:
        return handlers[args.command](args)
    except GTSError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        # Artifact paths (--trace-out/--metrics-out) are user input.
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
