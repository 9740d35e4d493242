"""One function per paper table/figure (the per-experiment index of
DESIGN.md §4).

Each function runs the experiment on the scaled datasets and returns an
:class:`~repro.bench.harness.ExperimentTable` whose rows/columns mirror
the paper's artifact.  The ``benchmarks/`` suite calls these under
pytest-benchmark and saves the rendered tables under ``results/``;
EXPERIMENTS.md records the paper-versus-measured comparison.

Elapsed times are simulated seconds at 1/8192 scale; multiply by 8192 for
paper-equivalent seconds (ratios are scale-invariant).
"""

import dataclasses

import numpy as np

from repro.baselines.cpu import ALL_CPU_ENGINES, CPUHostSpec
from repro.baselines.distributed import ALL_DISTRIBUTED_ENGINES, ClusterSpec
from repro.baselines.gpu import ALL_GPU_ENGINES, TOTEM_PARTITION_TABLE
from repro.baselines.outofcore import GraphChiEngine, XStreamEngine
from repro.bench.datasets import (
    SCALE_FACTOR,
    dataset_database,
    dataset_graph,
    dataset_spec,
    default_start_vertex,
)
from repro.bench.harness import (
    NOT_AVAILABLE,
    OOM,
    ExperimentTable,
    format_cell,
    run_or_oom,
)
from repro.core import GTSEngine
from repro.core.algorithms import ALGORITHMS, make_kernel
from repro.core.cache import PageCache
from repro.errors import CapacityError, ConfigurationError
from repro.format import SIX_BYTE_CONFIGS, PageFormatConfig, build_database
from repro.graphgen import generate_rmat
from repro.hardware.specs import (
    HDD_SPEC,
    SSD_SPEC,
    scaled_workstation,
)
from repro.units import KB, MB, format_bytes

#: Default iteration count for PageRank experiments (the paper uses 10).
PAGERANK_ITERATIONS = 10

#: The algorithms a BFS-or-PageRank figure accepts.
BFS_OR_PAGERANK = ("BFS", "PageRank")


# ----------------------------------------------------------------------
# Shared constructors
# ----------------------------------------------------------------------
def _machine(num_gpus=2, num_ssds=2, storage_spec=SSD_SPEC):
    return scaled_workstation(num_gpus=num_gpus, num_ssds=num_ssds,
                              storage_spec=storage_spec)


def _gts_run(kernel, name, symmetrised=False, machine=None, strategy=None,
             dataset=None, **engine_kwargs):
    """Run GTS on a registry dataset with the paper's strategy policy:
    Strategy-P while WA fits one GPU, Strategy-S otherwise."""
    db = dataset if dataset is not None else dataset_database(
        name, symmetrised=symmetrised)
    machine = machine or _machine()
    if strategy is not None:
        engine = GTSEngine(db, machine, strategy=strategy, **engine_kwargs)
        return engine.run(kernel, dataset_name=name)
    try:
        engine = GTSEngine(db, machine, strategy="performance",
                           **engine_kwargs)
        return engine.run(kernel, dataset_name=name)
    except CapacityError:
        engine = GTSEngine(db, machine, strategy="scalability",
                           **engine_kwargs)
        return engine.run(kernel, dataset_name=name)


def _distributed_engines():
    cluster = ClusterSpec().scaled(SCALE_FACTOR)
    return [Engine(cluster, time_scale=SCALE_FACTOR)
            for Engine in ALL_DISTRIBUTED_ENGINES]


def _cpu_engines():
    host = CPUHostSpec().scaled(SCALE_FACTOR)
    return [Engine(host, time_scale=SCALE_FACTOR)
            for Engine in ALL_CPU_ENGINES]


def _gpu_engines():
    host = CPUHostSpec().scaled(SCALE_FACTOR)
    machine = _machine()
    return [Engine(host=host, gpus=list(machine.gpus), pcie=machine.pcie,
                   time_scale=SCALE_FACTOR)
            for Engine in ALL_GPU_ENGINES]


def _key(label):
    """The registry key of the kernel named ``label`` (``BFS`` ->
    ``bfs``), the spelling of the paper's tables."""
    return {row.factory({}, 0).name: key
            for key, row in ALGORITHMS.items()}[label]


def _label(algorithm, allowed):
    """Which of the labels ``allowed`` ``algorithm`` names, as a label or
    as a registry key: ``bfs`` and ``BFS`` both read ``BFS``."""
    for label in allowed:
        if algorithm in (label, _key(label)):
            return label
    raise ConfigurationError("this experiment runs %s, not %r"
                             % (" / ".join(allowed), algorithm))


def _kernel(algorithm, db):
    """A figure cell's kernel: PageRank runs the paper's iterations."""
    return make_kernel(_key(algorithm),
                       {"iterations": PAGERANK_ITERATIONS}, db)


def _baseline_run(engine, algorithm, name):
    """A figure cell's baseline run: traversals start at the busiest
    vertex, PageRank runs the paper's iterations."""
    key = _key(algorithm)
    row = ALGORITHMS[key]
    graph = dataset_graph(name, weighted=row.weighted,
                          symmetrised=row.symmetric)
    return run_or_oom(engine.run, key, graph,
                      {"iterations": PAGERANK_ITERATIONS}, dataset_name=name)


def _gts_algorithm_run(algorithm, name, iterations=PAGERANK_ITERATIONS,
                       **engine_kwargs):
    key = _key(algorithm)
    row = ALGORITHMS[key]
    db = dataset_database(name, weighted=row.weighted,
                          symmetrised=row.symmetric)
    kernel = make_kernel(key, {"iterations": iterations}, db)
    return run_or_oom(_gts_run, kernel, name, dataset=db, **engine_kwargs)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table1_transfer_kernel_ratios():
    """Table 1: transfer-time : kernel-time ratios, BFS and PageRank."""
    datasets = ["twitter", "uk2007", "yahooweb"]
    table = ExperimentTable(
        "Table 1: transfer : kernel execution time ratios",
        datasets,
        caption="Paper: BFS 1:3 / 1:1 / 2:1, PageRank 1:20 / 1:6 / 1:4. "
                "Measured with the page cache off: the table profiles "
                "the pure streaming pipeline (Figures 3-4), where every "
                "kernel is paired with its page transfer.")
    for algorithm in ("BFS", "PageRank"):
        cells = []
        for name in datasets:
            result = _gts_algorithm_run(algorithm, name,
                                        enable_caching=False)
            ratio = result.transfer_to_kernel_ratio
            if ratio >= 1.0:
                cells.append("%.1f:1" % ratio)
            elif ratio > 0:
                cells.append("1:%.1f" % (1.0 / ratio))
            else:
                cells.append("0:1")
        table.add_row(algorithm, cells)
    return table


def table2_id_configurations():
    """Table 2: the three 6-byte physical-ID configurations."""
    table = ExperimentTable(
        "Table 2: configurations of a 6-byte physical ID",
        ["max. page ID", "max. slot number", "max. page size"],
        caption="Paper: 64 K / 4 B / 80 GB; 16 M / 16 M / 320 MB; "
                "4 B / 64 K / 1.25 MB.")
    for (p, q), config in sorted(SIX_BYTE_CONFIGS.items()):
        table.add_row("p=%d q=%d" % (p, q), [
            "%d" % config.max_page_id,
            "%d" % config.max_slot_number,
            format_bytes(config.theoretical_max_page_size()),
        ])
    return table


def table3_dataset_statistics(names=None):
    """Table 3: dataset statistics and slotted-page counts (scaled)."""
    names = names or ["rmat27", "rmat28", "rmat29", "rmat30", "rmat31",
                      "rmat32", "twitter", "uk2007", "yahooweb"]
    table = ExperimentTable(
        "Table 3: graph dataset statistics (1/8192 scale)",
        ["#vertices", "#edges", "(p,q)", "#SP", "#LP"],
        caption="Page counts depend on the scaled page sizes (2 KB / "
                "8 KB); the paper's absolute counts used 1 MB / 64 MB "
                "pages at full scale.")
    for name in names:
        db = dataset_database(name)
        stats = db.statistics()
        table.add_row(name, [
            stats["vertices"], stats["edges"],
            "(%d,%d)" % (stats["p"], stats["q"]),
            stats["num_sp"], stats["num_lp"],
        ])
    return table


def table4_wa_sizes(names=None):
    """Table 4: WA sizes versus topology size per algorithm (scaled)."""
    names = names or ["rmat28", "rmat29", "rmat30", "rmat31", "rmat32"]
    kernels = [ALGORITHMS[name].factory({}, 0)
               for name in ("bfs", "pagerank", "sssp", "cc")]
    table = ExperimentTable(
        "Table 4: topology vs WA sizes (1/8192 scale)",
        ["topology"] + [kernel.name for kernel in kernels],
        caption="Ratios of WA to topology match the paper (1.7%-10%): "
                "the byte-per-vertex widths are the paper's.")
    for name in names:
        db = dataset_database(name)
        cells = [format_bytes(db.topology_bytes())]
        for kernel in kernels:
            cells.append(format_bytes(kernel.wa_bytes(db.num_vertices)))
        table.add_row(name, cells)
    return table


def table5_totem_partitions():
    """Table 5: TOTEM's GPU:CPU partition ratios (Appendix C)."""
    datasets = ["rmat27", "rmat28", "rmat29", "twitter", "uk2007",
                "yahooweb"]
    columns = ["1 GPU BFS", "1 GPU PageRank", "2 GPU BFS",
               "2 GPU PageRank"]
    table = ExperimentTable(
        "Table 5: TOTEM partition ratios (GPU%:CPU%)",
        columns,
        caption="Values are the paper's recommended options; YahooWeb "
                "has no 2-GPU configuration (N/A), as in the paper.")
    for name in datasets:
        cells = []
        for gpus in (1, 2):
            for algorithm in ("BFS", "PageRank"):
                key = (name, algorithm, gpus)
                if key in TOTEM_PARTITION_TABLE:
                    fraction = TOTEM_PARTITION_TABLE[key]
                    cells.append("%d:%d" % (round(fraction * 100),
                                            round((1 - fraction) * 100)))
                else:
                    cells.append(NOT_AVAILABLE)
        table.add_row(name, cells)
    return table


# ----------------------------------------------------------------------
# Figures 6-8: engine comparisons
# ----------------------------------------------------------------------
def _comparison_figure(title, engines_factory, datasets, algorithm, caption):
    from repro.bench.charts import chart_from_results
    outcomes = {}
    for engine in engines_factory():
        outcomes[engine.name] = {
            name: _baseline_run(engine, algorithm, name)
            for name in datasets
        }
    outcomes["GTS"] = {name: _gts_algorithm_run(algorithm, name)
                       for name in datasets}
    table = ExperimentTable(title, datasets, caption=caption)
    for name, per_dataset in outcomes.items():
        table.add_row(name, [format_cell(per_dataset[dataset])
                             for dataset in datasets])
    # Append the paper-style log-scale bar chart below the caption.
    chart = chart_from_results(title + " — chart", list(datasets),
                               outcomes)
    table.caption = (caption + "\n\n" + chart) if caption else chart
    return table


def section8_streaming(algorithm="BFS",
                       datasets=("twitter", "yahooweb", "rmat28")):
    """Section 8: GTS vs the out-of-core streaming engines.

    The paper's discussion (not a numbered figure): X-Stream must stream
    the entire edge list every scatter-gather iteration, so traversal on
    a high-diameter graph (YahooWeb) costs it hundreds of full scans;
    GraphChi is worse still (no I/O-compute overlap).  GTS streams only
    the frontier's pages.
    """
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    host = CPUHostSpec().scaled(SCALE_FACTOR)
    engines = [Engine(host=host, storage=SSD_SPEC, num_disks=2,
                      time_scale=SCALE_FACTOR)
               for Engine in (XStreamEngine, GraphChiEngine)]
    table = ExperimentTable(
        "Section 8: out-of-core streaming engines (%s)" % algorithm,
        list(datasets),
        caption="X-Stream re-streams every edge per iteration; the "
                "high-diameter web graph multiplies that by its depth. "
                "GTS streams only nextPIDSet pages (with a 20% memory "
                "buffer here so all three hit storage).")
    for engine in engines:
        cells = []
        for name in datasets:
            outcome = _baseline_run(engine, algorithm, name)
            cells.append(format_cell(outcome))
        table.add_row(engine.name, cells)
    cells = []
    for name in datasets:
        db = dataset_database(name)
        outcome = _gts_algorithm_run(
            algorithm, name,
            mm_buffer_bytes=int(0.2 * db.topology_bytes()))
        cells.append(format_cell(outcome))
    table.add_row("GTS", cells)
    return table


def figure4_timelines(name="rmat27", num_streams=16):
    """Figure 4: actual timeline of copy operations for BFS and PageRank.

    Runs both algorithms with tracing enabled and renders the per-stream
    Gantt charts; the paper's observation is that "the timeline for
    PageRank is denser than that for BFS since PageRank is
    computationally intensive, whereas BFS is not".
    """
    table = ExperimentTable(
        "Figure 4: stream timelines (%s, %d streams)"
        % (name, num_streams),
        ["mean stream density", "copy-engine busy", "elapsed"])
    timelines = []
    for algorithm in ("BFS", "PageRank"):
        result = _gts_algorithm_run(
            algorithm, name, num_streams=num_streams, tracing=True,
            enable_caching=False)
        # Re-run bookkeeping: density comes from the rendered result.
        density = [line for line in result.timeline.splitlines()
                   if "stream[" in line]
        mean_density = (
            sum(float(line.rsplit("|", 1)[1].rstrip("% "))
                for line in density) / len(density) if density else 0.0)
        copy_line = next(line for line in result.timeline.splitlines()
                         if "copy engine" in line)
        copy_busy = float(copy_line.rsplit("|", 1)[1].rstrip("% "))
        table.add_row(algorithm, [
            "%.0f%%" % mean_density,
            "%.0f%%" % copy_busy,
            format_cell(result),
        ])
        timelines.append("--- %s ---\n%s" % (algorithm, result.timeline))
    table.caption = ("'#' marks copies, '=' kernel execution.\n\n"
                     + "\n\n".join(timelines))
    return table


FIGURE6_DATASETS = ["twitter", "uk2007", "yahooweb", "rmat28", "rmat29",
                    "rmat30", "rmat31", "rmat32"]


def figure6_distributed(algorithm="BFS", datasets=None):
    """Figure 6: GTS vs GraphX / Giraph / PowerGraph / Naiad."""
    datasets = datasets or FIGURE6_DATASETS
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    suffix = (" (PageRank x%d)" % PAGERANK_ITERATIONS
              if algorithm == "PageRank" else " (BFS)")
    return _comparison_figure(
        "Figure 6: GTS vs distributed engines" + suffix,
        _distributed_engines, datasets, algorithm,
        caption="Simulated seconds at 1/8192 scale; O.O.M. mirrors the "
                "paper's out-of-memory outcomes.  Only GTS reaches "
                "RMAT31/RMAT32.")


FIGURE7_DATASETS = ["twitter", "uk2007", "yahooweb", "rmat27", "rmat28",
                    "rmat29", "rmat30"]


def figure7_cpu(algorithm="BFS", datasets=None):
    """Figure 7: GTS vs MTGL / Galois / Ligra / Ligra+."""
    datasets = datasets or FIGURE7_DATASETS
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    suffix = (" (PageRank x%d)" % PAGERANK_ITERATIONS
              if algorithm == "PageRank" else " (BFS)")
    return _comparison_figure(
        "Figure 7: GTS vs CPU engines" + suffix,
        _cpu_engines, datasets, algorithm,
        caption="CPU engines go O.O.M. once both CSR directions exceed "
                "main memory (YahooWeb, RMAT29+), as in the paper.")


def figure8_gpu(algorithm="BFS", datasets=None):
    """Figure 8: GTS vs MapGraph / CuSha / TOTEM."""
    datasets = datasets or FIGURE7_DATASETS
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    suffix = (" (PageRank x%d)" % PAGERANK_ITERATIONS
              if algorithm == "PageRank" else " (BFS)")
    return _comparison_figure(
        "Figure 8: GTS vs GPU engines" + suffix,
        _gpu_engines, datasets, algorithm,
        caption="MapGraph/CuSha die on GPU memory early; TOTEM wins "
                "small PageRank, loses BFS and everything large.")


# ----------------------------------------------------------------------
# Figure 9: strategies x storage types
# ----------------------------------------------------------------------
def figure9_strategies(algorithm="BFS", name="rmat30"):
    """Figure 9: Strategy-P vs Strategy-S across storage types."""
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    db = dataset_database(name)
    kernel = _kernel(algorithm, db)
    storage_settings = [
        ("in-memory", dict(num_ssds=2, storage_spec=SSD_SPEC), None),
        ("2 SSDs", dict(num_ssds=2, storage_spec=SSD_SPEC), 0.2),
        ("1 SSD", dict(num_ssds=1, storage_spec=SSD_SPEC), 0.2),
        ("2 HDDs", dict(num_ssds=2, storage_spec=HDD_SPEC), 0.2),
    ]
    table = ExperimentTable(
        "Figure 9: strategies x storage types (%s, %s)" % (algorithm, name),
        [label for label, _, _ in storage_settings],
        caption="Storage rows cap the main-memory buffer at 20% of the "
                "graph to force storage I/O (the paper's RMAT31/32 "
                "buffer policy applied to RMAT30 for this sweep).")
    for strategy in ("performance", "scalability"):
        cells = []
        for _, machine_kwargs, buffer_fraction in storage_settings:
            machine = _machine(**machine_kwargs)
            mm_buffer = (None if buffer_fraction is None else
                         int(buffer_fraction * db.topology_bytes()))
            outcome = run_or_oom(
                _gts_run, kernel, name, machine=machine, strategy=strategy,
                mm_buffer_bytes=mm_buffer)
            cells.append(format_cell(outcome))
        table.add_row("Strategy-%s" % strategy[0].upper(), cells)
    return table


# ----------------------------------------------------------------------
# Figure 10: stream-count sweep
# ----------------------------------------------------------------------
def figure10_streams(algorithm="BFS", names=None,
                     stream_counts=(1, 2, 4, 8, 16, 32)):
    """Figure 10: elapsed time versus the number of GPU streams."""
    names = names or ["rmat26", "rmat27", "rmat28", "rmat29"]
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    table = ExperimentTable(
        "Figure 10: number of streams sweep (%s)" % algorithm,
        ["%d streams" % k for k in stream_counts],
        caption="Monotone improvement through 32 streams, as in the "
                "paper.")
    for name in names:
        # No reference to a dataset outlives its row, so the next one is
        # built after the last is freed (``dataset_database`` keeps one).
        table.add_row(name, [format_cell(run_or_oom(
            _gts_run, _kernel(algorithm, dataset_database(name)), name,
            num_streams=streams)) for streams in stream_counts])
    return table


# ----------------------------------------------------------------------
# Figure 11: cache-size sweep
# ----------------------------------------------------------------------
#: Paper cache sizes (MB) scaled by 8192 to bytes.
FIGURE11_CACHE_SIZES = tuple(
    int(mb * MB / SCALE_FACTOR) for mb in (32, 1024, 2048, 3072, 4096, 5120))


def figure11_cache(names=None, cache_sizes=FIGURE11_CACHE_SIZES):
    """Figure 11: BFS elapsed time and cache hit rate vs cache size."""
    names = names or ["rmat26", "rmat27", "rmat28", "rmat29"]
    columns = [format_bytes(size) for size in cache_sizes]
    elapsed_table = ExperimentTable(
        "Figure 11a: BFS elapsed time vs cache size", columns,
        caption="Cache sizes are the paper's 32-5120 MB scaled by 8192.")
    hit_table = ExperimentTable(
        "Figure 11b: cache hit rate vs cache size", columns,
        caption="Hit rate grows with cache size and shrinks with "
                "topology size, tracking the paper's B/(S+L) estimate.")
    for name in names:
        db = dataset_database(name)
        elapsed_cells = []
        hit_cells = []
        for size in cache_sizes:
            outcome = run_or_oom(_gts_run, make_kernel("bfs", {}, db),
                                 name, cache_bytes=size)
            elapsed_cells.append(format_cell(outcome))
            if isinstance(outcome, str):
                hit_cells.append(outcome)
            else:
                hit_cells.append("%.1f%%" % (100 * outcome.cache_hit_rate))
        elapsed_table.add_row(name, elapsed_cells)
        hit_table.add_row(name, hit_cells)
    return elapsed_table, hit_table


# ----------------------------------------------------------------------
# Figure 13: additional algorithms (SSSP, CC, BC)
# ----------------------------------------------------------------------
def figure13_algorithms(part="SSSP"):
    """Figure 13: SSSP and CC vs all engines; BC vs TOTEM."""
    part = _label(part, ("SSSP", "CC", "BC"))
    if part in ("SSSP", "CC"):
        datasets = ["twitter", "rmat28"]
        def engines():
            return _distributed_engines() + [_gpu_engines()[-1]]
        return _comparison_figure(
            "Figure 13: %s comparison" % part, engines, datasets, part,
            caption="GTS significantly outperforms the distributed "
                    "engines and TOTEM for %s, as in the paper." % part)
    datasets = ["twitter", "rmat27", "rmat28"]
    def engines():
        return [_gpu_engines()[-1]]
    return _comparison_figure(
        "Figure 13: BC comparison (single source)", engines, datasets,
        "BC",
        caption="Paper compares TOTEM and GTS only (single-node "
                "mode); one Brandes source from the busiest vertex.")


# ----------------------------------------------------------------------
# Figure 14: micro-level technique x density
# ----------------------------------------------------------------------
def figure14_micro(algorithm="BFS", densities=(4, 8, 16, 32),
                   rmat_scale=15, seed=28):
    """Figure 14: vertex-/edge-centric/hybrid across graph density."""
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    table = ExperimentTable(
        "Figure 14: micro-level techniques vs density (%s, RMAT28 scale)"
        % algorithm,
        ["1:%d" % d for d in densities],
        caption="Vertex-centric collapses as density grows; hybrid "
                "tracks the better of the two per page.")
    spec = dataset_spec("rmat28")
    machine = _machine()
    cells_by_technique = {"vertex": [], "edge": [], "hybrid": []}
    for density in densities:
        graph = generate_rmat(rmat_scale, edge_factor=density, seed=seed)
        db = build_database(graph, spec.format_config(),
                            name="rmat%d-1:%d" % (rmat_scale, density))
        for technique in cells_by_technique:
            outcome = run_or_oom(
                _gts_run, _kernel(algorithm, db), db.name, dataset=db,
                machine=machine, micro_technique=technique)
            cells_by_technique[technique].append(format_cell(outcome))
    for technique, cells in cells_by_technique.items():
        table.add_row("%s-centric" % technique if technique != "hybrid"
                      else "hybrid", cells)
    return table


# ----------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ----------------------------------------------------------------------
def ablation_caching(names=None):
    """Ablation A1: the Section 3.3 page cache on vs off (BFS)."""
    names = names or ["rmat26", "rmat27", "rmat28", "rmat29"]
    table = ExperimentTable(
        "Ablation: GPU page cache on vs off (BFS)",
        names,
        caption="Caching removes repeat PCI-E copies of revisited pages.")
    for label, enabled in (("cache on", True), ("cache off", False)):
        cells = []
        for name in names:
            kernel = make_kernel("bfs", {}, dataset_database(name))
            outcome = run_or_oom(_gts_run, kernel, name,
                                 enable_caching=enabled)
            cells.append(format_cell(outcome))
        table.add_row(label, cells)
    return table


def ablation_gpu_scaling(name="rmat29", gpu_counts=(1, 2, 4),
                         algorithm="PageRank"):
    """Ablation A2: speedup vs GPU count under both strategies.

    Section 4's claim: Strategy-P speeds up with added GPUs, Strategy-S
    stays flat (it buys capacity, not speed).
    """
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    table = ExperimentTable(
        "Ablation: GPU-count scaling (%s, %s)" % (algorithm, name),
        ["%d GPU(s)" % n for n in gpu_counts],
        caption="Strategy-P divides the page stream; Strategy-S "
                "replicates it.")
    db = dataset_database(name)
    for strategy in ("performance", "scalability"):
        cells = []
        for gpus in gpu_counts:
            machine = _machine(num_gpus=gpus)
            outcome = run_or_oom(_gts_run, _kernel(algorithm, db), name,
                                 machine=machine, strategy=strategy)
            cells.append(format_cell(outcome))
        table.add_row("Strategy-%s" % strategy[0].upper(), cells)
    return table


def ablation_ssd_scaling(name="rmat30", ssd_counts=(1, 2, 4),
                         algorithm="PageRank"):
    """Ablation A5: speedup versus the number of SSDs.

    Section 4.1: GTS stripes pages over SSDs with ``g(j)`` and "shows a
    stable speedup when adding ... an SSD to the machine" as long as the
    run is I/O-bound.  The main-memory buffer is capped at 20 % so
    storage stays on the critical path.
    """
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    db = dataset_database(name)
    table = ExperimentTable(
        "Ablation: SSD-count scaling (%s, %s)" % (algorithm, name),
        ["%d SSD(s)" % n for n in ssd_counts],
        caption="Striping g(j) = j mod #SSDs multiplies aggregate fetch "
                "bandwidth until PCI-E becomes the bottleneck.")
    cells = []
    for ssds in ssd_counts:
        machine = _machine(num_ssds=ssds)
        outcome = run_or_oom(
            _gts_run, _kernel(algorithm, db), name, machine=machine,
            mm_buffer_bytes=int(0.2 * db.topology_bytes()))
        cells.append(format_cell(outcome))
    table.add_row("GTS", cells)
    return table


def ablation_buffering(name="rmat31", fractions=(0.05, 0.2, 0.5, 1.0),
                       algorithm="PageRank"):
    """Ablation A3: main-memory page-buffer size on an SSD-resident graph.

    Section 7.5 credits measured times beating the naive bandwidth
    arithmetic to "the page buffering mechanism"; this sweep quantifies
    it.
    """
    algorithm = _label(algorithm, BFS_OR_PAGERANK)
    db = dataset_database(name)
    table = ExperimentTable(
        "Ablation: main-memory buffer size (%s, %s)" % (algorithm, name),
        ["%d%% of graph" % round(100 * f) for f in fractions],
        caption="Larger buffers intercept more repeat SSD reads.")
    cells = []
    for fraction in fractions:
        outcome = run_or_oom(
            _gts_run, _kernel(algorithm, db), name,
            mm_buffer_bytes=int(fraction * db.topology_bytes()))
        cells.append(format_cell(outcome))
    table.add_row("GTS", cells)
    return table


def ablation_cache_policies(name="rmat27", cache_pages=(16, 64, 256)):
    """Ablation A4: cache replacement policies under memory pressure.

    Section 3.3: "GTS basically adopts the LRU algorithm ... but other
    algorithms can be used as well."  This sweep compares LRU against
    FIFO, CLOCK and a pinned (scan-resistant) policy at cache sizes well
    below the BFS working set.
    """
    db = dataset_database(name)
    table = ExperimentTable(
        "Ablation: cache replacement policies (BFS, %s)" % name,
        ["%d pages" % pages for pages in cache_pages],
        caption="Cells show elapsed time with the measured hit rate; the "
                "paper's LRU choice is one of several workable policies.")
    for policy in ("lru", "fifo", "clock", "pin"):
        cells = []
        for pages in cache_pages:
            outcome = _gts_run(
                make_kernel("bfs", {}, db), name,
                cache_bytes=pages * db.config.page_size,
                cache_policy=policy)
            cells.append("%s (%.0f%%)" % (
                format_cell(outcome), 100 * outcome.cache_hit_rate))
        table.add_row(policy.upper(), cells)
    return table


def extended_algorithms(names=("twitter", "rmat27", "rmat28")):
    """Extension: the rest of Section 3.3's algorithm list through GTS.

    The paper demonstrates GTS's adaptability with SSSP/CC/BC
    (Appendix D); this table extends the demonstration to the other
    algorithms its Section 3.3 taxonomy names: k-hop neighborhood,
    K-core, cross-edges, egonet and radius estimation.
    """
    from repro.core import (
        CrossEdgesKernel,
        EgonetKernel,
        KCoreKernel,
        NeighborhoodKernel,
        RadiusKernel,
    )
    table = ExperimentTable(
        "Extended algorithms through the GTS engine",
        list(names),
        caption="Traversal algorithms stream nextPIDSet pages only; "
                "scan algorithms stream the whole topology per round.")
    rows = [
        ("Neighborhood (2-hop)", "traversal",
         lambda graph, start: NeighborhoodKernel(start, hops=2), False),
        ("K-core (k=8)", "traversal",
         lambda graph, start: KCoreKernel(k=8), True),
        ("Egonet", "traversal",
         lambda graph, start: EgonetKernel(start), False),
        ("CrossEdges (4 parts)", "scan",
         lambda graph, start: CrossEdgesKernel(
             np.arange(graph.num_vertices) % 4), False),
        ("Radius (8 sketches)", "scan",
         lambda graph, start: RadiusKernel(num_sketches=8, max_hops=8),
         True),
    ]
    for label, _, factory, symmetrised in rows:
        cells = []
        for name in names:
            graph = dataset_graph(name, symmetrised=symmetrised)
            start = default_start_vertex(graph)
            outcome = run_or_oom(
                _gts_run, factory(graph, start), name,
                symmetrised=symmetrised)
            cells.append(format_cell(outcome))
        table.add_row(label, cells)
    return table


def naive_hit_rate_check(names=None, cache_pages=(8, 32, 128)):
    """Compare measured LRU hit rates against the paper's B/(S+L)."""
    names = names or ["rmat26", "rmat27"]
    table = ExperimentTable(
        "Cache model check: measured LRU vs naive B/(S+L)",
        ["%d pages (measured)" % b for b in cache_pages]
        + ["%d pages (naive)" % b for b in cache_pages])
    for name in names:
        db = dataset_database(name)
        measured = []
        naive = []
        for pages in cache_pages:
            outcome = _gts_run(make_kernel("bfs", {}, db), name,
                               cache_bytes=pages * db.config.page_size)
            measured.append("%.1f%%" % (100 * outcome.cache_hit_rate))
            naive.append("%.1f%%" % (100 * PageCache.naive_hit_rate(
                pages, db.num_pages)))
        table.add_row(name, measured + naive)
    return table


def cost_model_drift_report(names=None, algorithms=("BFS", "PageRank"),
                            num_streams=32):
    """Cost-model drift report: DES elapsed vs the Section 5 equations.

    Runs each algorithm with the page cache off and the stream count at
    the concurrency knee (32), the regime where Eq. 1 / Eq. 2 describe
    the pipeline directly, and tabulates the signed drift.  The test
    suite bounds these cells below 20 %; a scheduler regression that
    serializes copies against kernels shows up here first.
    """
    from repro.obs import cost_model_drift

    names = names or ["rmat26", "rmat27"]
    table = ExperimentTable(
        "Cost-model drift: simulated vs Eq.1/Eq.2 prediction",
        names,
        caption="Signed drift (positive = DES slower than the model); "
                "cache off, %d streams." % num_streams)
    for algorithm in algorithms:
        algorithm = _label(algorithm, BFS_OR_PAGERANK)
        cells = []
        for name in names:
            db = dataset_database(name)
            machine = _machine()
            kernel = _kernel(algorithm, db)
            engine = GTSEngine(db, machine, num_streams=num_streams,
                               enable_caching=False)
            result = engine.run(kernel, dataset_name=name)
            report = cost_model_drift(result, db, machine, kernel)
            cells.append("%+.1f%%" % (100 * report.drift))
        table.add_row(algorithm, cells)
    return table
