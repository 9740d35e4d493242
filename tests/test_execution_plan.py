"""Unit tests for the vectorized execution plan and its satellites.

Covers the :mod:`repro.core.plan` arrays (global scatter index, batch
gathering, the segment reduce, the topology-version plan cache), the
steady-state cache shortcut, the vectorized large-page-run index, and
the rejection of the removed ``execution`` knob on the engine and the
CLI.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core import (
    BFSKernel,
    DegreeKernel,
    GTSEngine,
    KCoreKernel,
    PageRankKernel,
    SSSPKernel,
)
from repro.core.cache import PageCache
from repro.core.kernels import Kernel, KernelContext
from repro.core.plan import (
    PagePlan,
    RoundBatch,
    RoundPlanCache,
    segment_sum,
    take_ranges,
)
from repro.core.result import RoundStats
from repro.core.strategies import make_strategy
from repro.core.streams import StreamScheduler
from repro.errors import ConfigurationError, ServiceError, SimulationError
from repro.format import PageFormatConfig, build_database
from repro.graphgen import Graph, generate_rmat
from repro.hardware.machine import MachineRuntime
from repro.hardware.specs import scaled_workstation
from repro.obs.events import TraceRecorder
from repro.service import QueryRequest


@pytest.fixture
def db():
    graph = generate_rmat(8, edge_factor=8, seed=11)
    return build_database(graph, PageFormatConfig(2, 2, 1024))


@pytest.fixture
def machine():
    return scaled_workstation(num_gpus=2, num_ssds=2)


@pytest.fixture
def lp_db():
    """A weighted heavy-tailed R-MAT on 512-byte pages: many large-page
    runs (interleaved with small pages in pid order), degree-0 records."""
    graph = generate_rmat(9, edge_factor=12, seed=4).with_random_weights(
        seed=4)
    return build_database(graph, PageFormatConfig(2, 2, 512,
                                                  weight_bytes=4))


@pytest.fixture(params=["db", "lp_db"])
def any_db(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="module")
def lp_plan():
    """``lp_db``'s database and plan, built once for the hypothesis
    property (which cannot take function-scoped fixtures); read-only."""
    graph = generate_rmat(9, edge_factor=12, seed=4).with_random_weights(
        seed=4)
    database = build_database(graph, PageFormatConfig(2, 2, 512,
                                                      weight_bytes=4))
    return database, PagePlan(database)


@pytest.fixture(scope="module")
def doubled_plan():
    """An R-MAT with every edge doubled, on 512-byte pages: each
    ``(page, target)`` segment holds at least two edges; read-only."""
    sources, targets = generate_rmat(8, edge_factor=8, seed=5).edge_list()
    database = build_database(
        Graph.from_edges(256, np.repeat(sources, 2), np.repeat(targets, 2)),
        PageFormatConfig(2, 2, 512))
    return database, PagePlan(database)


def sorted_scatter_index(adj_vids):
    """One page's reference scatter index: the stable argsort of its
    adjacency targets, the distinct targets, and where each target's
    segment starts in the sorted order."""
    order = np.argsort(adj_vids, kind="stable")
    targets, starts = np.unique(adj_vids[order], return_index=True)
    return order, targets, starts


#: Lazy RoundBatch fields by the space that delimits them.
RECORD_FIELDS = ("degrees", "rec_vids", "rec_divisor")
EDGE_FIELDS = ("adj_vids", "adj_pids", "adj_weights")
SEGMENT_FIELDS = ("seg_targets",)
LAZY_FIELDS = (("rec_divisor", "edge_indptr", "edge_rec", "scatter_order",
                "seg_starts", "seg_indptr")
               + EDGE_FIELDS + SEGMENT_FIELDS)
#: Lazy Frontier fields (what ``advance`` used to return eagerly).
FRONTIER_FIELDS = ("sources", "targets", "target_pids", "weights")


def _page_fields(batch, k):
    """Every field of ``batch``'s ``k``-th page, indexes made
    page-local so two batches holding the page at different offsets
    compare equal."""
    rlo, rhi = batch.rec_indptr[k], batch.rec_indptr[k + 1]
    elo, ehi = batch.edge_indptr[k], batch.edge_indptr[k + 1]
    slo, shi = batch.seg_indptr[k], batch.seg_indptr[k + 1]
    fields = {name: getattr(batch, name)[rlo:rhi]
              for name in RECORD_FIELDS}
    for name in EDGE_FIELDS:
        array = getattr(batch, name)
        fields[name] = None if array is None else array[elo:ehi]
    for name in SEGMENT_FIELDS:
        fields[name] = getattr(batch, name)[slo:shi]
    fields["edge_rec"] = batch.edge_rec[elo:ehi] - rlo
    fields["scatter_order"] = batch.scatter_order[elo:ehi] - elo
    fields["seg_starts"] = batch.seg_starts[slo:shi] - elo
    return fields


def _identity_batch(plan):
    """Every page in pid order: the batch that is the plan's own
    arrays."""
    return RoundBatch(plan, np.arange(plan.num_pages, dtype=np.int64))


def _assert_pages_match(batch, full):
    """Each page of ``batch`` equals the same page sliced out of the
    identity batch, dtype for dtype."""
    for k, pid in enumerate(batch.pids.tolist()):
        want = _page_fields(full, pid)
        for name, got in _page_fields(batch, k).items():
            if want[name] is None:
                assert got is None, name
                continue
            assert got.dtype == want[name].dtype, (pid, name)
            np.testing.assert_array_equal(got, want[name],
                                          err_msg=str((pid, name)))


def _segment_edges(batch):
    """How many edges each of ``batch``'s segments holds."""
    return np.diff(batch.seg_starts, append=batch.num_edges)


def _sp_first(db, pids):
    """``pids`` in the engine's dispatch order: small pages, then large."""
    pids = np.unique(np.asarray(pids, dtype=np.int64))
    is_large = db.rvt.lp_ranges[pids] >= 0
    return np.concatenate([pids[~is_large], pids[is_large]])


class TestPlanArrays:
    def test_global_scatter_matches_per_page(self, db):
        """The combined-key argsort must equal the concatenation of the
        per-page stable scatter argsorts, bit for bit."""
        plan = PagePlan(db)
        for pid in range(db.num_pages):
            page = db.page(pid)
            order, targets, starts = sorted_scatter_index(page.adj_vids)
            lo, hi = plan.edge_indptr[pid], plan.edge_indptr[pid + 1]
            slo, shi = plan.seg_indptr[pid], plan.seg_indptr[pid + 1]
            np.testing.assert_array_equal(plan.order_local[lo:hi], order)
            np.testing.assert_array_equal(
                plan.seg_starts_local[slo:shi], starts)
            np.testing.assert_array_equal(
                plan.seg_targets[slo:shi], targets)

    def test_overflow_fallback_matches_combined_key(self, db):
        """The per-page fallback (combined key would overflow int64)
        builds the same arrays as the vectorized path."""
        fast = PagePlan(db)
        slow = PagePlan.__new__(PagePlan)
        slow.__dict__.update(fast.__dict__)

        class HugeV:
            num_vertices = 1 << 60
            num_pages = db.num_pages

        slow.num_pages = db.num_pages
        slow._build_scatter(HugeV)
        for name in ("order_local", "seg_starts_local", "seg_targets",
                     "seg_counts", "seg_indptr"):
            np.testing.assert_array_equal(getattr(slow, name),
                                          getattr(fast, name), err_msg=name)

    def test_full_batch_equals_explicit_gather(self, db, lp_db):
        """The zero-copy identity batch must agree with a forced gather
        of every page (a batch over a permutation of all of them)."""
        for database in (db, lp_db):
            plan = PagePlan(database)
            identity = _identity_batch(plan)
            assert identity.adj_vids is plan.adj_vids
            assert identity.seg_targets is plan.seg_targets
            shuffled = np.random.default_rng(0).permutation(plan.num_pages)
            gathered = RoundBatch(plan, shuffled.astype(np.int64))
            assert gathered.adj_vids is not plan.adj_vids
            _assert_pages_match(gathered, identity)
            # The SP-first full batch is the identity one exactly when
            # the builder numbered every small page before the large.
            full = plan.full_batch()
            _assert_pages_match(full, identity)
            assert plan.round_batch(full.pids) is full

    def test_lazy_fields_equal_full_batch_page_by_page(self, any_db):
        """Every lazy field of a partial batch is that field of the
        full batch, page by page, whichever order they are first read
        in."""
        plan = PagePlan(any_db)
        full = _identity_batch(plan)
        rng = np.random.default_rng(1)
        for size in (1, 3, plan.num_pages // 2, plan.num_pages - 1):
            pids = _sp_first(any_db, rng.choice(plan.num_pages, size=size,
                                                replace=False))
            batch = plan.round_batch(pids)
            assert not set(LAZY_FIELDS) & set(vars(batch))
            for name in rng.permutation(LAZY_FIELDS):
                getattr(batch, name)
            _assert_pages_match(batch, full)
            assert batch.num_edges == len(batch.adj_vids)
            assert batch.num_segments == len(batch.seg_targets)

    @pytest.mark.parametrize("frontier",
                             ["none", "all", "random", "large-pages-only"])
    def test_advance_equals_masked_edge_space(self, any_db, frontier):
        """Every lazy field of the ``Frontier`` is what the mask-expand
        idiom read — ``active[edge_rec]`` over the page-wide edge space
        — without building that space; ``filter(m)`` is every field
        ``[m]``; ``from_sources(v)`` is ``v[sources]`` bit for bit."""
        plan = PagePlan(any_db)
        rng = np.random.default_rng(2)
        subset = _sp_first(any_db, rng.choice(
            plan.num_pages, size=plan.num_pages // 2, replace=False))
        vectors = [rng.integers(-5, 5, any_db.num_vertices).astype(np.int32),
                   rng.random(any_db.num_vertices).astype(np.float32),
                   rng.random(any_db.num_vertices)]
        for pids in (subset, plan.full_batch().pids):
            batch = plan.round_batch(pids)
            if frontier == "none":
                active = np.zeros(batch.num_records, dtype=bool)
            elif frontier == "all":
                active = np.ones(batch.num_records, dtype=bool)
            elif frontier == "random":
                active = rng.random(batch.num_records) < 0.3
            else:
                active = np.repeat(any_db.rvt.lp_ranges[batch.pids] >= 0,
                                   batch.records_per_page())
            got = batch.advance(active)
            assert not set(FRONTIER_FIELDS) & set(vars(got))
            got_per_page = batch.active_edges_per_page(active)
            keep = rng.random(len(got.edges)) < 0.4
            kept = got.filter(keep)
            for name in rng.permutation(FRONTIER_FIELDS):
                getattr(kept, name), getattr(got, name)
            if len(pids) < plan.num_pages:
                assert not set(LAZY_FIELDS) & set(vars(batch))
            m = active[batch.edge_rec]
            want = {"sources": batch.rec_vids[batch.edge_rec[m]],
                    "targets": batch.adj_vids[m],
                    "target_pids": batch.adj_pids[m],
                    "weights": (None if batch.adj_weights is None
                                else batch.adj_weights[m])}
            assert len(got.edges) == int(m.sum())
            assert len(kept.edges) == int(keep.sum())
            for name, want_array in want.items():
                if want_array is None:
                    assert getattr(got, name) is None
                    assert getattr(kept, name) is None
                    continue
                for view, expect in ((got, want_array),
                                     (kept, want_array[keep])):
                    assert getattr(view, name).dtype == expect.dtype, name
                    np.testing.assert_array_equal(getattr(view, name),
                                                  expect, err_msg=name)
            for vector in vectors:
                for view in (got, kept, kept.filter(
                        rng.random(len(kept.edges)) < 0.5)):
                    read = view.from_sources(vector)
                    assert read.dtype == vector.dtype
                    assert (read.tobytes()
                            == vector[view.sources].tobytes())
            want_per_page = batch.edge_segment_sum(m)
            assert got_per_page.dtype == want_per_page.dtype
            np.testing.assert_array_equal(got_per_page, want_per_page)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_frontier_pages_equal_unique_of_masked_target_pids(
            self, lp_plan, data):
        """``pages(mask)`` is ``np.unique(target_pids[mask])`` — same
        values, same order, same dtype — for empty, all-duplicate and
        large-page ids alike."""
        db, plan = lp_plan
        is_large = db.rvt.lp_ranges >= 0
        pids = _sp_first(db, data.draw(st.lists(
            st.integers(0, plan.num_pages - 1), max_size=12)))
        batch = plan.round_batch(pids)
        shape = data.draw(st.sampled_from(
            ["random", "none", "all", "one-page", "large-only"]))
        draw = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        frontier = batch.advance(draw.random(batch.num_records) < 0.6)
        if shape == "random":
            mask = draw.random(len(frontier.edges)) < 0.5
        elif shape == "none":
            mask = np.zeros(len(frontier.edges), dtype=bool)
        elif shape == "all":
            mask = None
        elif shape == "one-page" and len(frontier.edges):
            mask = frontier.target_pids == frontier.target_pids[0]
        else:
            mask = is_large[frontier.target_pids]
        want = np.unique(frontier.target_pids if mask is None
                         else frontier.target_pids[mask])
        for got in (frontier.pages(mask),
                    (frontier if mask is None
                     else frontier.filter(mask)).pages()):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_frontier_kernel_gathers_no_edge_or_scatter_space(self,
                                                              any_db,
                                                              monkeypatch):
        """A frontier round reads the record space and advances, and
        reads off the frontier only what its body uses; a regression to
        eager gathering shows up here, not only in a benchmark."""
        plan = PagePlan(any_db)
        start = int(np.argmax(any_db.out_degrees))
        frontiers = []
        advance = RoundBatch.advance
        monkeypatch.setattr(
            RoundBatch, "advance",
            lambda batch, active: frontiers.append(
                advance(batch, active)) or frontiers[-1])
        pids = _sp_first(any_db, [any_db.page_for_vertex(start), 0, 1])
        for kernel, unread in (
                (BFSKernel(start_vertex=start), {"sources", "weights"}),
                (KCoreKernel(k=int(any_db.out_degrees.max()) + 1),
                 {"sources", "target_pids", "weights"})):
            state = kernel.init_state(any_db)
            batch = plan.round_batch(pids)
            work = kernel.process_batch(batch, state,
                                        KernelContext(any_db))
            assert work.edges_traversed.sum() > 0
            assert not set(LAZY_FIELDS) & set(vars(batch))
            assert not {"_edge_sel", "_seg_sel", "_reduce_index"} & set(
                vars(batch))
            frontier = frontiers.pop()
            assert not frontiers
            assert "targets" in vars(frontier)
            assert not unread & set(vars(frontier)), kernel.name
            # BFS filters before it gathers: the visited targets' page
            # ids are never read.
            assert "target_pids" not in vars(frontier)

    @pytest.mark.parametrize("kernel_cls", [BFSKernel, SSSPKernel])
    def test_batched_traversal_sorts_no_edge_length_array(
            self, any_db, machine, kernel_cls, monkeypatch):
        """nextPIDSet is a bitmap from the kernel to the barrier: a
        run hands ``np.unique`` / ``np.isin`` nothing longer
        than the page count."""
        longest = {"np.unique": 0, "np.isin": 0}

        def watched(name, function):
            def wrapper(array, *args, **kwargs):
                longest[name] = max(longest[name], np.size(array))
                return function(array, *args, **kwargs)
            return wrapper

        engine = GTSEngine(any_db, machine)
        start = int(np.argmax(any_db.out_degrees))
        monkeypatch.setattr(np, "unique", watched("np.unique", np.unique))
        monkeypatch.setattr(np, "isin", watched("np.isin", np.isin))
        result = engine.run(kernel_cls(start_vertex=start))
        assert result.num_rounds > 2
        assert result.edges_traversed > any_db.num_pages
        assert max(longest.values()) <= any_db.num_pages, longest

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reduce_into_is_the_reference_segment_reduce(
            self, lp_plan, doubled_plan, data):
        """``reduce_into(ufunc, out, per_record)`` is byte-equal to the
        edge-length reference ``ufunc.at(out, seg_targets, ufunc.reduceat(
        per_record[edge_rec][scatter_order], seg_starts))`` -- float
        ``add`` across 16 decades (a reassociation shows), int64
        ``minimum``, 2-D uint32 ``bitwise_or`` -- on the full batch,
        SP-first partial batches mixing small and large pages, batches
        with no or only multi-edge segments, and an empty batch;
        ``reduceat`` runs over the multi-edge segments alone."""
        shape = data.draw(st.sampled_from(
            ["full", "partial", "one-edge", "multi-edge", "empty"]))
        db, plan = doubled_plan if shape == "multi-edge" else lp_plan
        draw = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        pids = draw.choice(plan.num_pages, size=draw.integers(
            1, plan.num_pages), replace=False)
        if shape == "full":
            pids = np.arange(plan.num_pages)
        elif shape == "one-edge":
            identity = _identity_batch(plan)
            multi = segment_sum(_segment_edges(identity) > 1,
                                identity.seg_indptr)
            pids = np.flatnonzero((multi == 0) & (plan.seg_counts > 0))
        elif shape == "empty":
            pids = []
        batch = plan.round_batch(_sp_first(db, pids))
        ufunc, values = data.draw(st.sampled_from([
            (np.add, lambda n: draw.choice([-1.0, 1.0], n)
             * 10.0 ** draw.uniform(-8, 8, n)),
            (np.minimum, lambda n: draw.integers(-10 ** 6, 10 ** 6, n)),
            (np.bitwise_or, lambda n: np.uint32(1) << draw.integers(
                0, 32, (n, 3)).astype(np.uint32))]))
        per_record, out = values(batch.num_records), values(db.num_vertices)
        want = out.copy()
        ufunc.at(want, batch.seg_targets, ufunc.reduceat(
            per_record[batch.edge_rec][batch.scatter_order],
            batch.seg_starts))
        batch.reduce_into(ufunc, out, per_record)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        multi = np.count_nonzero(_segment_edges(batch) > 1)
        assert len(batch._reduce_index[2]) == multi
        if shape == "one-edge":
            assert multi == 0 < batch.num_segments
        elif shape == "multi-edge":
            assert multi == batch.num_segments

    def test_only_a_full_scan_builds_the_reduce_index(self, lp_db, machine,
                                                      monkeypatch):
        """The reduce index is built by the first ``reduce_into``, not
        with the plan: BFS and SSSP on a fresh plan never build it (a
        traversal cold start does not pay for it), and PageRank(10)
        builds it once, on the full batch its rounds share."""
        batches = []
        init = RoundBatch.__init__
        monkeypatch.setattr(RoundBatch, "__init__",
                            lambda batch, plan, pids: batches.append(batch)
                            or init(batch, plan, pids))
        start = int(np.argmax(lp_db.out_degrees))
        for kernel, builds in ((BFSKernel(start_vertex=start), 0),
                               (SSSPKernel(start_vertex=start), 0),
                               (PageRankKernel(iterations=10), 1)):
            batches.clear()
            assert GTSEngine(lp_db, machine).run(kernel).num_rounds > 2
            assert sum("_reduce_index" in vars(batch)
                       for batch in batches) == builds, kernel.name

    def test_dropped_plan_is_freed_without_the_cyclic_collector(self, db):
        """The plan memoises its full batch and the batch reads the
        plan; were both references strong, every dropped plan (one per
        commit under live updates) would sit in memory until a
        collection — measured as 4x peak RSS on the service workload."""
        import gc
        import weakref

        plan = PagePlan(db)
        plan.full_batch()._reduce_index
        dropped = weakref.ref(plan)
        gc.disable()
        try:
            del plan
            assert dropped() is None
        finally:
            gc.enable()

    def test_round_batch_subset(self, db):
        plan = PagePlan(db)
        pids = np.asarray([0, 2, 3], dtype=np.int64)
        batch = plan.round_batch(pids)
        assert batch.num_pages == 3
        offset = 0
        for k, pid in enumerate(pids):
            page = db.page(int(pid))
            lo, hi = batch.rec_indptr[k], batch.rec_indptr[k + 1]
            np.testing.assert_array_equal(batch.rec_vids[lo:hi],
                                          page.vids())
            np.testing.assert_array_equal(batch.degrees[lo:hi],
                                          page.degrees())
            elo, ehi = batch.edge_indptr[k], batch.edge_indptr[k + 1]
            np.testing.assert_array_equal(batch.adj_vids[elo:ehi],
                                          page.adj_vids)
            offset += page.num_records
        assert batch.num_records == offset

    def test_take_ranges_and_segment_sum(self):
        np.testing.assert_array_equal(
            take_ranges([5, 0], [3, 2]), [5, 6, 7, 0, 1])
        assert len(take_ranges([], [])) == 0
        np.testing.assert_array_equal(
            segment_sum(np.asarray([1, 2, 3, 4]),
                        np.asarray([0, 2, 2, 4])),
            [3, 0, 7])

    def test_copy_bytes_cached_per_ra_width(self, db):
        plan = PagePlan(db)
        first = plan.copy_bytes(4)
        assert plan.copy_bytes(4) is first
        expected = np.asarray([db.page_bytes(pid) +
                               db.ra_subvector_bytes(pid, 4)
                               for pid in range(db.num_pages)])
        np.testing.assert_array_equal(first, expected)


class TestRoundPlanCache:
    def test_rebuilds_on_topology_version_bump(self, db):
        cache = RoundPlanCache()
        first = cache.get(db)
        assert cache.get(db) is first
        assert (cache.builds, cache.hits) == (1, 1)
        db.topology_version += 1
        second = cache.get(db)
        assert second is not first
        assert second.topology_version == db.topology_version
        assert cache.builds == 2

    def test_invalidate_forces_rebuild(self, db):
        cache = RoundPlanCache()
        first = cache.get(db)
        cache.invalidate()
        assert cache.get(db) is not first

    def test_hit_count_is_exact_under_threads(self, db):
        """Warm getters take no lock, and still none of their hits is
        lost: ``N`` threads x ``M`` gets on a built plan count ``N*M``."""
        cache = RoundPlanCache()
        plan = cache.get(db)
        num_threads, gets = 8, 2000
        barrier = threading.Barrier(num_threads)
        strays = []

        def reader():
            barrier.wait(timeout=30)
            for _ in range(gets):
                if cache.get(db) is not plan:
                    strays.append(1)

        threads = [threading.Thread(target=reader)
                   for _ in range(num_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not strays
        assert cache.builds == 1
        assert cache.hits == num_threads * gets
        assert cache.hits == num_threads * gets  # reading is not a hit
        assert cache.stats()["hits"] == num_threads * gets


class TestCacheSteadyStateShortcut:
    def _replay(self, policy, rounds, capacity=4, shortcut=False):
        cache = PageCache(capacity, policy=policy)
        results = []
        for pids in rounds:
            results.append(
                cache.resolve_round(list(pids), assume_distinct=shortcut))
        return cache, results

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_matches_generic_replay(self, policy):
        rounds = [list(range(10))] * 4 + [list(range(3, 13))]
        slow_cache, slow = self._replay(policy, rounds, shortcut=False)
        fast_cache, fast = self._replay(policy, rounds, shortcut=True)
        assert slow == fast
        assert slow_cache.hits == fast_cache.hits
        assert slow_cache.misses == fast_cache.misses
        assert list(slow_cache._pages) == list(fast_cache._pages)

    def test_not_taken_when_round_fits(self):
        cache = PageCache(16, policy="lru")
        first = cache.resolve_round(list(range(8)), assume_distinct=True)
        second = cache.resolve_round(list(range(8)), assume_distinct=True)
        assert first == [False] * 8
        assert second == [True] * 8


class TestLargePageRunIndex:
    def test_matches_bruteforce(self, machine):
        # Heavy-tailed RMAT with a small page size yields many LP runs.
        graph = generate_rmat(9, edge_factor=12, seed=4)
        db = build_database(graph, PageFormatConfig(2, 2, 512))
        engine = GTSEngine(db, machine)
        lp = np.asarray(db.large_page_ids(), dtype=np.int64)
        assert len(lp) > 0
        expected = {}
        for pid in lp.tolist():
            first = pid - int(db.rvt.lp_ranges[pid])
            expected.setdefault(first, []).append(pid)
        firsts, lengths = engine._lp_runs
        assert firsts.tolist() == sorted(expected)
        assert lengths.tolist() == [len(expected[f]) for f in sorted(expected)]
        # Any chunk of a run names the whole run; duplicates and order
        # in the request do not matter.
        rng = np.random.default_rng(0)
        asked = rng.choice(db.num_pages, size=db.num_pages // 3)
        small, large = engine._expand_pids(asked)
        want_large = sorted({p for pid in asked.tolist()
                             if db.rvt.lp_ranges[pid] >= 0
                             for p in expected[
                                 pid - int(db.rvt.lp_ranges[pid])]})
        assert large.tolist() == want_large
        assert small.tolist() == sorted(
            {pid for pid in asked.tolist() if db.rvt.lp_ranges[pid] < 0})
        assert small.dtype == large.dtype == np.int64


def _per_call_round(scheduler, pids, assignments, copy_bytes, lane_steps,
                    cycles, caches, wa_ready, start, stats):
    """The reference ``dispatch_round`` (same arguments) must equal:
    page-major, GPU inner, one public dispatch call per booking, a page
    made ready from the scalar buffer / storage primitives when its
    first miss is reached."""
    runtime = scheduler.runtime
    ready = {}
    for j, pid in enumerate(pids):
        nbytes, steps = int(copy_bytes[j]), float(lane_steps[j])
        for g in assignments[j]:
            early = max(start, wa_ready[g])
            if caches[g].resolve_round([pid], ts=early)[0]:
                stats.pages_from_cache += 1
                scheduler.dispatch_cached(g, early, steps, cycles)
                continue
            if pid not in ready and runtime.mm_buffer.lookup(pid, ts=start):
                stats.pages_from_buffer += 1
                ready[pid] = start
            elif pid not in ready:
                stats.pages_from_storage += 1
                ready[pid] = runtime.storage.fetch(
                    pid, runtime.page_bytes, start)[1]
                runtime.mm_buffer.admit(pid)
            stats.bytes_streamed += nbytes
            scheduler.dispatch_streamed(g, max(ready[pid], wa_ready[g]),
                                        nbytes, steps, cycles)


class TestBookingLoop:
    NUM_PAGES = 24

    def _machine_run(self, num_ssds, buffer_pages, tracing):
        recorder = TraceRecorder() if tracing else None
        runtime = MachineRuntime(
            scaled_workstation(num_gpus=2, num_ssds=num_ssds),
            num_streams=3, page_bytes=1024,
            mm_buffer_bytes=buffer_pages * 1024, tracing=tracing,
            recorder=recorder)
        if not num_ssds:
            runtime.mm_buffer.preload(range(self.NUM_PAGES))
        caches = [PageCache(5, recorder=recorder, gpu_index=g)
                  for g in range(2)]
        return runtime, StreamScheduler(runtime), caches

    @staticmethod
    def _state(runtime, caches, stats):
        resources = [r for gpu in runtime.gpus for r in (
            gpu.copy_engine, gpu.compute, *gpu.streams.slots)]
        resources += runtime.storage.channels if runtime.storage else []
        return (
            [vars(r) for r in resources],
            [(g.kernel_invocations, g.kernel_busy_time,
              g.kernel_stream_time, g.bytes_received)
             for g in runtime.gpus],
            [(c.hits, c.misses) for c in caches + [runtime.mm_buffer]],
            # Stable: each lane keeps its order, lanes may interleave.
            sorted(runtime.recorder or (), key=lambda event: event.lane),
            runtime.now, stats)

    @settings(max_examples=40, deadline=None)
    @given(rounds=st.lists(st.lists(st.integers(0, NUM_PAGES - 1),
                                    unique=True, min_size=1),
                           min_size=1, max_size=4),
           strategy=st.sampled_from(["performance", "scalability"]),
           num_ssds=st.sampled_from([0, 2]),
           buffer_pages=st.integers(0, NUM_PAGES), tracing=st.booleans())
    def test_dispatch_round_equals_the_per_call_loop(
            self, rounds, strategy, num_ssds, buffer_pages, tracing):
        """Random rounds — Strategy-P / -S assignments, cache hits from
        repeated pages, in-memory and SSD machines, the buffer empty,
        filling and full — leave every timeline, counter, ``RoundStats``
        and (traced) per-lane event sequence exactly where the per-call
        reference leaves them."""
        if not num_ssds:
            buffer_pages = self.NUM_PAGES
        rng = np.random.default_rng(len(rounds))
        work = [(make_strategy(strategy).assign_batch(pids, 2),
                 rng.integers(0, 4096, size=len(pids)),
                 rng.random(len(pids)) * 1e5) for pids in rounds]
        states = []
        for per_call in (False, True):
            runtime, scheduler, caches = self._machine_run(
                num_ssds, buffer_pages, tracing)
            stats = [RoundStats(index, "r") for index in range(len(rounds))]
            for pids, round_work, round_stats in zip(rounds, work, stats):
                args = round_work + (24.0, caches, [0.0, 1e-5],
                                     runtime.now, round_stats)
                if per_call:
                    _per_call_round(scheduler, pids, *args)
                else:
                    scheduler.dispatch_round(np.asarray(pids), *args)
                runtime.barrier()
            states.append(self._state(runtime, caches, stats))
        assert states[0] == states[1]

    @pytest.mark.parametrize("bad, error", [
        ({"copy_bytes": [8, -1]}, ConfigurationError),
        ({"lane_steps": [1.0, -1.0]}, SimulationError),
        ({"round_start": -1.0}, SimulationError)])
    def test_round_is_validated_like_the_per_call_methods(self, bad,
                                                          error):
        """The typed errors of ``dispatch_streamed`` / ``Resource.book``
        (negative bytes, duration, start), checked once per round."""
        runtime, scheduler, caches = self._machine_run(2, 0, False)
        args = dict(page_ids=np.arange(2), assignments=[(0,), (1,)],
                    copy_bytes=[8, 8], lane_steps=[1.0, 1.0],
                    cycles_per_lane_step=24.0, caches=caches,
                    wa_ready=[0.0, 0.0], round_start=0.0,
                    stats=RoundStats(0, "r"))
        with pytest.raises(error):
            scheduler.dispatch_round(**dict(args, **bad))


class TestExecutionKnob:
    """The knob is gone: there is one executor, and a kernel without a
    body for it cannot run."""

    def test_batched_rejected_for_batchless_kernel(self, db, machine):
        class NoBody(DegreeKernel):
            process_batch = Kernel.process_batch

        with pytest.raises(NotImplementedError, match="process_batch"):
            GTSEngine(db, machine).run(NoBody())

    def test_unknown_mode_rejected(self, db, machine):
        for mode in ("warp", "auto", "paged", "batched"):
            with pytest.raises(TypeError):
                GTSEngine(db, machine, execution=mode)
        with pytest.raises(TypeError):
            GTSEngine(db, machine, io_merge=True)
        with pytest.raises(ServiceError, match="io_merge"):
            QueryRequest("g", "bfs", options={"io_merge": True})


class TestCLIExecutionFlag:
    def test_rejects_unknown_value(self, capsys):
        for command in ("run", "profile"):
            for value in ("warp", "batched"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args(
                        [command, "--dataset", "rmat26",
                         "--execution", value])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--url", "http://127.0.0.1:1", "--database",
                 "g", "--algorithm", "bfs", "--execution", "paged"])
        assert "--execution" in capsys.readouterr().err
        for argv in (["run", "--dataset", "rmat26"],
                     ["query", "--url", "http://127.0.0.1:1",
                      "--database", "g", "--algorithm", "bfs"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--io-merge"])
            assert "--io-merge" in capsys.readouterr().err
