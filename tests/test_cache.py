"""Tests for the GPU page cache (cachedPIDMap, Section 3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import PageCache, _earlier_smaller
from repro.errors import ConfigurationError
from repro.obs.events import TraceRecorder


def _replay(cache, page_ids, ts):
    """The reference: one :meth:`PageCache.lookup` per page, and an
    :meth:`PageCache.admit` after each miss."""
    hits = []
    for page_id in page_ids:
        hit = cache.lookup(page_id, ts=ts)
        if not hit:
            cache.admit(page_id, ts=ts)
        hits.append(hit)
    return hits


def _distinct(pages):
    return list(dict.fromkeys(pages))


class TestResolveRound:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "clock", "pin"])
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.sampled_from([0, 1, 3, 8, 24]),
           prefill=st.lists(st.integers(0, 19), max_size=24),
           rounds=st.lists(st.lists(st.integers(0, 19), unique=True),
                           max_size=6),
           repeat=st.booleans(), traced=st.booleans())
    def test_bulk_round_is_the_page_replay(self, policy, capacity,
                                           prefill, rounds, repeat,
                                           traced):
        """A bulk ``resolve_round`` leaves the hits, counters, resident
        order and (traced) instants of the page-by-page replay, for
        every policy; capacity 0, 1, small and above the 20 page IDs;
        a state pre-filled by admits; distinct rounds in any order (and,
        with ``repeat``, one round that probes a page twice).  LRU is
        also held to its definition (the ``C`` most recently used
        distinct pages) and pin to its own (the first ``C`` ever
        probed)."""
        self._check_bulk_round(policy, capacity, prefill, rounds,
                               repeat, traced)

    @settings(max_examples=60, deadline=None)
    @given(capacity=st.integers(16, 256),
           prefill=st.lists(st.integers(0, 299), min_size=16,
                            max_size=300),
           rounds=st.lists(st.lists(st.integers(0, 299), unique=True,
                                    min_size=40, max_size=120),
                           min_size=1, max_size=4), traced=st.booleans())
    def test_many_run_lru_round_is_the_page_replay(self, capacity,
                                                   prefill, rounds,
                                                   traced):
        """The same, traced or not, for LRU rounds long enough to
        interleave their resident depths past eight decreasing runs
        (the merge count)."""
        self._check_bulk_round("lru", capacity, prefill, rounds,
                               repeat=False, traced=traced)

    @staticmethod
    def _check_bulk_round(policy, capacity, prefill, rounds, repeat,
                          traced):
        if repeat and rounds and rounds[0]:
            rounds[0] = rounds[0] + rounds[0][:1]
        bulk, replay = (PageCache(capacity, policy=policy, gpu_index=0,
                                  recorder=TraceRecorder() if traced
                                  else None) for _ in range(2))
        for page_id in prefill:
            bulk.admit(page_id, ts=0.0)
            replay.admit(page_id, ts=0.0)
        # LRU: distinct pages, most recent first; pin: first seen first.
        history = _distinct(prefill[::-1] if policy == "lru" else prefill)
        for ts, round_ids in enumerate(rounds, start=1):
            hits = bulk.resolve_round(round_ids, ts=float(ts))
            assert hits.tolist() == _replay(replay, round_ids, float(ts))
            assert (bulk.hits, bulk.misses, bulk.page_ids()) == (
                replay.hits, replay.misses, replay.page_ids())
            assert len(bulk) <= capacity
            if policy == "lru":
                for page_id, hit in zip(round_ids, hits.tolist()):
                    assert hit == (page_id in history[:capacity])
                    history = _distinct([page_id] + history)
                assert bulk.page_ids() == history[:capacity][::-1]
            elif policy == "pin":
                for page_id, hit in zip(round_ids, hits.tolist()):
                    assert hit == (page_id in history[:capacity])
                    history = _distinct(history + [page_id])
                assert bulk.page_ids() == history[:capacity]
        if traced:
            assert list(bulk.recorder) == list(replay.recorder)

    @settings(deadline=None)
    @given(depth=st.lists(st.integers(0, 255), unique=True, max_size=200))
    def test_earlier_smaller_counts(self, depth):
        """The LRU count against its definition, run by run below eight
        decreasing runs and by the merge count past them."""
        counted = _earlier_smaller(np.asarray(depth, dtype=np.int64))
        assert counted.tolist() == [sum(d < g for d in depth[:i])
                                    for i, g in enumerate(depth)]


class TestLookup:
    def test_miss_then_hit(self):
        cache = PageCache(4)
        assert not cache.lookup(7)
        cache.admit(7)
        assert cache.lookup(7)

    def test_counters(self):
        cache = PageCache(4)
        cache.lookup(1)
        cache.admit(1)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.hit_rate() == pytest.approx(1 / 3)

    def test_hit_rate_empty(self):
        assert PageCache(4).hit_rate() == 0.0


class TestLRUReplacement:
    def test_evicts_least_recently_used(self):
        cache = PageCache(2)
        cache.admit(1)
        cache.admit(2)
        victim = cache.admit(3)
        assert victim == 1
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_readmit_is_noop(self):
        cache = PageCache(2)
        cache.admit(1)
        cache.admit(2)
        assert cache.admit(1) is None
        assert len(cache) == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PageCache(-1)


class TestNaiveModel:
    def test_naive_hit_rate_formula(self):
        """The paper's B/(S+L) approximation (Section 3.3)."""
        assert PageCache.naive_hit_rate(10, 100) == 0.1

    def test_naive_hit_rate_capped(self):
        assert PageCache.naive_hit_rate(200, 100) == 1.0

    def test_naive_hit_rate_empty_graph(self):
        assert PageCache.naive_hit_rate(10, 0) == 0.0
