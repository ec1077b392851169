"""Tests for the auxiliary tag directory (private-miss-rate estimator)."""

import copy

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cache.atd import AuxiliaryTagDirectory


def make_atd(**kw):
    defaults = dict(sampled_sets=8, assoc=16, num_sets=48, num_routers=8)
    defaults.update(kw)
    return AuxiliaryTagDirectory(**defaults)


def test_only_sampled_sets_observed():
    atd = make_atd(sampled_sets=1, num_sets=48)
    atd.observe(0, router_id=0)      # set 0: sampled
    atd.observe(1, router_id=0)      # set 1: not sampled
    assert atd.sampled_accesses == 1


def test_same_router_rehit_counts_private_hit():
    atd = make_atd()
    atd.observe(0, router_id=3)       # cold fill
    atd.observe(0, router_id=3)       # same-router hit
    assert atd.any_hits == 1
    assert atd.same_router_hits == 1
    assert atd.private_miss_rate == pytest.approx(0.5)
    assert atd.shared_miss_rate == pytest.approx(0.5)


def test_cross_router_rehit_is_shared_hit_private_miss():
    atd = make_atd()
    atd.observe(0, router_id=0)
    atd.observe(0, router_id=5)       # different cluster: private would miss
    assert atd.any_hits == 1
    assert atd.same_router_hits == 0
    assert atd.shared_miss_rate == pytest.approx(0.5)
    assert atd.private_miss_rate == pytest.approx(1.0)


def test_router_field_updates_on_access():
    atd = make_atd()
    atd.observe(0, 0)
    atd.observe(0, 1)   # now last accessor is 1
    atd.observe(0, 1)   # same-router hit
    assert atd.same_router_hits == 1


def test_private_estimate_no_sharing_equals_shared():
    """Disjoint per-router lines: private and shared miss rates agree."""
    atd = make_atd(sampled_sets=48)  # shadow everything for the test
    for router in range(8):
        for rep in range(3):
            for i in range(4):
                atd.observe(router * 1000 + i * 48, router)
    assert atd.private_miss_rate == pytest.approx(atd.shared_miss_rate)


def test_private_estimate_heavy_sharing_diverges():
    """All routers hammering the same line: shared hits, private mostly misses."""
    atd = make_atd(sampled_sets=48)
    for rep in range(10):
        for router in range(8):
            atd.observe(0, router)
    assert atd.shared_miss_rate < 0.05
    assert atd.private_miss_rate > 0.8


def test_eviction_in_sampled_set():
    atd = make_atd(sampled_sets=1, assoc=2, num_sets=1)
    atd.observe(0, 0)
    atd.observe(1, 0)
    atd.observe(2, 0)   # evicts 0 (LRU)
    atd.observe(0, 0)   # miss again
    assert atd.any_hits == 0


def test_reset_clears_counters_keeps_tags():
    atd = make_atd()
    atd.observe(0, 0)
    atd.reset()
    assert atd.sampled_accesses == 0
    atd.observe(0, 0)   # tag survived reset -> hit
    assert atd.any_hits == 1


def test_empty_estimates_are_zero():
    atd = make_atd()
    assert atd.shared_miss_rate == 0.0
    assert atd.private_miss_rate == 0.0


def test_router_range_validated():
    atd = make_atd()
    with pytest.raises(ValueError):
        atd.observe(0, router_id=8)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_atd(sampled_sets=0)
    with pytest.raises(ValueError):
        make_atd(sampled_sets=64, num_sets=48)
    with pytest.raises(ValueError):
        make_atd(assoc=0)


def test_hardware_budget_near_paper():
    """Paper: 432 bytes for the ATD.  Ours must be the same order (<1 KB)."""
    atd = make_atd()
    assert atd.hardware_bytes() <= 1024


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 7)),
                min_size=1, max_size=400))
def test_private_miss_rate_at_least_shared(stream):
    """Invariant: a private slice can never hit more than the shared one —
    every same-router hit is also an any-router hit."""
    atd = make_atd()
    for key, router in stream:
        atd.observe(key, router)
    assert atd.private_miss_rate >= atd.shared_miss_rate - 1e-12
    assert 0.0 <= atd.shared_miss_rate <= 1.0
    assert 0.0 <= atd.private_miss_rate <= 1.0


class _WayOrder:
    """Way-indexed true LRU over ``assoc`` ways, most recent last."""

    def __init__(self, assoc):
        self.order = list(range(assoc))

    def on_access(self, way):
        self.order.remove(way)
        self.order.append(way)

    def victim(self):
        return self.order[0]


class _WayEntry:
    def __init__(self):
        self.key = -1
        self.valid = False
        self.router = -1


class _WayIndexedATD:
    """Reference model: the way-indexed ATD the recency-list one replaced.

    Each sampled set keeps ``assoc`` entries in place plus a per-set LRU
    way order; a miss fills the first invalid way, else the LRU victim."""

    def __init__(self, sampled_sets, assoc, num_sets):
        self.num_sets = num_sets
        stride = max(1, num_sets // sampled_sets)
        self.sets = {stride * i: [_WayEntry() for _ in range(assoc)]
                     for i in range(sampled_sets)}
        self.orders = {s: _WayOrder(assoc) for s in self.sets}
        self.sampled_accesses = 0
        self.any_hits = 0
        self.same_router_hits = 0

    def observe(self, line_key, router_id):
        set_idx = line_key % self.num_sets
        entries = self.sets.get(set_idx)
        if entries is None:
            return
        self.sampled_accesses += 1
        order = self.orders[set_idx]
        for way, entry in enumerate(entries):
            if entry.valid and entry.key == line_key:
                self.any_hits += 1
                if entry.router == router_id:
                    self.same_router_hits += 1
                entry.router = router_id
                order.on_access(way)
                return
        way = next((w for w, e in enumerate(entries) if not e.valid), None)
        if way is None:
            way = order.victim()
        entry = entries[way]
        entry.key = line_key
        entry.valid = True
        entry.router = router_id
        order.on_access(way)


def _counters(atd):
    return atd.sampled_accesses, atd.any_hits, atd.same_router_hits


@seed(2019)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 3),
       st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)),
                min_size=1, max_size=200))
def test_matches_way_indexed_reference(assoc, sampled_sets, extra_sets,
                                       stream):
    """Differential test against the way-indexed reference over random
    access streams: the three counters agree after every call.  A final
    sweep then pushes ``n`` fresh keys into a key's set and re-observes
    the key, for every ``n`` up to ``assoc``: the hit-or-miss outcomes
    expose each resident key's recency rank, and a same-router re-observe
    checks its stored router."""
    num_sets = sampled_sets + extra_sets
    atd = AuxiliaryTagDirectory(sampled_sets, assoc, num_sets, num_routers=4)
    ref = _WayIndexedATD(sampled_sets, assoc, num_sets)
    for key, router in stream:
        atd.observe(key, router)
        ref.observe(key, router)
        assert _counters(atd) == _counters(ref), (key, router)
    last_router = dict(stream)
    for key, router in last_router.items():
        for n in range(assoc + 1):
            atd_n, ref_n = copy.deepcopy(atd), copy.deepcopy(ref)
            for i in range(n):
                fresh = key % num_sets + num_sets * (100 + i)
                atd_n.observe(fresh, 0)
                ref_n.observe(fresh, 0)
            atd_n.observe(key, router)
            ref_n.observe(key, router)
            assert _counters(atd_n) == _counters(ref_n), (key, n)
