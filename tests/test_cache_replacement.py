"""Tests for the way-indexed LRU replacement policy (the ATD's)."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import LRUPolicy


def test_lru_victim_is_least_recent():
    p = LRUPolicy(4)
    for way in [0, 1, 2, 3]:
        p.on_access(way)
    assert p.victim() == 0
    p.on_access(0)
    assert p.victim() == 1


def test_lru_invalidate_moves_to_front():
    p = LRUPolicy(4)
    for way in [0, 1, 2, 3]:
        p.on_access(way)
    p.on_invalidate(3)
    assert p.victim() == 3


def test_lru_recency_order_exposed():
    p = LRUPolicy(3)
    p.on_access(2)
    p.on_access(0)
    assert p.recency_order() == [1, 2, 0]


def test_lru_rejects_non_positive_assoc():
    with pytest.raises(ValueError):
        LRUPolicy(0)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
def test_lru_victim_is_never_most_recent(accesses):
    p = LRUPolicy(8)
    for way in accesses:
        p.on_access(way)
    assert p.victim() != accesses[-1] or len(set(accesses)) == 1 and p.assoc == 1
