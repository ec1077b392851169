"""Way-indexed replacement state for tag arrays that keep their ways in
place.

Policies manage per-set recency state and are deliberately stateless about
tags — the owner (the ATD, :mod:`repro.cache.atd`) keeps the way -> tag
mapping and asks the policy which *way* to victimize.  The set-associative
tag store (:mod:`repro.cache.setassoc`) keeps each set's keys in recency
order instead and needs no policy object.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class ReplacementPolicy(ABC):
    """Per-set replacement state over ``assoc`` ways."""

    __slots__ = ("assoc",)

    def __init__(self, assoc: int):
        if assoc <= 0:
            raise ValueError("associativity must be positive")
        self.assoc = assoc

    @abstractmethod
    def on_access(self, way: int) -> None:
        """Record a hit (or fill) touching ``way``."""

    @abstractmethod
    def victim(self) -> int:
        """Return the way to evict next."""

    @abstractmethod
    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` became empty (prefer it as next victim)."""


class LRUPolicy(ReplacementPolicy):
    """True LRU via an ordered list of ways, most recent last.

    The paper's caches (L1 and LLC, Table 1) are both LRU; the ATD shadows
    its sampled LLC sets with this policy.
    """

    __slots__ = ("_order",)

    def __init__(self, assoc: int):
        super().__init__(assoc)
        self._order = list(range(assoc))  # front = LRU, back = MRU

    def on_access(self, way: int) -> None:
        self._order.remove(way)
        self._order.append(way)

    def victim(self) -> int:
        return self._order[0]

    def on_invalidate(self, way: int) -> None:
        self._order.remove(way)
        self._order.insert(0, way)

    def recency_order(self) -> list[int]:
        """LRU-to-MRU way order (exposed for tests and the ATD)."""
        return list(self._order)
