"""Replacement policies for set-associative caches.

Policies manage per-set recency state and are deliberately stateless about
tags — the tag store (:mod:`repro.cache.setassoc`) owns the mapping and asks
the policy which *way* to victimize.
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

    The paper's caches (L1 and LLC, Table 1) are both LRU.
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


class FIFOPolicy(ReplacementPolicy):
    """Round-robin/FIFO replacement; cheap baseline for ablations."""

    __slots__ = ("_next",)

    def __init__(self, assoc: int):
        super().__init__(assoc)
        self._next = 0

    def on_access(self, way: int) -> None:
        # FIFO ignores hits.
        pass

    def victim(self) -> int:
        v = self._next
        self._next = (self._next + 1) % self.assoc
        return v

    def on_invalidate(self, way: int) -> None:
        # Serve invalidated ways first by rewinding the pointer onto them.
        self._next = way


class PseudoLRUPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (requires power-of-two associativity).

    Included for the hardware-cost ablation: true LRU at 16 ways is
    expensive; PLRU approximates it with assoc-1 bits per set.
    """

    __slots__ = ("_bits",)

    def __init__(self, assoc: int):
        super().__init__(assoc)
        if assoc & (assoc - 1):
            raise ValueError("PLRU requires power-of-two associativity")
        self._bits = [0] * max(1, assoc - 1)

    def on_access(self, way: int) -> None:
        idx = 0
        span = self.assoc
        while span > 1:
            half = span // 2
            go_right = (way % span) >= half
            # Point the bit *away* from the touched half.
            self._bits[idx] = 0 if go_right else 1
            idx = 2 * idx + (2 if go_right else 1)
            way = way % span
            if go_right:
                way -= half
            span = half

    def victim(self) -> int:
        idx = 0
        way = 0
        span = self.assoc
        while span > 1:
            half = span // 2
            go_right = self._bits[idx] == 1
            idx = 2 * idx + (2 if go_right else 1)
            if go_right:
                way += half
            span = half
        return way

    def on_invalidate(self, way: int) -> None:
        # Steer the tree toward the invalidated way.
        idx = 0
        span = self.assoc
        w = way
        while span > 1:
            half = span // 2
            go_right = w >= half
            self._bits[idx] = 1 if go_right else 0
            idx = 2 * idx + (2 if go_right else 1)
            if go_right:
                w -= half
            span = half


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (Jaleel et al., ISCA'10).

    Scan-resistant: fills insert with a *long* predicted re-reference
    interval, so streaming data self-evicts before displacing the reused
    working set.  A relevant LLC ablation because GPU streaming traffic is
    exactly the scan pattern RRIP targets.
    """

    __slots__ = ("_rrpv", "_hit_promotion")

    MAX_RRPV = 3  # 2-bit re-reference prediction values

    def __init__(self, assoc: int, hit_promotion: bool = True):
        super().__init__(assoc)
        self._rrpv = [self.MAX_RRPV] * assoc
        self._hit_promotion = hit_promotion

    def on_access(self, way: int) -> None:
        # Hit promotion (or fill insertion at "long": MAX-1).
        if self._hit_promotion and self._rrpv[way] != self.MAX_RRPV:
            self._rrpv[way] = 0
        else:
            self._rrpv[way] = self.MAX_RRPV - 1

    def victim(self) -> int:
        while True:
            for way, v in enumerate(self._rrpv):
                if v >= self.MAX_RRPV:
                    return way
            for way in range(self.assoc):
                self._rrpv[way] += 1

    def on_invalidate(self, way: int) -> None:
        self._rrpv[way] = self.MAX_RRPV


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "plru": PseudoLRUPolicy,
    "srrip": SRRIPPolicy,
}


def make_policy(name: str, assoc: int) -> ReplacementPolicy:
    """Factory: ``"lru"``, ``"fifo"`` or ``"plru"``."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown replacement policy {name!r}") from None
    return cls(assoc)
