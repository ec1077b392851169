"""Access-pattern primitives used by the workload generator.

All generators are deterministic functions of the supplied
``random.Random`` instance, so a workload built from a seed is perfectly
reproducible across runs and machines.

Each primitive's sequence of RNG calls is part of the trace format: the
same seed must give the same trace, and with it the same cached results.
A rewrite for speed may change how a list is built but never which draws
are made or in what order.  ``tests/test_workloads.py`` guards this with
a digest of every benchmark's trace and with differential tests of each
primitive against the per-element loop it replaced.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from typing import Iterable


def _uniform_picks(rng: random.Random, n: int,
                   starts: Iterable[int]) -> list[int]:
    """``start + rng.randrange(n)`` for each of ``starts``, in order.

    The same draws ``randrange(n)`` makes (``getrandbits(n.bit_length())``
    until the result is below ``n``, CPython's ``_randbelow``) without its
    per-call argument checks.
    """
    getrandbits = rng.getrandbits
    k = n.bit_length()
    out: list[int] = []
    append = out.append
    for start in starts:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(start + r)
    return out


def hot_region_stream(rng: random.Random, count: int, region_start: int,
                      region_lines: int) -> list[int]:
    """Uniform reads over a shared region: one draw of
    ``randrange(region_lines)`` per access."""
    if count < 0 or region_lines <= 0:
        raise ValueError("count must be >= 0 and region_lines positive")
    return _uniform_picks(rng, region_lines, repeat(region_start, count))


def streaming_window(rng: random.Random, count: int, region_start: int,
                     region_lines: int, window_lines: int,
                     reuse: int = 4) -> list[int]:
    """A working window sliding over a (possibly huge) region.

    Accesses concentrate in a window of ``window_lines`` that advances as
    the stream progresses, each window being revisited ``reuse`` times on
    average — the tiled-computation pattern of LUD/3DC/SP.  A window that
    fits the shared LLC hits after the first sweep; a private slice set
    (1/num_clusters of capacity) thrashes.
    """
    if window_lines <= 0 or region_lines <= 0:
        raise ValueError("window and region must be positive")
    if reuse <= 0:
        raise ValueError("reuse must be positive")
    window_lines = min(window_lines, region_lines)
    accesses_per_window = window_lines * reuse
    positions = max(1, region_lines - window_lines + 1)
    windows = []
    pos = 0
    for produced in range(0, count, accesses_per_window):
        take = min(accesses_per_window, count - produced)
        windows.append(repeat(region_start + pos, take))
        pos = (pos + window_lines) % positions
    return _uniform_picks(rng, window_lines, chain.from_iterable(windows))


def sequential_sweep(count: int, start: int, region_lines: int,
                     phase: int = 0) -> list[int]:
    """Repeated in-order sweeps over a region (DNN weight-reading pattern).

    Every CTA sweeping the same region from the same ``phase`` produces the
    lockstep line-level contention that makes shared LLC slices serialize —
    the private-cache-friendly signature of the paper.
    """
    if region_lines <= 0:
        raise ValueError("region must be positive")
    return [start + ((phase + i) % region_lines) for i in range(count)]


def repeated_stream(rng: random.Random, count: int, start: int,
                    region_lines: int, repeats: int = 3) -> list[int]:
    """Strided walk where each line is touched ``repeats`` times in a row —
    cheap L1 temporal locality for CTA-private data.  Draws nothing."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if region_lines <= 0:
        raise ValueError("region must be positive")
    touches = range(repeats)
    # One int object per line, repeated: the trace holds no more objects
    # than it has distinct lines.
    out = [line for line in (start + i % region_lines
                             for i in range(-(-count // repeats)))
           for _ in touches]
    del out[count:]
    return out


def interleave(rng: random.Random, first: list[int], second: list[int],
               first_weight: float, second_weight: float) -> list[int]:
    """Probabilistically interleave two streams, preserving each stream's
    internal order.  Consumes until both streams are exhausted.

    While both streams have elements left, each emitted element costs one
    ``rng.random()`` draw scaled by the weight sum, and comes from
    ``first`` when the pick falls below ``first_weight``.  Once one
    stream drains, the other is appended, still taking one (unused) draw
    per element unless its weight is zero.  Two zero weights append
    ``first`` then ``second`` with no draws.
    """
    if not (first_weight >= 0 and second_weight >= 0):
        raise ValueError("weights must be non-negative")
    draw = rng.random
    n_first, n_second = len(first), len(second)
    i = j = 0
    out: list[int] = []
    if n_first and n_second:
        total = first_weight + second_weight
        if total <= 0:
            return first + second
        append = out.append
        while True:
            if draw() * total < first_weight:
                append(first[i])
                i += 1
                if i == n_first:
                    break
            else:
                append(second[j])
                j += 1
                if j == n_second:
                    break
    if i < n_first:
        rest, weight = first[i:], first_weight
    else:
        rest, weight = second[j:], second_weight
    if weight > 0:
        for _ in rest:
            draw()
    out += rest
    return out
