"""Access-pattern primitives used by the workload generator.

All generators are deterministic functions of the supplied
``random.Random`` instance, so a workload built from a seed is perfectly
reproducible across runs and machines.
"""

from __future__ import annotations

import random


def hot_region_stream(rng: random.Random, count: int, region_start: int,
                      region_lines: int, hot_lines: int = 0,
                      hot_frac: float = 0.0) -> list[int]:
    """Reads over a shared region with an optionally hotter subset.

    With probability ``hot_frac`` an access goes to the first ``hot_lines``
    lines of the region (uniformly), otherwise anywhere in the region.  This
    two-tier distribution models read-only shared data with a popular core
    (e.g. the active layer's weights in a DNN) without the cost of a full
    Zipf sampler.
    """
    if count < 0 or region_lines <= 0:
        raise ValueError("count must be >= 0 and region_lines positive")
    if not 0.0 <= hot_frac <= 1.0:
        raise ValueError("hot_frac must be a probability")
    if hot_lines > region_lines:
        raise ValueError("hot subset cannot exceed the region")
    out = []
    for _ in range(count):
        if hot_lines and rng.random() < hot_frac:
            out.append(region_start + rng.randrange(hot_lines))
        else:
            out.append(region_start + rng.randrange(region_lines))
    return out


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
    out = []
    accesses_per_window = window_lines * reuse
    pos = 0
    produced = 0
    while produced < count:
        take = min(accesses_per_window, count - produced)
        for _ in range(take):
            out.append(region_start + pos + rng.randrange(window_lines))
        produced += take
        pos = (pos + window_lines) % max(1, region_lines - window_lines + 1)
    return out


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
    cheap L1 temporal locality for CTA-private data."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if region_lines <= 0:
        raise ValueError("region must be positive")
    out = []
    i = 0
    while len(out) < count:
        line = start + (i % region_lines)
        for _ in range(min(repeats, count - len(out))):
            out.append(line)
        i += 1
    return out


def strided_stream(count: int, start: int, stride: int = 1) -> list[int]:
    """Pure strided walk (vector-add / histogram style)."""
    if stride == 0:
        raise ValueError("stride must be non-zero")
    return [start + i * stride for i in range(count)]


def interleave(rng: random.Random, streams: list[list[int]],
               weights: list[float]) -> list[int]:
    """Probabilistically interleave several streams, preserving each
    stream's internal order.  Consumes until every stream is exhausted.

    Each emitted element costs one ``rng.random()`` draw, scaled by the
    live streams' weight sum and matched against their cumulative
    bounds.  The sum and the bounds change only when a stream drains, so
    they are computed once per drain rather than once per element; a lone
    remaining stream still takes its one (now unused) draw per element.
    The output and the RNG draws are the same as recomputing both for
    every element."""
    if len(streams) != len(weights):
        raise ValueError("one weight per stream")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    draw = rng.random
    cursors = [0] * len(streams)
    out: list[int] = []
    append = out.append
    live = [i for i, s in enumerate(streams) if s]
    while live:
        total = sum(weights[i] for i in live)
        if total <= 0:
            # Zero-weight leftovers drain in stream order.
            for i in live:
                out.extend(streams[i][cursors[i]:])
            break
        if len(live) == 1:
            rest = streams[live[0]][cursors[live[0]]:]
            for _ in rest:
                draw()
            out.extend(rest)
            break
        bounds = []
        acc = 0.0
        for i in live:
            acc += weights[i]
            bounds.append((acc, i))
        fallback = live[-1]
        while True:
            pick = draw() * total
            chosen = fallback
            for bound, i in bounds:
                if pick < bound:
                    chosen = i
                    break
            stream = streams[chosen]
            cursor = cursors[chosen]
            append(stream[cursor])
            cursor += 1
            cursors[chosen] = cursor
            if cursor >= len(stream):
                live.remove(chosen)
                break
    return out
