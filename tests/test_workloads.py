"""Tests for trace containers, patterns, generator, and catalog."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    BENCHMARKS,
    CATEGORIES,
    CTAStream,
    KernelTrace,
    WorkloadSpec,
    benchmark,
    benchmarks_in_category,
    build,
    generate_workload,
)
from repro.workloads.generator import LINES_PER_MB
from repro.workloads.multiprogram import (
    ADDRESS_SPACE_STRIDE,
    all_shared_private_pairs,
    make_mix,
)
from repro.workloads.generator import _mark_output_writes
from repro.workloads.patterns import (
    hot_region_stream,
    interleave,
    repeated_stream,
    sequential_sweep,
    streaming_window,
)


# ----------------------------------------------------------------- patterns
def test_hot_region_stream_bounds():
    rng = random.Random(1)
    s = hot_region_stream(rng, 1000, region_start=100, region_lines=50)
    assert all(100 <= k < 150 for k in s)
    assert len(s) == 1000


def test_hot_region_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        hot_region_stream(rng, 10, 0, 0)


def test_sequential_sweep_lockstep_and_wraparound():
    a = sequential_sweep(10, start=5, region_lines=4)
    assert a == [5, 6, 7, 8, 5, 6, 7, 8, 5, 6]
    b = sequential_sweep(10, start=5, region_lines=4)
    assert a == b  # lockstep: identical for every CTA
    shifted = sequential_sweep(4, 5, 4, phase=2)
    assert shifted == [7, 8, 5, 6]


def test_streaming_window_stays_in_window_then_moves():
    rng = random.Random(2)
    s = streaming_window(rng, 200, 0, region_lines=1000, window_lines=10,
                         reuse=5)
    first = s[:50]     # 10 lines * 5 reuse
    assert all(0 <= k < 10 for k in first)
    second = s[50:100]
    assert all(10 <= k < 20 for k in second)


def test_streaming_window_reuse_revisits_lines():
    rng = random.Random(3)
    s = streaming_window(rng, 400, 0, 100, window_lines=20, reuse=4)
    from collections import Counter
    counts = Counter(s[:80])
    assert max(counts.values()) >= 2


def test_repeated_stream_l1_locality():
    rng = random.Random(4)
    s = repeated_stream(rng, 9, 0, region_lines=100, repeats=3)
    assert s == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_interleave_preserves_order_and_drains():
    rng = random.Random(5)
    a = [1, 2, 3]
    b = [10, 20]
    out = interleave(rng, a, b, 1.0, 1.0)
    assert sorted(out) == sorted(a + b)
    assert [x for x in out if x < 10] == a
    assert [x for x in out if x >= 10] == b


def test_interleave_validation():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        interleave(rng, [1], [2], -1.0, 1.0)
    with pytest.raises(ValueError):
        interleave(rng, [1], [2], 1.0, float("nan"))


# Differential references: the per-element loops the primitives replaced,
# kept verbatim.  Each primitive must build the same list with the same
# RNG calls in the same order, so both the output and the RNG state
# afterwards must match.
def _interleave_reference(rng, streams, weights):
    """The per-element loop ``interleave`` replaced: it recomputes the
    weight sum and the cumulative bounds for every emitted element."""
    cursors = [0] * len(streams)
    out = []
    live = [i for i, s in enumerate(streams) if s]
    while live:
        total = sum(weights[i] for i in live)
        if total <= 0:
            for i in live:
                out.extend(streams[i][cursors[i]:])
            break
        pick = rng.random() * total
        acc = 0.0
        chosen = live[-1]
        for i in live:
            acc += weights[i]
            if pick < acc:
                chosen = i
                break
        out.append(streams[chosen][cursors[chosen]])
        cursors[chosen] += 1
        if cursors[chosen] >= len(streams[chosen]):
            live.remove(chosen)
    return out


def _hot_region_stream_reference(rng, count, region_start, region_lines,
                                 hot_lines=0, hot_frac=0.0):
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


def _streaming_window_reference(rng, count, region_start, region_lines,
                                window_lines, reuse=4):
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


def _repeated_stream_reference(rng, count, start, region_lines, repeats=3):
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


def _mark_output_writes_reference(spec, rng, keys, private_lines):
    write_prob = min(1.0, spec.write_frac * max(1, spec.l1_repeats))
    last_touch: dict[int, int] = {}
    for i, key in enumerate(keys):
        if key in private_lines:
            last_touch[key] = i
    writes = [False] * len(keys)
    for key, idx in last_touch.items():
        if rng.random() < write_prob:
            writes[idx] = True
    return writes


_seed = st.integers(0, 2**32 - 1)
# Range sizes around the ``bit_length`` edges: 1, powers of two and their
# neighbours (rejection is likeliest just above a power of two), sizes
# above 2**32 (``getrandbits`` past one 32-bit word) and arbitrary ones.
_range_size = st.one_of(
    st.just(1),
    st.integers(0, 40).map(lambda e: 2**e),
    st.integers(1, 40).map(lambda e: 2**e + 1),
    st.integers(1, 40).map(lambda e: 2**e - 1),
    st.integers(1, 5_000))


def _same_draws(seed, fast, reference, *args):
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    assert fast(fast_rng, *args) == reference(ref_rng, *args)
    assert fast_rng.getstate() == ref_rng.getstate()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_seed, st.integers(0, 300), st.integers(0, 10**6), _range_size)
def test_hot_region_stream_matches_reference(seed, count, start, lines):
    _same_draws(seed, hot_region_stream, _hot_region_stream_reference,
                count, start, lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_seed, st.integers(0, 400), st.integers(0, 10**6), _range_size,
       _range_size, st.integers(1, 8))
def test_streaming_window_matches_reference(seed, count, start, region,
                                            window, reuse):
    _same_draws(seed, streaming_window, _streaming_window_reference,
                count, start, region, window, reuse)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_seed, st.integers(0, 300), st.integers(0, 10**6),
       st.integers(1, 50), st.integers(1, 6))
def test_repeated_stream_matches_reference(seed, count, start, region,
                                           repeats):
    _same_draws(seed, repeated_stream, _repeated_stream_reference,
                count, start, region, repeats)
    out = repeated_stream(random.Random(seed), count, start, region, repeats)
    # One int object per line, repeated: no more objects than lines.
    assert len({id(x) for x in out}) <= -(-count // repeats)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_seed, st.lists(st.integers(0, 40), max_size=200),
       st.sets(st.integers(0, 40)),
       st.floats(0.0, 1.0, allow_nan=False), st.integers(1, 4))
def test_mark_output_writes_matches_reference(seed, keys, private,
                                              write_frac, repeats):
    spec = WorkloadSpec("x", "X", "neutral", 1.0, 1, write_frac=write_frac,
                        l1_repeats=repeats)
    fast, ref = random.Random(seed), random.Random(seed)
    assert _mark_output_writes(spec, fast, keys, private) == \
        _mark_output_writes_reference(spec, ref, keys, private)
    assert fast.getstate() == ref.getstate()


_weight = st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(0.0, 100.0, allow_nan=False))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 99), max_size=30), _weight,
       st.lists(st.integers(0, 99), max_size=30), _weight, _seed)
def test_interleave_matches_per_element_reference(first, first_weight,
                                                  second, second_weight,
                                                  seed):
    """Same output and same RNG draws as recomputing the sum and bounds
    for every element, empty streams and zero weights included."""
    fast, ref = random.Random(seed), random.Random(seed)
    assert interleave(fast, first, second, first_weight, second_weight) == \
        _interleave_reference(ref, [first, second],
                              [first_weight, second_weight])
    assert fast.getstate() == ref.getstate()


@settings(max_examples=25)
@given(st.integers(1, 500), st.integers(1, 100), st.integers(1, 8))
def test_streaming_window_length_exact(count, window, reuse):
    rng = random.Random(0)
    s = streaming_window(rng, count, 0, 1000, window, reuse)
    assert len(s) == count


# -------------------------------------------------------------- containers
def test_cta_stream_validation_and_stats():
    c = CTAStream(0, [1, 2, 2], [False, True, False])
    assert len(c) == 3
    assert c.write_count == 1
    assert c.footprint() == {1, 2}
    with pytest.raises(ValueError):
        CTAStream(0, [1], [])


def test_kernel_trace_totals():
    k = KernelTrace(0, [CTAStream(0, [1, 2], [False, False])],
                    instrs_per_access=5.0)
    assert k.total_accesses == 2
    assert k.total_instructions == 10.0
    assert k.footprint() == {1, 2}
    with pytest.raises(ValueError):
        KernelTrace(0, [], instrs_per_access=0)


# --------------------------------------------------------------- generator
def test_generate_workload_shape():
    spec = benchmark("AN")
    w = generate_workload(spec, num_ctas=16, total_accesses=2000)
    assert w.name == "AN"
    assert len(w.kernels) == 6
    assert w.total_accesses > 0
    assert w.category == "private"


def test_generate_workload_deterministic():
    spec = benchmark("GEMM")
    w1 = generate_workload(spec, num_ctas=8, total_accesses=500)
    w2 = generate_workload(spec, num_ctas=8, total_accesses=500)
    k1 = w1.kernels[0].ctas[0]
    k2 = w2.kernels[0].ctas[0]
    assert k1.keys == k2.keys
    assert k1.writes == k2.writes
    # Pinned bytes: every CTA's trace interleaves its shared and private
    # streams, so this also pins `interleave`'s output and RNG draws.
    digest = hashlib.sha256()
    for abbr in ("GEMM", "VA", "LUD"):
        w = generate_workload(benchmark(abbr), num_ctas=8,
                              total_accesses=4000)
        for kernel in w.kernels:
            for cta in kernel.ctas:
                digest.update(repr((abbr, cta.cta_id, cta.keys,
                                    cta.writes)).encode())
    assert digest.hexdigest() == ("5453abf39793a11568b2ecad7cf1b2a6"
                                  "4a63085bc7f57498c145f4860da0c229")


def test_generator_pinned_across_catalog():
    """Pinned bytes of every CTA's ``(keys, writes)``: all 17 benchmarks at
    two access budgets, a relocated trace and the four-tenant
    consolidation mix.  Each primitive's RNG call sequence is part of the
    trace format, so any change to a draw shows here."""
    digest = hashlib.sha256()

    def add(label, workload):
        for kernel in workload.kernels:
            for cta in kernel.ctas:
                digest.update(repr((label, kernel.kernel_id, cta.cta_id,
                                    cta.keys, cta.writes)).encode())

    for total in (4_000, 37_500):
        for abbr in BENCHMARKS:
            add((abbr, total), generate_workload(
                benchmark(abbr), num_ctas=160, total_accesses=total))
    add(("SN", "offset"), generate_workload(
        benchmark("SN"), num_ctas=160, total_accesses=4_000,
        address_offset=1 << 24))
    for program in make_mix(("VA", "GEMM", "SN", "LUD"),
                            total_accesses=30_000).programs:
        add(("mix", program.name), program)
    assert digest.hexdigest() == ("08e81dd86ed0873dbe27f668a1eb309d"
                                  "2764c55109f5e8ab1e07b81367af9086")


def test_generate_workload_max_kernels_cap():
    w = generate_workload(benchmark("3DC"), num_ctas=8, total_accesses=800,
                          max_kernels=4)
    assert len(w.kernels) == 4
    assert w.metadata["table2_kernels"] == 48


def test_generate_workload_address_offset():
    w0 = generate_workload(benchmark("VA"), num_ctas=4, total_accesses=200)
    w1 = generate_workload(benchmark("VA"), num_ctas=4, total_accesses=200,
                           address_offset=10_000_000)
    min_k1 = min(min(c.keys) for k in w1.kernels for c in k.ctas)
    max_k0 = max(max(c.keys) for k in w0.kernels for c in k.ctas)
    assert min_k1 >= 10_000_000 > max_k0


def test_shared_data_is_read_only():
    """Paper: the shared footprint is read-only; writes target private data."""
    for abbr in ("AN", "GEMM", "VA"):
        spec = benchmark(abbr)
        w = generate_workload(spec, num_ctas=8, total_accesses=1000)
        shared_limit = spec.shared_lines
        for kern in w.kernels:
            for cta in kern.ctas:
                for key, is_write in zip(cta.keys, cta.writes):
                    if is_write:
                        assert key >= shared_limit


def test_private_friendly_ctas_share_lockstep_stream():
    w = generate_workload(benchmark("SN"), num_ctas=8, total_accesses=2000)
    spec = benchmark("SN")
    ctas = w.kernels[0].ctas
    shared_sets = [
        {k for k in c.keys if k < spec.shared_lines} for c in ctas
    ]
    common = set.intersection(*shared_sets)
    assert len(common) > 0  # heavy overlap across CTAs


def test_neutral_ctas_mostly_disjoint():
    w = generate_workload(benchmark("VA"), num_ctas=8, total_accesses=2000)
    ctas = w.kernels[0].ctas
    f0, f1 = ctas[0].footprint(), ctas[1].footprint()
    overlap = len(f0 & f1) / max(1, min(len(f0), len(f1)))
    assert overlap < 0.2


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_workload(benchmark("VA"), num_ctas=0)
    with pytest.raises(ValueError):
        generate_workload(benchmark("VA"), total_accesses=0)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "X", "bogus", 1.0, 1)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "X", "neutral", 1.0, 0)
    with pytest.raises(ValueError):
        WorkloadSpec("x", "X", "neutral", 1.0, 1, shared_frac=1.5)


# ----------------------------------------------------------------- catalog
def test_catalog_has_17_benchmarks_matching_table2():
    assert len(BENCHMARKS) == 17
    assert sum(len(v) for v in CATEGORIES.values()) == 17
    # Spot-check Table 2 rows.
    assert BENCHMARKS["LUD"].shared_mb == 33.4
    assert BENCHMARKS["LUD"].num_kernels == 3
    assert BENCHMARKS["3DC"].num_kernels == 48
    assert BENCHMARKS["AN"].shared_mb == 1.0
    assert BENCHMARKS["VA"].shared_mb == 0.001


def test_catalog_categories_match_paper():
    assert CATEGORIES["shared"] == ["LUD", "SP", "3DC", "BT", "GEMM", "BP"]
    assert CATEGORIES["private"] == ["AN", "RN", "SN", "NN", "MM"]
    assert CATEGORIES["neutral"] == ["BS", "DWT2D", "MS", "BINO", "HG", "VA"]


def test_benchmark_lookup_errors():
    with pytest.raises(ValueError):
        benchmark("NOPE")
    with pytest.raises(ValueError):
        benchmarks_in_category("bogus")


def test_build_convenience():
    w = build("HG", total_accesses=500, num_ctas=8)
    assert w.name == "HG"
    assert w.total_accesses > 0


def test_private_friendly_hot_region_fits_cluster_capacity():
    """The design premise: hot subsets fit 8 slices x 96 KB = 768 KB."""
    for spec in benchmarks_in_category("private"):
        assert 0 < spec.hot_mb * LINES_PER_MB * 128 <= 768 * 1024


def test_shared_friendly_window_fits_shared_llc_not_private():
    for spec in benchmarks_in_category("shared"):
        window_bytes = spec.window_mb * 1024 * 1024
        assert window_bytes <= 6 * 1024 * 1024       # fits 6 MB shared LLC
        assert window_bytes > 768 * 1024             # exceeds cluster share


# ------------------------------------------------------------ multiprogram
def test_make_pair_disjoint_address_spaces():
    mp = make_mix(("GEMM", "AN"), total_accesses=1000, num_ctas=16)
    wa, wb = mp.programs
    max_a = max(max(c.keys) for k in wa.kernels for c in k.ctas)
    min_b = min(min(c.keys) for k in wb.kernels for c in k.ctas)
    assert min_b >= ADDRESS_SPACE_STRIDE > max_a
    assert mp.name == "GEMM+AN"


def test_pair_placement_splits_clusters():
    mp = make_mix(("GEMM", "AN"), total_accesses=400, num_ctas=16)
    # 10 SMs per cluster: first 5 run program 0.
    assert mp.program_of_sm(0, 10) == 0
    assert mp.program_of_sm(4, 10) == 0
    assert mp.program_of_sm(5, 10) == 1
    assert mp.program_of_sm(19, 10) == 1


def test_all_shared_private_pairs_count():
    pairs = all_shared_private_pairs()
    assert len(pairs) == 30
    assert ("LUD", "AN") in pairs
