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
from repro.workloads.patterns import (
    hot_region_stream,
    interleave,
    repeated_stream,
    sequential_sweep,
    streaming_window,
    strided_stream,
)


# ----------------------------------------------------------------- patterns
def test_hot_region_stream_bounds():
    rng = random.Random(1)
    s = hot_region_stream(rng, 1000, region_start=100, region_lines=50)
    assert all(100 <= k < 150 for k in s)
    assert len(s) == 1000


def test_hot_region_hot_subset_bias():
    rng = random.Random(1)
    s = hot_region_stream(rng, 5000, 0, 1000, hot_lines=10, hot_frac=0.9)
    in_hot = sum(1 for k in s if k < 10)
    assert in_hot > 0.85 * len(s)


def test_hot_region_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        hot_region_stream(rng, 10, 0, 0)
    with pytest.raises(ValueError):
        hot_region_stream(rng, 10, 0, 10, hot_lines=5, hot_frac=2.0)
    with pytest.raises(ValueError):
        hot_region_stream(rng, 10, 0, 10, hot_lines=20, hot_frac=0.5)


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


def test_strided_stream():
    assert strided_stream(4, 10, 3) == [10, 13, 16, 19]
    with pytest.raises(ValueError):
        strided_stream(4, 0, 0)


def test_interleave_preserves_order_and_drains():
    rng = random.Random(5)
    a = [1, 2, 3]
    b = [10, 20]
    out = interleave(rng, [a, b], [1.0, 1.0])
    assert sorted(out) == sorted(a + b)
    assert [x for x in out if x < 10] == a
    assert [x for x in out if x >= 10] == b


def test_interleave_validation():
    rng = random.Random(5)
    with pytest.raises(ValueError):
        interleave(rng, [[1]], [1.0, 2.0])
    with pytest.raises(ValueError):
        interleave(rng, [[1]], [-1.0])


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


_weight = st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(0.0, 100.0, allow_nan=False))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 99), max_size=30),
                          _weight), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_interleave_matches_per_element_reference(pairs, seed):
    """Same output and same RNG draws as recomputing the sum and bounds
    for every element, for 1-4 streams, empty ones and zero weights
    included."""
    streams = [s for s, _ in pairs]
    weights = [w for _, w in pairs]
    fast, ref = random.Random(seed), random.Random(seed)
    assert interleave(fast, streams, weights) == \
        _interleave_reference(ref, streams, weights)
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
