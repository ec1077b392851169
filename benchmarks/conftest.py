"""Benchmark harness configuration for the simulator hot-path bench.

``bench_hotpath.py`` runs its measurement exactly once under
pytest-benchmark (``pedantic`` with a single round — a multi-scenario
simulation run, not a microbenchmark).  Run with::

    pytest benchmarks/bench_hotpath.py --benchmark-only -s

The paper's claims are not asserted here: they live in each figure's
``expected_trends()``, which ``repro report`` evaluates.
"""

import pytest


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run
