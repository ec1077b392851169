"""Tests for statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import geometric_mean, harmonic_mean


def test_harmonic_mean_known_value():
    assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)
    assert harmonic_mean([]) == 0.0
    with pytest.raises(ValueError):
        harmonic_mean([1.0, 0.0])


def test_geometric_mean_known_value():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([-1.0])


@given(st.lists(st.floats(0.01, 100), min_size=1, max_size=30))
def test_harmonic_leq_geometric_leq_arithmetic(values):
    """Classic mean inequality — a good invariant for the implementations."""
    hm = harmonic_mean(values)
    gm = geometric_mean(values)
    am = sum(values) / len(values)
    assert hm <= gm * (1 + 1e-9)
    assert gm <= am * (1 + 1e-9)
