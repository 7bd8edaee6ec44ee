"""Unit tests for the scaling-analysis helpers."""

import pytest

from repro.analysis import fit_exponent, flatness


def test_fit_exact_power_law():
    xs = [10, 100, 1000]
    ys = [3 * x ** 1.5 for x in xs]
    exponent, constant = fit_exponent(xs, ys)
    assert abs(exponent - 1.5) < 1e-9
    assert abs(constant - 3) < 1e-6


def test_fit_linear():
    xs = [2, 4, 8, 16]
    exponent, _ = fit_exponent(xs, [5 * x for x in xs])
    assert abs(exponent - 1.0) < 1e-9


def test_fit_constant_series():
    exponent, constant = fit_exponent([1, 10, 100], [7, 7, 7])
    assert abs(exponent) < 1e-9
    assert abs(constant - 7) < 1e-6


def test_fit_needs_two_distinct_points():
    with pytest.raises(ValueError):
        fit_exponent([5, 5], [1, 2])
    with pytest.raises(ValueError):
        fit_exponent([1], [1])
    with pytest.raises(ValueError):
        fit_exponent([1, 2], [1])


def test_fit_distinct_floats_with_equal_logs():
    # adjacent huge floats are distinct but share a log value; the fit is
    # degenerate and must fail loudly instead of dividing by zero
    import math

    xs = [1e300, math.nextafter(1e300, math.inf)]
    assert xs[0] != xs[1]
    with pytest.raises(ValueError, match="distinct positive x values"):
        fit_exponent(xs, [1.0, 2.0])


def test_flatness():
    assert flatness([3, 3, 3]) == 1.0
    assert flatness([2, 4]) == 2.0
    with pytest.raises(ValueError):
        flatness([])
