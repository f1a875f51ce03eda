import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutglue.reports import Report, gap
from cutglue.series import (PerturbationSeries, SeriesError, series_exp,
                            series_log)


def test_order_grading():
    s = PerturbationSeries(np.array([1.0, 2.0, 0.0, -1.0]))
    assert s.max_order == 1.5
    assert s.coeff(0.5) == 2.0
    assert s.coeff(1.0) == 0.0
    assert type(s.coeff(1.5)) is float
    assert s.orders() == [0.0, 0.5, 1.0, 1.5]


def test_series_guards():
    """A series is a nonempty 1-D array; coeff reads only its own orders, and
    series through different orders do not compare."""
    for bad in (np.zeros((2, 2)), np.zeros(0), 1.0):
        with pytest.raises(SeriesError):
            PerturbationSeries(bad)
    s = PerturbationSeries(np.array([1.0, 2.0, 3.0, 4.0]))
    for order in (0.3, s.max_order + 0.5, 5.0, -0.5):
        with pytest.raises(SeriesError):
            s.coeff(order)
    with pytest.raises(ValueError):
        gap(s.coefficients, PerturbationSeries(np.array([1.0, 2.0, 3.0])).coefficients)


@pytest.mark.parametrize("position", range(4))
def test_nan_coefficient_fails_the_comparison(position):
    """A NaN at any order makes the difference NaN, so no check built from it
    passes."""
    coeffs = np.array([1.0, 2.0, 3.0, 4.0])
    coeffs[position] = np.nan
    other = np.array([1.0, 2.5, 3.0, 4.0])
    assert math.isnan(gap(coeffs, other))
    report = Report("series")
    report.compare("series-match", coeffs, other, 1e-10)
    assert not report.passed


def test_exp_of_linear_term():
    # exp(c x) = sum c^n / n! x^n
    c = 0.7
    s = PerturbationSeries(np.array([0.0, c, 0.0, 0.0, 0.0]))
    e = series_exp(s)
    expected = [1.0, c, c**2 / 2, c**3 / 6, c**4 / 24]
    np.testing.assert_allclose(e.coefficients, expected, atol=1e-14)


def test_log_needs_constant_term():
    with pytest.raises(SeriesError):
        series_log(PerturbationSeries(np.array([0.0, 1.0, 0.0])))


def test_exp_log_round_trip_fixed():
    s = PerturbationSeries(np.array([0.3, -1.2, 0.8, 2.0]))
    back = series_log(series_exp(s))
    assert gap(s.coefficients, back.coefficients) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6))
def test_exp_log_round_trip_property(coeffs):
    arr = np.asarray(coeffs)
    s = PerturbationSeries(arr)
    back = series_log(series_exp(s))
    assert gap(s.coefficients, back.coefficients) <= 1e-10 * max(1.0, np.abs(arr).max() ** arr.size)
