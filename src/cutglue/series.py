"""Truncated formal power series in the square root of the loop parameter.

A series is its coefficient array: index j holds the coefficient of x^j with
x = sqrt(hbar), that is order j/2, the coefficient of hbar^(j/2).  Every
order from 0 up to the last is present, and exp and log work on the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class PerturbationSeries:
    """Coefficients of a truncated series: a nonempty 1-D float array whose
    index j is order j/2."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise SeriesError(f"want a nonempty 1-D array, got shape {c.shape}")
        object.__setattr__(self, "coefficients", c)

    @property
    def max_order(self) -> float:
        return (self.coefficients.size - 1) / 2

    def coeff(self, order: float) -> float:
        if order not in self.orders():
            raise SeriesError(f"order {order} not in a series through {self.max_order}")
        return float(self.coefficients[round(2 * order)])

    def orders(self) -> list[float]:
        return [j / 2.0 for j in range(self.coefficients.size)]


def series_exp(s: PerturbationSeries) -> PerturbationSeries:
    """exp of a truncated series, coefficient-wise in x = sqrt(hbar)."""
    a = s.coefficients
    b = np.zeros_like(a)
    b[0] = exp(a[0])
    for n in range(1, a.size):
        b[n] = sum(k * a[k] * b[n - k] for k in range(1, n + 1)) / n
    return PerturbationSeries(b)


def series_log(s: PerturbationSeries) -> PerturbationSeries:
    """log of a truncated series with nonzero constant term."""
    b = s.coefficients
    if b[0] == 0.0:
        raise SeriesError("log of a series with zero constant term")
    a = np.zeros_like(b)
    a[0] = log(b[0])
    for n in range(1, b.size):
        conv = sum(k * a[k] * b[n - k] for k in range(1, n))
        a[n] = (b[n] - conv / n) / b[0]
    return PerturbationSeries(a)
