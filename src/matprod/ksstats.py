"""Shared statistical primitives: KS statistics and sample summaries.

Each returns only what the CLI prints: a KS report is its statistic and 5%
critical value, and a summary has the mean, unbiased variance, adjusted
skewness and the five quantiles of the ``simulate`` table.  The KS
statistics and the summary read samples sorted ascending, as a
``SampleBatch`` holds them, in place: they raise ``ValueError`` on any other
order and never sort a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InsufficientSamples

# Asymptotic 5% two-sided critical coefficient for the KS statistic.
KS_COEFF_5PCT = 1.358


def check_ascending(x, what: str) -> np.ndarray:
    """x as a float64 array, or ValueError unless it is sorted ascending
    without NaN (NaN compares false either way)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x[1:] >= x[:-1]) or np.isnan(x[-1:]).any():
        raise ValueError(f"{what} must be sorted ascending, without NaN")
    return x


@dataclass(frozen=True)
class KSReport:
    """A KS statistic with the context needed to judge it."""

    statistic: float
    critical_5pct: float

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0 + 1e-15:
            raise ValueError(f"KS statistic {self.statistic} outside [0, 1]")


def one_sample_ks(sorted_samples: np.ndarray, cdf) -> KSReport:
    """Sup distance between the empirical CDF and a reference CDF.

    Evaluates both one-sided empirical limits at every sample point, which is
    the exact sup for a continuous reference; no grid approximation.  The
    reported 5% critical value is the asymptotic ``1.358 / sqrt(n)``.
    """
    x = check_ascending(sorted_samples, "one-sample KS samples")
    if x.size == 0:
        raise EmptyBatch("one-sample KS needs at least one sample")
    n = x.size
    ref = np.fromiter(map(cdf, x), np.float64, count=n)
    # k/n - F(x_k), then F(x_k) - (k-1)/n, each built in place in a work
    # array freed before the next: the call holds the samples, ref and one gap
    gap = np.arange(1, n + 1, dtype=np.float64)
    gap /= n
    gap -= ref
    upper = gap.max()
    del gap
    gap = np.arange(n, dtype=np.float64)
    gap /= n
    np.subtract(ref, gap, out=gap)
    stat = float(max(upper, gap.max()))
    return KSReport(statistic=stat, critical_5pct=KS_COEFF_5PCT / math.sqrt(n))


def _largest_gap(points: np.ndarray, other: np.ndarray) -> float:
    """Largest distance between the empirical CDFs of the sorted arrays
    points and other, over the values in points."""
    gap = np.searchsorted(points, points, side="right") / points.size
    gap -= np.searchsorted(other, points, side="right") / other.size
    return float(np.abs(gap, out=gap).max())


def two_sample_ks(a, b) -> KSReport:
    """Two-sided two-sample KS statistic of two sorted samples.

    The CDF difference is a step function that moves only at sample values,
    so its sup is the larger of its maxima over each side's own values.  The
    reported 5% critical value is the asymptotic
    ``1.358 * sqrt((m + n) / (m n))``.
    """
    a = check_ascending(a, "two-sample KS samples")
    b = check_ascending(b, "two-sample KS samples")
    if a.size == 0 or b.size == 0:
        raise EmptyBatch("two-sample KS needs nonempty samples on both sides")
    stat = max(_largest_gap(a, b), _largest_gap(b, a))
    crit = KS_COEFF_5PCT * math.sqrt((a.size + b.size) / (a.size * b.size))
    return KSReport(statistic=stat, critical_5pct=crit)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    variance: float
    skewness: float
    quantiles: dict[float, float]


_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _sorted_quantile(x: np.ndarray, q: float) -> float:
    """numpy's default ("linear") quantile of the ascending array x, read off
    it directly: ``np.quantile`` would load ``numpy.ma`` (about 13 ms) on its
    way there."""
    n = x.size
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    t = h - lo
    a, b = float(x[lo]), float(x[hi])
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def summary(samples) -> SummaryStats:
    """Mean, unbiased variance, adjusted skewness and interpolated quantiles
    of samples sorted ascending."""
    x = check_ascending(samples, "summary samples")
    if x.size < 2:
        raise InsufficientSamples("summary needs at least two samples")
    n = x.size
    mean = float(np.mean(x))
    centered = x - mean
    variance = float(centered @ centered / (n - 1))
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    if m2 == 0.0:
        skew = 0.0
    else:
        g1 = m3 / m2**1.5
        skew = math.sqrt(n * (n - 1)) / (n - 2) * g1 if n > 2 else g1
    qs = {q: _sorted_quantile(x, q) for q in _QUANTILES}
    return SummaryStats(mean=mean, variance=variance, skewness=skew, quantiles=qs)
