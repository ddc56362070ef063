"""Shared statistical primitives: the standard normal CDF, KS statistics and
sample summaries.

Each returns only what the CLI prints: a KS report is its statistic and 5%
critical value, and a summary has the mean, unbiased variance, adjusted
skewness and the five quantiles of the ``simulate`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InsufficientSamples

# Asymptotic 5% two-sided critical coefficient for the KS statistic.
KS_COEFF_5PCT = 1.358


def normal_cdf(t: float) -> float:
    """Standard normal CDF via the complementary error function.

    math.erfc is the platform's correctly-rounded erfc implementation, so the
    absolute error here is far below the 1e-12 contract.
    """
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def one_sample_ks(sorted_samples: np.ndarray, cdf) -> float:
    """Sup distance between the empirical CDF and a reference CDF.

    Evaluates both one-sided empirical limits at every sample point, which is
    the exact sup for a right-continuous reference; no grid approximation.
    """
    x = np.asarray(sorted_samples, dtype=np.float64)
    if x.size == 0:
        raise EmptyBatch("one-sample KS needs at least one sample")
    n = x.size
    ref = np.fromiter(map(cdf, x), np.float64, count=n)
    upper = np.arange(1, n + 1) / n - ref
    lower = ref - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


@dataclass(frozen=True)
class KSReport:
    """A KS statistic with the context needed to judge it."""

    statistic: float
    critical_5pct: float

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0 + 1e-15:
            raise ValueError(f"KS statistic {self.statistic} outside [0, 1]")


def two_sample_ks(a, b) -> KSReport:
    """Two-sided two-sample KS statistic over the merged support.

    The reported 5% critical value is the asymptotic
    ``1.358 * sqrt((m + n) / (m n))``.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise EmptyBatch("two-sample KS needs nonempty samples on both sides")
    merged = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, merged, side="right") / a.size
    cdf_b = np.searchsorted(b, merged, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    crit = KS_COEFF_5PCT * math.sqrt((a.size + b.size) / (a.size * b.size))
    return KSReport(statistic=stat, critical_5pct=crit)


def one_sample_critical_5pct(n: int) -> float:
    return KS_COEFF_5PCT / math.sqrt(n)


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
    """Mean, unbiased variance, adjusted skewness and interpolated quantiles."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
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
