"""Reference values for the masked product, computed without matprod.

Every function here works from the model definition alone, with numpy, scipy
and ``fractions``; nothing imports ``matprod``.  The model: widths
``(n_0, ..., n_d)``, layer ``X_i = (p n_{i-1})^{-1/2} D_i W_i`` with a
Bernoulli(p) diagonal mask ``D_i`` and i.i.d. mean-0 variance-1 entries in
``W_i``, and ``Z = (n_0 / n_d) ||X_d ... X_1 u||^2`` for a unit vector ``u``.

For Gaussian entries rotation invariance makes ``||D_i W_i v||^2`` a
chi-square with ``K_i ~ Binomial(n_i, p)`` degrees of freedom for any unit
``v``, independently across layers, so ``Z = prod_i chi2_{K_i} / (p n_i)``.
That gives the exact moments, the law of ``ln Z`` on surviving trials and the
zero-event probability below.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import special, stats


def gaussian_moment(widths, p, k: int) -> Fraction:
    """Exact ``E[Z^k]`` for Gaussian entries, for any unit input vector.

    ``prod_i sum_K C(n_i,K) p^K (1-p)^(n_i-K) K(K+2)...(K+2k-2) / (p n_i)^k``,
    using ``E[(chi2_K)^k] = K(K+2)...(K+2k-2)``.
    """
    p = Fraction(p)
    total = Fraction(1)
    for n, repeats in Counter(widths[1:]).items():
        layer = Fraction(0)
        for K in range(n + 1):
            rising = math.prod(K + 2 * j for j in range(k))
            layer += math.comb(n, K) * p**K * (1 - p) ** (n - K) * rising
        total *= (layer / (p * n) ** k) ** repeats
    return total


def zero_event_probability(widths, p) -> float:
    """``1 - prod_i (1 - (1-p)^{n_i})``: some layer's mask is all zero."""
    q = 1.0 - float(p)
    return 1.0 - math.prod(1.0 - q**n for n in widths[1:])


def beta(widths, p, mu4: float, u_l4: float) -> float:
    """The paper's variance parameter ``(3/p - 1) sum 1/n_i + (mu4-3)/(p n_1) ||u||_4^4``."""
    p = float(p)
    return (3.0 / p - 1.0) * sum(1.0 / n for n in widths[1:]) + (mu4 - 3.0) / (p * widths[1]) * u_l4


def _layer_cumulants(n: int, p: float) -> np.ndarray:
    """First four cumulants of ``ln(chi2_K / (p n))`` with ``K ~ Bin(n, p) | K >= 1``.

    Given K, ``ln chi2_K = ln 2 + ln Gamma(K/2)`` has cumulants
    ``psi(K/2) + ln 2`` and ``psi^(r-1)(K/2)`` for r >= 2.  The binomial
    mixture is taken through raw moments.
    """
    if p == 1.0:
        ks, w = np.array([n]), np.array([1.0])
    else:
        ks = np.arange(1, n + 1)
        w = stats.binom.pmf(ks, n, p)
        w = w / w.sum()
    a = ks / 2.0
    c1 = special.digamma(a) + math.log(2.0) - math.log(p * n)
    c2, c3, c4 = (special.polygamma(r, a) for r in (1, 2, 3))
    m1 = w @ c1
    m2 = w @ (c2 + c1**2)
    m3 = w @ (c3 + 3 * c2 * c1 + c1**3)
    m4 = w @ (c4 + 4 * c3 * c1 + 3 * c2**2 + 6 * c2 * c1**2 + c1**4)
    return np.array([
        m1,
        m2 - m1**2,
        m3 - 3 * m2 * m1 + 2 * m1**3,
        m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4,
    ])


def log_norm_cumulants(widths, p) -> np.ndarray:
    """First four cumulants of ``ln Z`` over surviving trials (Gaussian entries).

    Conditioned on survival the layers stay independent, so the cumulants
    add up layer by layer.
    """
    p = float(p)
    return sum((_layer_cumulants(n, p) for n in widths[1:]), np.zeros(4))


def log_norm_mean_variance(widths, p) -> tuple[float, float]:
    """Mean ``sum E[psi(K_i/2)] + ln 2 - ln(p n_i)`` and variance of ``ln Z``."""
    c = log_norm_cumulants(widths, p)
    return float(c[0]), float(c[1])


def sample_mean_variance_se(widths, p, samples: int) -> tuple[float, float]:
    """Standard errors of the sample mean and sample variance of ``ln Z``.

    ``sqrt(k2 / N)`` and ``sqrt((k4 + 2 k2^2) / N)``, the large-N standard
    error of the unbiased variance.
    """
    c = log_norm_cumulants(widths, p)
    return math.sqrt(c[1] / samples), math.sqrt((c[3] + 2 * c[1] ** 2) / samples)


def binomial_interval(trials: int, prob: float, tail: float = 1e-7) -> tuple[int, int]:
    """Counts outside ``[lo, hi]`` have probability below ``2 tail``."""
    lo = int(stats.binom.ppf(tail, trials, prob))
    hi = int(stats.binom.isf(tail, trials, prob))
    return lo, hi


def _row_law(v: tuple[int, ...], p: Fraction) -> Counter:
    """Law of one masked output coordinate ``b * (w . v)`` with ±1 entries."""
    law = Counter()
    weight = Fraction(1, 2 ** len(v))
    for signs in product((1, -1), repeat=len(v)):
        value = sum(s * x for s, x in zip(signs, v))
        law[value] += weight * p
        if p < 1:
            law[0] += weight * (1 - p)
    return law


def rademacher_law(widths, p, u: str) -> Counter:
    """Exact law of ``Z`` for ±1 entries, by enumerating every sign and mask.

    The propagated vector stays integer when ``u`` is ``e1`` or the all-ones
    direction (``uniform``), so the law of ``X_d ... X_1 u`` is tracked as an
    exact distribution over integer vectors.  Rows of a layer are
    independent, so each layer's output law is a product of row laws.
    """
    p = Fraction(p)
    n0 = widths[0]
    if u == "e1":
        start, scale = (1,) + (0,) * (n0 - 1), Fraction(1)
    elif u == "uniform":
        start, scale = (1,) * n0, Fraction(1, n0)
    else:
        raise ValueError(f"u must be e1 or uniform, got {u!r}")
    states = Counter({start: Fraction(1)})
    for n in widths[1:]:
        nxt = Counter()
        for v, prob in states.items():
            rows = _row_law(v, p)
            for out in product(rows.items(), repeat=n):
                nxt[tuple(x for x, _ in out)] += prob * math.prod(w for _, w in out)
        states = nxt
    norm = Fraction(n0, widths[-1]) * scale / math.prod(p * n for n in widths[:-1])
    law = Counter()
    for v, prob in states.items():
        law[norm * sum(x * x for x in v)] += prob
    return law


def law_moment(law: Counter, k: int) -> Fraction:
    """``E[Z^k]`` of a finite law ``{value: probability}``."""
    return sum((prob * z**k for z, prob in law.items()), Fraction(0))


def ks_bound(critical_5pct: float) -> float:
    """Two-sample KS acceptance bound: twice the 5% critical value.

    ``2 * 1.358 = 2.716`` standard units, a false alarm rate of about
    ``2 exp(-2 * 2.716^2) = 8e-7`` per check, so a change of random stream
    does not trip it while a wrong law with KS above it still fails.
    """
    return 2.0 * critical_5pct
