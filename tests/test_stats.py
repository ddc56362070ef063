import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from matprod import (
    BetaParams,
    EmptyBatch,
    InsufficientSamples,
    one_sample_ks,
    summary,
    two_sample_ks,
)


def normal_cdf(t):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def limit_law(beta):
    return BetaParams(beta=beta, term_width=beta, term_fourth=0.0)


BETAS = [1e-3, 0.25, 1.25, 4.0, 37.5]


class TestLimitLawCdf:
    # BetaParams.cdf is the CDF of the limiting law Normal(-beta/2, beta)

    @pytest.mark.parametrize("beta", BETAS)
    def test_center(self, beta):
        params = limit_law(beta)
        assert params.cdf(params.predicted_mean) == 0.5

    @pytest.mark.parametrize("beta", BETAS)
    def test_agrees_with_reference(self, beta):
        params = limit_law(beta)
        grid = params.predicted_mean + math.sqrt(beta) * np.linspace(-8, 8, 1601)
        ours = np.array([params.cdf(x) for x in grid])
        ref = scipy.stats.norm(-beta / 2, math.sqrt(beta)).cdf(grid)
        assert float(np.max(np.abs(ours - ref))) < 1e-12

    @pytest.mark.parametrize("beta", BETAS)
    def test_symmetry(self, beta):
        params = limit_law(beta)
        for t in math.sqrt(beta) * np.linspace(-10, 10, 101):
            total = params.cdf(params.predicted_mean + t) + params.cdf(params.predicted_mean - t)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_monotone(self, beta):
        params = limit_law(beta)
        grid = params.predicted_mean + math.sqrt(beta) * np.linspace(-12, 12, 501)
        vals = [params.cdf(x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_standardizes_then_applies_the_normal_cdf(self, rng):
        # the order the KS statistics were taken in: scale by 1/sqrt(beta),
        # then the standard normal CDF, so they keep their last digits
        params = limit_law(1.25)
        for x in rng.standard_normal(200) * 2:
            z = (x - params.predicted_mean) * (1.0 / math.sqrt(params.beta))
            assert params.cdf(x) == normal_cdf(z)


class TestOneSampleKs:
    def test_single_point_at_median(self):
        report = one_sample_ks(np.array([0.0]), normal_cdf)
        assert report.statistic == pytest.approx(0.5)
        assert report.critical_5pct == pytest.approx(1.358)

    def test_single_sample_at_the_limit_laws_median(self):
        assert one_sample_ks(np.array([-1.0]), limit_law(2.0).cdf).statistic == 0.5

    def test_plug_in_quantiles(self):
        n = 1000
        levels = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        samples = scipy.special.ndtri(levels)
        assert one_sample_ks(samples, normal_cdf).statistic <= 1 / (2 * n) + 1e-9

    def test_far_tail_mass(self):
        samples = np.full(50, 40.0)
        assert one_sample_ks(samples, normal_cdf).statistic == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBatch):
            one_sample_ks(np.array([]), normal_cdf)

    def test_affine_invariance(self, rng):
        params = limit_law(0.25)
        samples = np.sort(rng.standard_normal(2000) * 0.6 - 0.2)
        direct = one_sample_ks(samples, params.cdf)
        standardized = one_sample_ks((samples + 0.125) / 0.5, normal_cdf)
        assert standardized.statistic == pytest.approx(direct.statistic, abs=1e-12)
        assert standardized.critical_5pct == direct.critical_5pct

    def test_agrees_with_reference(self, rng):
        samples = np.sort(rng.standard_normal(321) * 1.1 + 0.05)
        ours = one_sample_ks(samples, normal_cdf).statistic
        ref = scipy.stats.kstest(samples, scipy.stats.norm.cdf, method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_equals_the_one_sided_limits(self, rng):
        # the reference builds both one-sided gaps whole; the work array
        # gives the same maximum, bit for bit
        def reference(x, cdf):
            n = x.size
            ref = np.array([cdf(t) for t in x])
            return float(max((np.arange(1, n + 1) / n - ref).max(),
                             (ref - np.arange(n) / n).max()))

        for _ in range(50):
            n, support = rng.integers(1, 400, size=2)
            x = np.sort(rng.integers(0, support, size=n) / 7.0 - support / 14.0)
            assert one_sample_ks(x, normal_cdf).statistic == reference(x, normal_cdf)

    def test_critical_value_scale(self):
        report = one_sample_ks(np.linspace(-1, 1, 100), normal_cdf)
        assert report.critical_5pct == pytest.approx(0.1358)


class TestTwoSampleKs:
    def test_identical_multisets(self):
        report = two_sample_ks([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.statistic == 0.0

    def test_disjoint_supports(self):
        assert two_sample_ks([0.0], [1.0]).statistic == 1.0

    def test_quarter_example(self):
        report = two_sample_ks([1, 2, 3, 4], [1, 2, 3, 5])
        assert report.statistic == pytest.approx(0.25)
        assert report.critical_5pct == pytest.approx(1.358 * math.sqrt(8 / 16))

    def test_symmetry(self, rng):
        a = np.sort(rng.standard_normal(40))
        b = np.sort(rng.standard_normal(60)) + 0.3
        assert two_sample_ks(a, b).statistic == two_sample_ks(b, a).statistic

    def test_invariant_under_monotone_transform(self, rng):
        a = np.sort(rng.standard_normal(50))
        b = np.sort(rng.standard_normal(50)) * 1.4
        base = two_sample_ks(a, b).statistic
        for transform in (np.exp, np.arctan, lambda t: t**3):
            assert two_sample_ks(transform(a), transform(b)).statistic == pytest.approx(base)

    def test_agrees_with_reference(self, rng):
        a = np.sort(rng.standard_normal(321))
        b = np.sort(rng.standard_normal(123)) * 1.2 - 0.1
        ours = two_sample_ks(a, b).statistic
        ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBatch):
            two_sample_ks([], [1.0])

    def test_equals_merged_support_evaluation(self, rng):
        # the reference evaluates both CDFs at every point of the merged
        # samples; each side's own points give the same maximum, bit for bit
        def merged_reference(a, b):
            merged = np.concatenate([a, b])
            cdf_a = np.searchsorted(a, merged, side="right") / a.size
            cdf_b = np.searchsorted(b, merged, side="right") / b.size
            return float(np.max(np.abs(cdf_a - cdf_b)))

        for _ in range(200):
            m, n, support = rng.integers(1, 60, size=3)
            a = np.sort(rng.integers(0, support, size=m) / 3.0)
            b = np.sort(rng.integers(0, support, size=n) / 3.0)
            assert two_sample_ks(a, b).statistic == merged_reference(a, b)


@pytest.mark.parametrize(
    "call",
    [lambda x: one_sample_ks(x, normal_cdf), lambda x: two_sample_ks(x, [0.0]),
     lambda x: two_sample_ks([0.0], x), summary],
    ids=["one-sample", "two-sample-left", "two-sample-right", "summary"],
)
def test_unsorted_samples_rejected(call):
    # the statistics read a sorted batch in place and never sort a copy
    for x in ([1.0, 0.0, 2.0], [0.0, np.nan], [np.nan, 0.0]):
        with pytest.raises(ValueError, match="sorted ascending"):
            call(np.array(x))


class TestSummary:
    def test_constant_batch(self):
        stats = summary(np.full(10, 2.5))
        assert stats.variance == 0.0
        assert stats.skewness == 0.0

    def test_two_point_batch(self):
        stats = summary(np.array([-1.0, 1.0]))
        assert stats.mean == 0.0
        assert stats.variance == pytest.approx(2.0)

    def test_against_reference(self, rng):
        x = np.sort(rng.standard_normal(5000)) * 2 + 1
        stats = summary(x)
        assert stats.mean == pytest.approx(float(np.mean(x)))
        assert stats.variance == pytest.approx(float(np.var(x, ddof=1)))
        assert stats.skewness == pytest.approx(
            float(scipy.stats.skew(x, bias=False)), rel=1e-9
        )
        assert stats.quantiles[0.25] == pytest.approx(float(np.quantile(x, 0.25)))

    def test_quantiles_equal_numpy(self, rng):
        cases = [
            [3.0, -1.0],  # n = 2
            [0.0, 1.0, 2.0, 3.0, 4.0],  # h = 4q: integer at q = 1/4, 1/2, 3/4
            [2.0] * 7 + [5.0] * 6 + [-1.0] * 8,  # ties; h = 20q is integer
            [1e-12, 1e12, -7.5, 0.1, 0.2, 0.3, 1.0 / 3.0],
        ] + [rng.standard_normal(n) * 3.0 for n in (3, 10, 101, 1234)]
        for x in map(np.sort, cases):
            for q, value in summary(x).quantiles.items():
                assert value == float(np.quantile(x, q))

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            summary(np.array([1.0]))
