import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from matprod import (
    EmptyBatch,
    InsufficientSamples,
    normal_cdf,
    one_sample_critical_5pct,
    one_sample_ks,
    summary,
    two_sample_ks,
)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(-0.0) == 0.5

    def test_975_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_agrees_with_reference(self):
        grid = np.linspace(-8, 8, 1601)
        ours = np.array([normal_cdf(t) for t in grid])
        ref = scipy.special.ndtr(grid)
        assert float(np.max(np.abs(ours - ref))) < 1e-12

    def test_symmetry(self):
        for t in np.linspace(-10, 10, 101):
            assert normal_cdf(t) + normal_cdf(-t) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(-12, 12, 501)
        vals = [normal_cdf(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestOneSampleKs:
    def test_single_point_at_median(self):
        assert one_sample_ks(np.array([0.0]), normal_cdf) == pytest.approx(0.5)

    def test_plug_in_quantiles(self):
        n = 1000
        levels = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        samples = scipy.special.ndtri(levels)
        assert one_sample_ks(samples, normal_cdf) <= 1 / (2 * n) + 1e-9

    def test_far_tail_mass(self):
        samples = np.full(50, 40.0)
        assert one_sample_ks(samples, normal_cdf) == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(EmptyBatch):
            one_sample_ks(np.array([]), normal_cdf)


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

    def test_critical_value_scale(self):
        assert one_sample_critical_5pct(100) == pytest.approx(0.1358)


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
