import math
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    DimensionMismatch,
    EnsembleConfig,
    FloatRangeError,
    ReluNetConfig,
    UnitVector,
    compute_beta,
    error_budget,
    run_trials,
)
from matprod.montecarlo import _renormalize
from oracles import predict_layer_variance, unit_from_squares, zero_event_probability


def stream(seed=0):
    return np.random.default_rng(seed)


class TestWidths:
    @pytest.mark.parametrize(
        "widths, message",
        [((4,), "at least widths"), ((4, 0), "must be positive"), ((), "at least widths")],
    )
    def test_both_configs_reject_bad_widths(self, gauss, widths, message):
        with pytest.raises(ValueError, match=message):
            EnsembleConfig(widths, 1, gauss)
        with pytest.raises(ValueError, match=message):
            ReluNetConfig(widths, gauss)

    def test_both_configs_hold_widths_as_an_int_tuple(self, gauss):
        widths = [np.int64(4), 3.0, "5"]
        assert EnsembleConfig(widths, F(1, 2), gauss).widths == (4, 3, 5)
        assert ReluNetConfig(widths, gauss).widths == (4, 3, 5)
        assert EnsembleConfig((4, 3), 0.5, gauss) == EnsembleConfig([4, 3], F(1, 2), gauss)


class TestUnitVector:
    def test_basis_and_uniform_are_exact(self):
        e = UnitVector.basis(4)
        assert e.squares == (1, 0, 0, 0)
        u = UnitVector.uniform(4)
        assert u.squares == (F(1, 4),) * 4
        assert u.l4_norm_4 == pytest.approx(0.25)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            UnitVector([1.0, 1.0])

    def test_coords_is_a_read_only_float_array(self):
        u = UnitVector([0.6, 0.8])
        assert u.values == (0.6, 0.8)
        assert u.coords.dtype == np.float64 and u.coords.tolist() == [0.6, 0.8]
        assert u.coords is u.coords
        with pytest.raises(ValueError):
            u.coords[0] = 1.0
        with pytest.raises(ValueError):
            UnitVector(np.eye(2))
        with pytest.raises(ValueError):
            UnitVector([])

    @pytest.mark.parametrize(
        "u",
        [
            pytest.param(u, id=f"{name}{u.squares}")
            for name, u in [("uniform", UnitVector.uniform(n)) for n in range(1, 13)]
            + [
                ("e3", unit_from_squares([0, 0, 1, 0, 0])),
                ("custom", unit_from_squares([F(1, 3), F(1, 6), F(1, 2)])),
                ("custom", unit_from_squares([F(2, 7), F(3, 7), F(1, 7), F(1, 7)])),
            ]
        ],
    )
    def test_l4_norm_is_the_sum_of_exact_squares_squared(self, u):
        assert u.l4_norm_4 == sum(s * s for s in u.squares)

    def test_uniform_fourth_term_uses_the_exact_l4_norm(self, unif):
        # (mu4 - 3) / (p n_1) ||u||_4^4 = -12/175 = -0.06857142857142857142...,
        # rounded once; the l4 norm summed from rounded coordinates gave ...589,
        # and the float product of the exact l4 norm ...561
        params = compute_beta(EnsembleConfig((7, 5), F(1, 2), unif), UnitVector.uniform(7))
        assert format(params.term_fourth, ".17g") == "-0.068571428571428575"
        assert params.term_fourth == float(F(-12, 175))
        error = abs(F(params.term_fourth) - F(-12, 175))
        assert error < abs(F(-0.068571428571428589) - F(-12, 175))


class TestComputeBeta:
    def test_gaussian_p1_reduces_to_width_sum(self, gauss):
        cfg = EnsembleConfig((5, 4, 8), 1, gauss)
        params = compute_beta(cfg, UnitVector([0.6, 0.8, 0, 0, 0]))
        assert params.beta == pytest.approx(2 * (1 / 4 + 1 / 8))
        assert params.term_fourth == 0.0

    def test_rademacher_cancellation_gives_zero(self, rad):
        cfg = EnsembleConfig((2, 2), 1, rad)
        params = compute_beta(cfg, UnitVector.basis(2))
        assert params.beta == pytest.approx(0.0)
        assert params.term_width == pytest.approx(1.0)
        assert params.term_fourth == pytest.approx(-1.0)

    def test_half_mask_gaussian_constant_width(self, gauss):
        cfg = EnsembleConfig((64,) + (64,) * 16, F(1, 2), gauss)
        params = compute_beta(cfg, UnitVector.uniform(64))
        assert params.beta == pytest.approx(1.25)

    # the ReLU gradient-instability parameter: beta at mask rate 1/2
    @pytest.mark.parametrize(
        "widths, law_name, field, expected",
        [
            pytest.param((64,) * 17, "gauss", "beta", pytest.approx(1.25), id="constant-width"),
            pytest.param((10, 10), "gauss", "term_fourth", 0.0, id="gaussian-fourth-term"),
            pytest.param(
                (10, 10, 10), "unif", "term_fourth", pytest.approx(-0.24), id="uniform-fourth-term"
            ),
        ],
    )
    def test_half_mask_hand_values(self, widths, law_name, field, expected, request):
        cfg = EnsembleConfig(widths, F(1, 2), request.getfixturevalue(law_name))
        params = compute_beta(cfg, UnitVector.basis(widths[0]))
        assert getattr(params, field) == expected

    def test_dimension_mismatch(self, gauss):
        cfg = EnsembleConfig((3, 3), 1, gauss)
        with pytest.raises(DimensionMismatch):
            compute_beta(cfg, UnitVector.basis(4))
        with pytest.raises(DimensionMismatch):
            run_trials(cfg, UnitVector.basis(4), 10, seed=0)


class TestPropagation:
    # the law of the propagated vector, sampled through the block engine
    def test_all_zero_mask_sets_dead_flag(self, gauss):
        cfg = EnsembleConfig((2, 2), F(1, 10**9), gauss)
        batch = run_trials(cfg, UnitVector.basis(2), 300, seed=0)
        assert batch.zero_event_count == 300
        assert batch.samples.size == 0

    def test_gaussian_increment_is_chi_square_over_dof(self, gauss):
        # p=1 Gaussian: n * exp(one-layer increment) has the chi2_n law
        import scipy.stats

        n = 6
        cfg = EnsembleConfig((4, n), 1, gauss)
        batch = run_trials(cfg, UnitVector.uniform(4), 20000, seed=3)
        stat = scipy.stats.kstest(n * np.exp(batch.samples), scipy.stats.chi2(df=n).cdf).statistic
        assert stat < 0.015

    def test_states_stay_unit_norm(self):
        # one layer of the block accumulator: live rows come back unit-norm
        # with log(||v||^2 / divisor) added; a vanished row is zeroed and
        # logs -inf
        v = stream(13).standard_normal((6, 5))
        v[2] = 0.0
        raw_sq = np.einsum("ci,ci->c", v, v)
        logs = np.full(6, 0.5)
        unit = _renormalize(v, 2.5, logs)
        alive = np.isfinite(logs)
        assert alive.tolist() == [True, True, False, True, True, True]
        assert not unit[2].any() and logs[2] == -np.inf
        assert np.einsum("ci,ci->c", unit[alive], unit[alive]) == pytest.approx(1.0, abs=1e-12)
        assert logs[alive] == pytest.approx(0.5 + np.log(raw_sq[alive] / 2.5), abs=1e-12)
        # the next layer maps the zeroed row to 0 again: its log stays -inf
        # and its row zero, with no floating-point exception on the way
        before = logs.copy()
        with np.errstate(all="raise"):
            unit = _renormalize(unit @ stream(14).standard_normal((5, 4)), 4.0, logs)
        assert logs[2] == -np.inf and not unit[2].any()
        assert np.all(np.isfinite(logs[alive])) and np.all(logs[alive] != before[alive])
        # a row within the floor vanished too, though not exactly 0: zeroed
        logs = np.zeros(2)
        unit = _renormalize(np.array([[1e-20, 0.0], [3.0, 4.0]]), 5.0, logs, floor=1e-30)
        assert logs.tolist() == [-np.inf, np.log(5.0)] and not unit[0].any()

    def test_mean_of_exp_log_norm_is_one(self, gauss, rad):
        # zero events contribute 0 to the mean
        for law, widths, p, seed in [
            (gauss, (6, 6, 6), 1, 5),
            (gauss, (4, 8, 4), F(1, 2), 6),
            (rad, (3, 5, 3), F(1, 2), 7),
        ]:
            n = 10_000
            cfg = EnsembleConfig(widths, p, law)
            batch = run_trials(cfg, UnitVector.uniform(widths[0]), n, seed)
            assert abs(np.exp(batch.samples).sum() / n - 1.0) <= 5 / math.sqrt(n)


class TestPredictLayerVariance:
    def test_examples(self, gauss, rad):
        u = UnitVector.uniform(4)
        assert predict_layer_variance(u, 10, 1.0, 3.0) == pytest.approx(0.2)
        assert predict_layer_variance(UnitVector.basis(7), 10, 1.0, float(rad.moment(4))) == pytest.approx(0.0)
        assert predict_layer_variance(u, 10, 0.5, 3.0) == pytest.approx(0.5)

    def test_accepts_unnormalized_vectors(self):
        assert predict_layer_variance(np.array([3.0, 4.0]), 5, 0.5, 3.0) == pytest.approx(
            predict_layer_variance(np.array([0.6, 0.8]), 5, 0.5, 3.0)
        )

    @pytest.mark.parametrize("law_name,p", [("gaussian", 1.0), ("gaussian", 0.5), ("uniform", 0.5)])
    def test_matches_empirical_one_layer_variance(self, law_name, p):
        from matprod import law_from_name

        law = law_from_name(law_name)
        raw = np.array([0.9, 0.1, 0.3, 0.1, 0.2, 0.1, 0.1, 0.15])
        u = UnitVector(raw / np.linalg.norm(raw))
        n_next, trials = 8, 100_000
        rng = stream(42)
        mask = rng.random((trials, n_next)) < p
        w = law.sample(rng, (trials, n_next, u.dim))
        v = np.matmul(w, np.broadcast_to(u.coords, (trials, u.dim))[:, :, None])[:, :, 0]
        v = v * mask / math.sqrt(p * n_next)
        centered = np.einsum("ci,ci->c", v, v) - 1.0
        var_emp = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        se = math.sqrt(max(m4 - var_emp**2, 0.0) / trials)
        predicted = predict_layer_variance(u, n_next, p, float(law.moment(4)))
        assert abs(var_emp - predicted) <= 5 * se


class TestZeroEvent:
    def test_p_one_never_fires(self, gauss):
        est = zero_event_probability(EnsembleConfig((3, 3, 3), 1, gauss))
        assert est.probability == 0.0
        assert not est.lower_bound_only

    def test_single_layer(self, gauss):
        est = zero_event_probability(EnsembleConfig((5, 3), F(1, 2), gauss))
        assert est.probability == pytest.approx(1 / 8)

    def test_depth_four_by_direct_product(self, gauss):
        # direct evaluation of the product formula as the oracle
        per_layer = (1 - 0.5) ** 3
        expected = 1.0 - (1.0 - per_layer) ** 4
        est = zero_event_probability(EnsembleConfig((3, 3, 3, 3, 3), F(1, 2), gauss))
        assert est.probability == pytest.approx(expected)

    def test_atom_bearing_law_flagged_lower_bound(self, rad):
        est = zero_event_probability(EnsembleConfig((3, 3), F(1, 2), rad))
        assert est.lower_bound_only


class TestErrorBudget:
    def test_constant_width_sum(self, gauss):
        cfg = EnsembleConfig((64,) + (64,) * 16, 1, gauss)
        u = UnitVector.uniform(64)
        budget = error_budget(cfg, u)
        assert budget.sum_inv_sq_widths == pytest.approx(16 / 4096)
        assert budget.mask_term == 0.0
        assert compute_beta(cfg, u).beta == pytest.approx(0.5)
        assert budget.linear_term == pytest.approx((16 / 4096) / 0.5)

    def test_beta_zero_flags_infinite_terms(self, rad):
        cfg = EnsembleConfig((2, 2), 1, rad)
        budget = error_budget(cfg, UnitVector.basis(2))
        assert compute_beta(cfg, UnitVector.basis(2)).beta == pytest.approx(0.0)
        assert math.isinf(budget.linear_term)
        assert math.isinf(budget.fifth_root_term)
        assert math.isinf(budget.sqrt_term)

    def test_terms_outside_double_range_name_their_quantity(self, gauss):
        # beta = 2.25e160 is a double, beta**2 is not
        cfg = EnsembleConfig((4, 4, 4, 4), F(1, 10**160), gauss)
        assert compute_beta(cfg, UnitVector.uniform(4)).beta == pytest.approx(2.25e160)
        with pytest.raises(FloatRangeError, match=r"^ks_fifth_root_term needs beta\*\*2"):
            error_budget(cfg, UnitVector.uniform(4))
        # (3/p - 1) * 10 at p = 3e-308 is about 1e309
        cfg = EnsembleConfig((1,) * 11, F(3, 10**308), gauss)
        with pytest.raises(FloatRangeError, match=r"^term_width ~ 1e309 is outside"):
            compute_beta(cfg, UnitVector.basis(1))
