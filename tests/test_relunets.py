import math
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    AtomicLawError,
    BudgetExceeded,
    DimensionMismatch,
    EnsembleConfig,
    ReluNetConfig,
    UnitVector,
    rademacher,
    run_trials,
    two_sample_ks,
)
from matprod.montecarlo import (
    CHUNK,
    DOMAIN_NET_BLOCKS,
    SAMPLER_BUDGET,
    TRIAL_LAYER_FLOOR,
    chunk_stream,
)
from matprod.relunets import (
    _jacobian_chunk,
    default_input,
    jacobian_batch,
    jacobian_draws,
)
from oracles import dense_jacobian, forward, sample_network, zero_event_probability


def tiny_config(gauss, widths=(5, 6, 4, 3), bias_scale=1.0):
    return ReluNetConfig(widths, weight_law=gauss, bias_scale=bias_scale)


def inputs(cfg):
    """The CLI's default evaluation input and direction: all-ones x, uniform u."""
    n0 = cfg.widths[0]
    return default_input(n0), UnitVector.uniform(n0)


class TestConfig:
    def test_rejects_atom_bearing_weight_law(self):
        with pytest.raises(AtomicLawError):
            ReluNetConfig((3, 3), weight_law=rademacher())

    def test_rejects_nonpositive_bias_scale(self, gauss):
        with pytest.raises(ValueError):
            ReluNetConfig((3, 3), weight_law=gauss, bias_scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_rejects_non_finite_bias_scale(self, gauss, scale):
        with pytest.raises(ValueError, match="positive and finite"):
            ReluNetConfig((3, 3), weight_law=gauss, bias_scale=scale)

    def test_weight_scale_is_two_over_fan_in(self, gauss):
        cfg = tiny_config(gauss, widths=(50, 80))
        weights, _ = sample_network(cfg, 1, 0)
        assert weights[0].shape == (80, 50)
        assert float(np.var(weights[0])) == pytest.approx(2 / 50, rel=0.15)


class TestForward:
    # the forward pass of the test-side oracle
    def test_all_negative_preactivations_zero_out(self):
        weights = [np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])]
        biases = [np.array([-10.0, -10.0]), np.array([5.0])]
        out, pres = forward(weights, biases, np.array([1.0]))
        assert np.all(pres[0] < 0.0)
        assert out == pytest.approx([5.0])

    def test_scaled_identity_passthrough(self):
        x = np.array([2.0, 4.0, 6.0])
        out, _ = forward([np.eye(3) * 0.5], [np.zeros(3)], x)
        assert out == pytest.approx(0.5 * x)


class TestJacobian:
    def test_finite_difference_agreement(self, gauss):
        # ReLU nets are exactly linear away from activation boundaries
        eps = 1e-6
        margin = 1e-4
        checked = 0
        trial = 0
        rng = np.random.default_rng(99)
        while checked < 50:
            trial += 1
            widths = tuple(int(w) for w in rng.integers(2, 9, size=int(rng.integers(2, 5))))
            cfg = ReluNetConfig(widths, weight_law=gauss)
            weights, biases = sample_network(cfg, 1234, trial)
            x = rng.standard_normal(widths[0])
            out, pres = forward(weights, biases, x)
            if min(float(np.min(np.abs(p))) for p in pres) <= margin:
                continue
            direction = rng.standard_normal(widths[0])
            u = UnitVector(direction / np.linalg.norm(direction))
            fd = (forward(weights, biases, x + eps * u.coords)[0] - out) / eps
            ju = dense_jacobian(weights, biases, x) @ u.coords
            assert float(np.max(np.abs(fd - ju))) <= 1e-5
            checked += 1

    def test_open_fraction_is_half(self, gauss):
        widths = (4, 5, 5, 4)
        cfg = ReluNetConfig(widths, weight_law=gauss)
        nets = 10_000
        x = default_input(4)
        opens = 0
        neurons = 0
        for t in range(nets):
            _, pres = forward(*sample_network(cfg, 7, t), x)
            opens += sum(int(np.count_nonzero(pre > 0.0)) for pre in pres)
            neurons += sum(widths[1:])
        rate = opens / neurons
        se = math.sqrt(0.25 / neurons)
        assert abs(rate - 0.5) <= 5 * se


class TestBlockEngine:
    def test_every_trial_matches_its_single_network(self, gauss):
        widths = (5, 6, 4, 3)
        cfg = tiny_config(gauss, widths=widths, bias_scale=0.5)
        x, u = default_input(5), UnitVector.uniform(5)
        logs, alive = _jacobian_chunk(cfg, x, u.coords, chunk_stream(42, DOMAIN_NET_BLOCKS, 0))
        # replay the block's draws: per layer the weight block, then the bias block
        rng = chunk_stream(42, DOMAIN_NET_BLOCKS, 0)
        weights, biases = [], []
        for m, n in zip(widths, widths[1:]):
            weights.append(gauss.sample(rng, (CHUNK, n, m)) * math.sqrt(2 / m))
            biases.append(gauss.sample(rng, (CHUNK, n)) * 0.5)
        dead = 0
        for t in range(CHUNK):
            ju = dense_jacobian([w[t] for w in weights], [b[t] for b in biases], x) @ u.coords
            sq = float(ju @ ju)
            assert alive[t] == (sq > 0.0)
            if sq == 0.0:
                dead += 1
            else:
                assert logs[t] == pytest.approx(math.log(5 / 3 * sq), rel=1e-10)
        assert 0 < dead < CHUNK

    def test_thread_count_does_not_change_batch(self, gauss):
        cfg = tiny_config(gauss, widths=(6, 8, 8, 8, 8))
        x, u = inputs(cfg)
        first, *rest = [jacobian_batch(cfg, 1000, 9, x, u, threads=t) for t in (1, 2, 3)]
        assert first.zero_event_count > 0
        for batch in rest:
            assert np.array_equal(batch.samples, first.samples)
            assert batch.zero_event_count == first.zero_event_count

    def test_zero_event_rate(self, gauss):
        widths = (3, 3, 3, 3, 3)
        cfg = ReluNetConfig(widths, weight_law=gauss)
        n = 20_000
        batch = jacobian_batch(cfg, n, 1210, *inputs(cfg))
        q = zero_event_probability(EnsembleConfig(widths, F(1, 2), gauss)).probability
        assert abs(batch.zero_event_rate - q) <= 4 * math.sqrt(q * (1 - q) / n)

    def test_input_checks(self, gauss):
        cfg = tiny_config(gauss)
        x, u = inputs(cfg)
        with pytest.raises(ValueError):
            jacobian_batch(cfg, 10, 0, np.zeros(5), u)
        with pytest.raises(DimensionMismatch):
            jacobian_batch(cfg, 10, 0, x, UnitVector.uniform(4))
        with pytest.raises(DimensionMismatch):
            jacobian_batch(cfg, 10, 0, np.ones(4), u)


def ks_vs_product(net, product_p, trials, seed):
    """jacobian-compare's two-sample KS report: the Jacobian batch against
    the product batch with the same widths, law and seed at ``product_p``."""
    x, u = inputs(net)
    jac = jacobian_batch(net, trials, seed, x, u)
    product = run_trials(EnsembleConfig(net.widths, product_p, net.weight_law), u, trials, seed)
    return two_sample_ks(jac.samples, product.samples)


class TestComparison:
    def test_self_comparison_is_exactly_zero(self, gauss):
        cfg = EnsembleConfig((8, 16, 16, 16), F(1, 2), gauss)
        u = UnitVector.uniform(8)
        a = run_trials(cfg, u, 2000, seed=31)
        b = run_trials(cfg, u, 2000, seed=31)
        assert two_sample_ks(a.samples, b.samples).statistic == 0.0

    def test_matches_product_law(self, gauss):
        report = ks_vs_product(ReluNetConfig((8, 16, 16, 16), gauss), F(1, 2), 5000, 13)
        assert report.statistic <= report.critical_5pct * 1.5

    def test_negative_control_detected(self, gauss):
        report = ks_vs_product(ReluNetConfig((8, 16, 16, 16), gauss), F(9, 10), 5000, 13)
        assert report.statistic > 0.05

    def test_input_choice_does_not_change_law(self, gauss):
        cfg = ReluNetConfig((8, 16, 16, 16), weight_law=gauss)
        e1 = np.zeros(8)
        e1[0] = 1.0
        u = UnitVector.uniform(8)
        a = jacobian_batch(cfg, 20_000, 3, e1, u)
        b = jacobian_batch(cfg, 20_000, 4, default_input(8), u)
        report = two_sample_ks(a.samples, b.samples)
        assert report.statistic <= 0.02


class TestSamplerGuard:
    def test_acceptance_comparison_is_admitted(self, gauss):
        # jacobian-compare --widths 8,16x3 --trials 20000: 79 blocks
        cfg = tiny_config(gauss, widths=(8, 16, 16, 16))
        assert jacobian_draws(cfg, 20_000) == 79 * 256 * (8 * 16 + 16 + 2 * (16 * 16 + 16))
        assert jacobian_draws(cfg, 20_000) <= SAMPLER_BUDGET

    def test_narrow_layers_charge_the_floor(self, gauss):
        cfg = tiny_config(gauss, widths=(1, 1, 16))
        assert jacobian_draws(cfg, 10) == 256 * (TRIAL_LAYER_FLOOR + 16 * 1 + 16)

    def test_minutes_of_sampling_refused_up_front(self, gauss):
        cfg = tiny_config(gauss, widths=(1000,) * 121)
        assert jacobian_draws(cfg, 200) == 256 * 120 * (1000**2 + 1000)
        with pytest.raises(BudgetExceeded, match=r"^Jacobian sampler draws"):
            jacobian_batch(cfg, 200, 0, *inputs(cfg))
