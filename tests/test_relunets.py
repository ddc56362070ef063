import math
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    Architecture,
    AtomicLawError,
    DimensionMismatch,
    ReluNet,
    ReluNetConfig,
    UnitVector,
    compare_jacobian_vs_product,
    evgp_beta,
    forward,
    jacobian_log_norm,
    jacobian_matrix,
    make_config,
    rademacher,
    sample_network,
    two_sample_ks,
    zero_event_probability,
)
from matprod.montecarlo import CHUNK, DOMAIN_NET_BLOCKS, chunk_stream
from matprod.relunets import (
    _jacobian_chunk,
    apply_network,
    default_input,
    jacobian_batch,
    relu,
)


def tiny_config(gauss, widths=(5, 6, 4, 3), seed=42, bias_scale=1.0):
    return ReluNetConfig(
        architecture=Architecture(widths), weight_law=gauss, seed=seed, bias_scale=bias_scale
    )


class TestConfig:
    def test_rejects_atom_bearing_weight_law(self):
        with pytest.raises(AtomicLawError):
            ReluNetConfig(architecture=Architecture((3, 3)), weight_law=rademacher())

    def test_rejects_nonpositive_bias_scale(self, gauss):
        with pytest.raises(ValueError):
            ReluNetConfig(architecture=Architecture((3, 3)), weight_law=gauss, bias_scale=0.0)

    def test_weight_scale_is_two_over_fan_in(self, gauss):
        cfg = tiny_config(gauss, widths=(50, 80), seed=1)
        net = sample_network(cfg, 0)
        assert net.weights[0].shape == (80, 50)
        assert float(np.var(net.weights[0])) == pytest.approx(2 / 50, rel=0.15)


class TestForward:
    def test_relu_componentwise(self):
        assert relu(np.array([-1.0, 2.0])) == pytest.approx([0.0, 2.0])

    def test_all_negative_preactivations_zero_out(self):
        net = ReluNet(
            weights=(np.array([[1.0], [1.0]]), np.array([[1.0, 1.0]])),
            biases=(np.array([-10.0, -10.0]), np.array([5.0])),
        )
        trace = forward(net, np.array([1.0]))
        assert np.all(trace.activations[0] == 0.0)
        assert trace.activations[1] == pytest.approx([5.0])

    def test_scaled_identity_passthrough(self):
        net = ReluNet(weights=(np.eye(3) * 0.5,), biases=(np.zeros(3),))
        x = np.array([2.0, 4.0, 6.0])
        trace = forward(net, x)
        assert trace.activations[0] == pytest.approx(0.5 * x)

    def test_dimension_mismatch(self, gauss):
        net = sample_network(tiny_config(gauss), 0)
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(7))


class TestJacobian:
    def test_scalar_open_neuron(self):
        net = ReluNet(weights=(np.array([[2.0]]),), biases=(np.array([0.5]),))
        value = jacobian_log_norm(net, np.array([1.0]), UnitVector.basis(1))
        assert value == pytest.approx(math.log(4.0))

    def test_scalar_dead_neuron(self):
        net = ReluNet(weights=(np.array([[2.0]]),), biases=(np.array([-5.0]),))
        assert jacobian_log_norm(net, np.array([1.0]), UnitVector.basis(1)) is None

    def test_zero_input_rejected(self, gauss):
        net = sample_network(tiny_config(gauss), 0)
        with pytest.raises(ValueError):
            jacobian_log_norm(net, np.zeros(5), UnitVector.uniform(5))

    def test_matrix_and_vector_paths_agree(self, gauss):
        cfg = tiny_config(gauss)
        u = UnitVector.uniform(5)
        x = default_input(5)
        for t in range(10):
            net = sample_network(cfg, t)
            dense = jacobian_matrix(net, x)
            ju = dense.matrix @ u.coords
            sq = float(ju @ ju)
            value = jacobian_log_norm(net, x, u)
            if sq == 0.0:
                assert value is None
            else:
                assert value == pytest.approx(math.log(5 / 3 * sq), rel=1e-10)

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
            cfg = ReluNetConfig(architecture=Architecture(widths), weight_law=gauss, seed=1234)
            net = sample_network(cfg, trial)
            x = rng.standard_normal(widths[0])
            trace = forward(net, x)
            if min(float(np.min(np.abs(p))) for p in trace.preactivations) <= margin:
                continue
            direction = rng.standard_normal(widths[0])
            u = UnitVector.from_coords(direction / np.linalg.norm(direction))
            fd = (apply_network(net, x + eps * u.coords) - apply_network(net, x)) / eps
            ju = jacobian_matrix(net, x).matrix @ u.coords
            assert float(np.max(np.abs(fd - ju))) <= 1e-5
            checked += 1

    def test_open_fraction_is_half(self, gauss):
        widths = (4, 5, 5, 4)
        cfg = ReluNetConfig(architecture=Architecture(widths), weight_law=gauss, seed=7)
        nets = 10_000
        x = default_input(4)
        opens = 0
        neurons = 0
        for t in range(nets):
            net = sample_network(cfg, t)
            result = jacobian_matrix(net, x)
            opens += sum(result.open_counts)
            neurons += sum(widths[1:])
        rate = opens / neurons
        se = math.sqrt(0.25 / neurons)
        assert abs(rate - 0.5) <= 5 * se


class TestBlockEngine:
    def test_every_trial_matches_its_single_network(self, gauss, unif):
        widths = (5, 6, 4, 3)
        cfg = ReluNetConfig(
            architecture=Architecture(widths), weight_law=gauss, bias_law=unif, bias_scale=0.5
        )
        x, u = default_input(5), UnitVector.uniform(5)
        logs, alive = _jacobian_chunk(cfg, x, u.coords, chunk_stream(42, DOMAIN_NET_BLOCKS, 0))
        # replay the block's draws: per layer the weight block, then the bias block
        rng = chunk_stream(42, DOMAIN_NET_BLOCKS, 0)
        weights, biases = [], []
        for m, n in zip(widths, widths[1:]):
            weights.append(gauss.sample(rng, (CHUNK, n, m)) * math.sqrt(2 / m))
            biases.append(unif.sample(rng, (CHUNK, n)) * 0.5)
        dead = 0
        for t in range(CHUNK):
            net = ReluNet(weights=tuple(w[t] for w in weights), biases=tuple(b[t] for b in biases))
            value = jacobian_log_norm(net, x, u)
            ju = jacobian_matrix(net, x).matrix @ u.coords
            sq = float(ju @ ju)
            if value is None:
                assert not alive[t] and sq == 0.0
                dead += 1
            else:
                assert alive[t]
                assert logs[t] == pytest.approx(value, rel=1e-12)
                assert logs[t] == pytest.approx(math.log(5 / 3 * sq), rel=1e-10)
        assert 0 < dead < CHUNK

    def test_thread_count_does_not_change_batch(self, gauss):
        cfg = tiny_config(gauss, widths=(6, 8, 8, 8, 8))
        first, *rest = [jacobian_batch(cfg, 1000, seed=9, threads=t) for t in (1, 2, 3)]
        assert first.zero_event_count > 0
        for batch in rest:
            assert np.array_equal(batch.samples, first.samples)
            assert batch.zero_event_count == first.zero_event_count

    def test_zero_event_rate(self, gauss):
        widths = (3, 3, 3, 3, 3)
        cfg = ReluNetConfig(architecture=Architecture(widths), weight_law=gauss, seed=1210)
        n = 20_000
        batch = jacobian_batch(cfg, n)
        q = zero_event_probability(make_config(widths, F(1, 2), gauss)).probability
        assert abs(batch.zero_event_rate - q) <= 4 * math.sqrt(q * (1 - q) / n)

    def test_input_checks(self, gauss):
        cfg = tiny_config(gauss)
        with pytest.raises(ValueError):
            jacobian_batch(cfg, 10, x=np.zeros(5))
        with pytest.raises(DimensionMismatch):
            jacobian_batch(cfg, 10, u=UnitVector.uniform(4))
        with pytest.raises(DimensionMismatch):
            jacobian_batch(cfg, 10, x=np.ones(4))


class TestEvgpBeta:
    def test_constant_width(self, gauss):
        cfg = ReluNetConfig(architecture=Architecture((64,) + (64,) * 16), weight_law=gauss)
        assert evgp_beta(cfg, UnitVector.basis(64)).beta == pytest.approx(1.25)

    def test_gaussian_fourth_term_vanishes(self, gauss):
        cfg = ReluNetConfig(architecture=Architecture((10, 10)), weight_law=gauss)
        assert evgp_beta(cfg, UnitVector.basis(10)).term_fourth == 0.0

    def test_uniform_law_fourth_term(self, unif):
        cfg = ReluNetConfig(architecture=Architecture((10, 10, 10)), weight_law=unif)
        assert evgp_beta(cfg, UnitVector.basis(10)).term_fourth == pytest.approx(-0.24)


class TestComparison:
    def test_self_comparison_is_exactly_zero(self, gauss):
        from matprod import make_config, run_trials

        cfg = make_config((8, 16, 16, 16), F(1, 2), gauss)
        u = UnitVector.uniform(8)
        a = run_trials(cfg, u, 2000, seed=31)
        b = run_trials(cfg, u, 2000, seed=31)
        assert two_sample_ks(a.samples, b.samples).statistic == 0.0

    def test_matches_product_law(self, gauss):
        cfg = ReluNetConfig(architecture=Architecture((8, 16, 16, 16)), weight_law=gauss)
        comparison = compare_jacobian_vs_product(cfg, trials=5000, seed=13)
        assert comparison.ks.statistic <= comparison.ks.critical_5pct * 1.5

    def test_negative_control_detected(self, gauss):
        cfg = ReluNetConfig(architecture=Architecture((8, 16, 16, 16)), weight_law=gauss)
        comparison = compare_jacobian_vs_product(
            cfg, trials=5000, seed=13, product_p=F(9, 10)
        )
        assert comparison.ks.statistic > 0.05

    def test_input_choice_does_not_change_law(self, gauss):
        cfg = ReluNetConfig(architecture=Architecture((8, 16, 16, 16)), weight_law=gauss)
        e1 = np.zeros(8)
        e1[0] = 1.0
        a = jacobian_batch(cfg, 20_000, seed=3, x=e1)
        b = jacobian_batch(cfg, 20_000, seed=4, x=default_input(8))
        report = two_sample_ks(a.samples, b.samples)
        assert report.statistic <= 0.02

    def test_trial_floor(self, gauss):
        cfg = tiny_config(gauss)
        with pytest.raises(ValueError):
            compare_jacobian_vs_product(cfg, trials=10, seed=0)
