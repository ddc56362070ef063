import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    AtomicLawError,
    BudgetExceeded,
    DimensionMismatch,
    DistributionSpec,
    EnsembleConfig,
    ReluNetConfig,
    UnitVector,
    rademacher,
    run_trials,
    two_sample_ks,
)
from matprod import montecarlo
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


def replay_block(cfg, x, seed, c):
    """Redraw block c of ``DOMAIN_NET_BLOCKS`` in the engine's order: per
    layer, for each trial, all n rows of the units open in its layer before
    (every unit of the input layer), in (trial, row, column) order, then the
    (CHUNK, n) biases.  Each weight is placed at its open unit's real index
    of a dense (CHUNK, n, m) array that is zero elsewhere.  Returns the
    weights and biases per layer, and per layer the (CHUNK,) counts of open
    units that sized its weight draws."""
    law = cfg.weight_law
    rng = chunk_stream(seed, DOMAIN_NET_BLOCKS, c)
    h = np.broadcast_to(x, (CHUNK, x.size))
    is_open = np.ones((CHUNK, x.size), dtype=bool)
    weights, biases, counts = [], [], []
    for m, n in zip(cfg.widths, cfg.widths[1:]):
        w = np.zeros((CHUNK, n, m))
        for t in range(CHUNK):
            cols = np.flatnonzero(is_open[t])
            w[t][:, cols] = law.sample(rng, (n, cols.size)) * math.sqrt(2 / m)
        b = law.sample(rng, (CHUNK, n)) * cfg.bias_scale
        counts.append(np.count_nonzero(is_open, axis=1))
        pre = np.einsum("cij,cj->ci", w, h) + b
        is_open = pre > 0.0
        h = np.maximum(pre, 0.0)
        weights.append(w)
        biases.append(b)
    return weights, biases, counts


class RecordingGenerator:
    """A generator that records the size of every normal draw, in order."""

    def __init__(self, gen):
        self.gen = gen
        self.sizes = []

    def standard_normal(self, shape):
        out = self.gen.standard_normal(shape)
        self.sizes.append(out.size)
        return out


class TestBlockEngine:
    def test_every_trial_matches_its_single_network(self, gauss):
        widths = (5, 6, 4, 3)
        cfg = tiny_config(gauss, widths=widths, bias_scale=0.5)
        x, u = default_input(5), UnitVector.uniform(5)
        logs = _jacobian_chunk(cfg, x, u.coords, chunk_stream(42, DOMAIN_NET_BLOCKS, 0))
        alive = np.isfinite(logs)
        weights, biases, _ = replay_block(cfg, x, 42, 0)
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

    @pytest.mark.parametrize(
        "widths, bias_scale, seed, c",
        [((5, 6, 4, 3), 0.5, 42, 0), ((3, 7, 2, 5, 4), 1.0, 7, 3), ((8, 16, 16, 16), 1.0, 13, 1)],
    )
    def test_draws_only_open_columns(self, gauss, widths, bias_scale, seed, c):
        # each layer draws n x (open units of the layer before) weights per
        # trial, every weight before the layer's n biases per trial
        cfg = tiny_config(gauss, widths=widths, bias_scale=bias_scale)
        x, u = inputs(cfg)
        rng = RecordingGenerator(chunk_stream(seed, DOMAIN_NET_BLOCKS, c))
        _jacobian_chunk(cfg, x, u.coords, rng)
        _, _, counts = replay_block(cfg, x, seed, c)
        sizes = rng.sizes
        for n, open_units in zip(widths[1:], counts):
            left = n * int(open_units.sum())
            while left:
                left -= sizes.pop(0)
                assert left >= 0
            assert sizes.pop(0) == CHUNK * n
        assert not sizes
        assert any(k.min() < k.max() for k in counts[1:])

    @pytest.mark.parametrize(
        "widths, budget, seed, c",
        [((5, 6, 4, 3), 40, 42, 0), ((8, 16, 16, 16), 300, 13, 1), ((64, 64, 64), None, 5, 0)],
    )
    def test_slices_bound_draws(self, gauss, monkeypatch, widths, budget, seed, c):
        # per layer the weights come in slices of consecutive trials, each
        # drawing its trials' n x (open units) weights and contracting a
        # (slice, n, block-wide max open units) array; a slice holds at most
        # max(budget, largest single-trial draw) numbers, and its padded
        # array at most the budget unless it is one trial
        if budget is not None:
            monkeypatch.setattr(montecarlo, "SLICE_ENTRIES", budget)
        budget = montecarlo.SLICE_ENTRIES
        cfg = tiny_config(gauss, widths=widths)
        x, u = inputs(cfg)
        _, _, counts = replay_block(cfg, x, seed, c)
        events = []
        sample, matmul = DistributionSpec.sample, np.matmul

        def recording_sample(law, rng, shape):
            out = sample(law, rng, shape)
            events.append(out.size)
            return out

        def recording_matmul(a, b):
            events.append(a.shape)
            return matmul(a, b)

        monkeypatch.setattr(DistributionSpec, "sample", recording_sample)
        monkeypatch.setattr(np, "matmul", recording_matmul)
        _jacobian_chunk(cfg, x, u.coords, chunk_stream(seed, DOMAIN_NET_BLOCKS, c))
        sliced = False
        for n, open_units in zip(widths[1:], counts):
            cap = max(budget, n * int(open_units.max()))
            lo = 0
            while lo < CHUNK:
                draw, shape = events.pop(0), events.pop(0)
                hi = lo + shape[0]
                assert shape[1:] == (n, open_units.max())
                assert draw == n * open_units[lo:hi].sum() <= cap
                assert shape[0] == 1 or shape[0] * shape[1] * shape[2] <= budget
                sliced |= shape[0] < CHUNK
                lo = hi
            assert lo == CHUNK
            assert events.pop(0) == CHUNK * n
        assert not events
        assert sliced

    def test_block_memory_is_a_few_slices(self, gauss):
        # 256x8: a dense (CHUNK, 256, 256) weight block alone would be 128 MiB
        cfg = tiny_config(gauss, widths=(256,) * 9)
        x, u = inputs(cfg)
        tracemalloc.start()
        try:
            _jacobian_chunk(cfg, x, u.coords, chunk_stream(1, DOMAIN_NET_BLOCKS, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

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
        # jacobian-compare --widths 8,16x3 --trials 20000: 79 blocks; all 8
        # input columns, then half of each 16-unit layer open
        cfg = tiny_config(gauss, widths=(8, 16, 16, 16))
        assert jacobian_draws(cfg, 20_000) == 79 * 256 * (16 * 8 + 16 + 2 * (16 * 8 + 16))
        assert jacobian_draws(cfg, 20_000) <= SAMPLER_BUDGET

    def test_narrow_layers_charge_the_floor(self, gauss):
        cfg = tiny_config(gauss, widths=(1, 1, 16))
        assert jacobian_draws(cfg, 10) == 256 * (TRIAL_LAYER_FLOOR + 16 * 0.5 + 16)

    def test_minutes_of_sampling_refused_up_front(self, gauss):
        cfg = tiny_config(gauss, widths=(1000,) * 121)
        assert jacobian_draws(cfg, 200) == 256 * (1000**2 + 1000 + 119 * (1000 * 500 + 1000))
        with pytest.raises(BudgetExceeded, match=r"^Jacobian sampler draws"):
            jacobian_batch(cfg, 200, 0, *inputs(cfg))
