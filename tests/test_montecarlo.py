import math
import os
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.stats

from matprod import (
    BudgetExceeded,
    EnsembleConfig,
    InsufficientSamples,
    SampleBatch,
    UnitVector,
    chi_square_product_sampler,
    discrete_symmetric,
    empirical_moment,
    rademacher,
    run_trials,
    two_sample_ks,
)
from matprod.distributions import DistributionSpec, law_from_name
from matprod import montecarlo
from matprod.montecarlo import CHUNK, DOMAIN_PRODUCT, _product_chunk, chunk_stream
from oracles import zero_event_probability


def replay_input(name, dim):
    """e1, the uniform vector, or a fixed generic direction."""
    if name == "e1":
        return UnitVector.basis(dim)
    if name == "uniform":
        return UnitVector.uniform(dim)
    coords = np.random.default_rng(7).standard_normal(dim)
    return UnitVector(coords / np.linalg.norm(coords))


def atomic_zero_probability(widths, p, law):
    """P(M_d X_d ... M_1 X_1 x0 = 0) for x0 = (1, ..., 1) and an atomic law
    with integer support, by a DP over the integer vectors after each layer.

    The law is symmetric, so a row's distribution depends only on the
    multiset of |coordinates| it contracts, which is the DP state; the last
    layer only needs the chance that one row is 0.
    """
    support = [(int(v), float(q)) for v, q in law.support_pairs()]
    p = float(p)
    states = {(1,) * widths[0]: 1.0}
    zero = 0.0
    for depth, n in enumerate(widths[1:], start=2):
        following = defaultdict(float)
        for state, weight in states.items():
            row = {0: 1.0}
            for a in state:
                step = defaultdict(float)
                for r, q in row.items():
                    for v, qv in support:
                        step[r + v * a] += q * qv
                row = step
            size = defaultdict(float)
            size[0] += 1.0 - p
            for r, q in row.items():
                size[abs(r)] += p * q
            if depth == len(widths):
                zero += weight * size[0] ** n
                continue
            rows = {(): 1.0}
            for _ in range(n):
                grown = defaultdict(float)
                for t, q in rows.items():
                    for r, qr in size.items():
                        grown[tuple(sorted(t + (r,)))] += q * qr
                rows = grown
            for t, q in rows.items():
                if any(t):
                    following[t] += weight * q
                else:
                    zero += weight * q
        states = following
    return zero


def manual_batch(samples, zero_events=0):
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    return SampleBatch(np.concatenate([np.full(zero_events, -np.inf), samples]))


class TestRunTrials:
    def test_empty(self, gauss):
        cfg = EnsembleConfig((3, 3), 1, gauss)
        batch = run_trials(cfg, UnitVector.uniform(3), 0, seed=0)
        assert batch.trials == 0
        assert batch.samples.size == 0
        assert batch.zero_event_count == 0
        # no trial ran, so no rate was measured
        assert batch.zero_event_rate is None

    def test_deterministic_ensemble_all_zero_logs(self, rad):
        cfg = EnsembleConfig((4, 1), 1, rad)
        batch = run_trials(cfg, UnitVector.basis(4), 100, seed=123)
        assert batch.samples.size == 100
        assert np.all(batch.samples == 0.0)

    def test_reproducible(self, gauss):
        cfg = EnsembleConfig((5, 6, 4), F(1, 2), gauss)
        u = UnitVector.uniform(5)
        a = run_trials(cfg, u, 3000, seed=9)
        b = run_trials(cfg, u, 3000, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert a.zero_event_count == b.zero_event_count

    def test_thread_count_does_not_change_results(self, gauss):
        cfg = EnsembleConfig((6, 6, 6), F(1, 2), gauss)
        u = UnitVector.uniform(6)
        serial = run_trials(cfg, u, 4000, seed=4, threads=1)
        threaded = run_trials(cfg, u, 4000, seed=4, threads=8)
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.zero_event_count == threaded.zero_event_count

    def test_workers_capped_at_usable_cpus(self, gauss, monkeypatch):
        # a thread beyond the CPUs the process may run on only waits its
        # turn; the recording pool runs the blocks in order and starts none
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        cfg, u = EnsembleConfig((1, 1), 1, gauss), UnitVector.basis(1)
        serial = run_trials(cfg, u, 10 * CHUNK, seed=0, threads=1)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        capped = run_trials(cfg, u, 10 * CHUNK, seed=0, threads=10_000)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        run_trials(cfg, u, 10 * CHUNK, seed=0, threads=10_000)
        assert pools == [3, 4]
        assert np.array_equal(capped.logs, serial.logs)

    def test_merge_property(self, gauss):
        # trial t's outcome depends on (seed, config, t) alone, so the first
        # n trials of a longer run are exactly the run of n trials: its
        # samples and zero events are among the longer run's.  At p = 3/4
        # about one trial in 200 is a zero event, so the counts are tested too.
        cfg = EnsembleConfig((4, 5, 4), F(3, 4), gauss)
        u = UnitVector.uniform(4)
        sizes = (0, 1, 255, 256, 257, 1700, 5000)
        runs = [run_trials(cfg, u, n, seed=21) for n in sizes]
        for part, whole in zip(runs, runs[1:]):
            left = Counter(whole.samples.tolist())
            left.subtract(part.samples.tolist())
            assert min(left.values()) >= 0, part.trials
            assert part.zero_event_count <= whole.zero_event_count
        assert 0 < runs[-2].zero_event_count < runs[-1].zero_event_count

    def test_zero_event_frequency_matches_formula(self, gauss):
        cfg = EnsembleConfig((3, 3, 3, 3, 3), F(1, 2), gauss)
        n = 100_000
        batch = run_trials(cfg, UnitVector.uniform(3), n, seed=17)
        q = zero_event_probability(cfg).probability
        tolerance = 4 * math.sqrt(q * (1 - q) / n)
        assert abs(batch.zero_event_rate - q) <= tolerance

    def test_batch_holds_one_double_per_trial(self, gauss):
        # the blocks write into the batch's one array, which is sorted in
        # place and taken without a copy; the order check adds a byte a
        # trial.  A small call first loads what a first call imports.
        cfg, u, trials = EnsembleConfig((1, 1), 1, gauss), UnitVector.basis(1), 200_000
        run_trials(cfg, u, 1000, 0, threads=1)
        tracemalloc.start()
        try:
            run_trials(cfg, u, trials, 0, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * trials

    def test_block_replay_matches_direct_product(self):
        # redraw block c as the engine does, per layer the (CHUNK, n) mask
        # uniforms and then one flat draw of the live entries, and place it at
        # (live rows x live columns) of a dense (CHUNK, n, m) array in (trial,
        # row, column) order; every dead position holds finite junk, which the
        # masked product must never see
        for widths, p, law_name, u_name, seed, c, has_zero_events in [
            ((5, 4, 6, 3), F(1, 2), "gaussian", "uniform", 0, 0, True),
            ((8, 8, 8, 8, 8), 1, "gaussian", "uniform", 1, 1, False),
            ((2, 7, 3), F(3, 4), "gaussian", "uniform", 2, 3, True),
            ((6, 5, 4, 5), F(1, 2), "gaussian", "e1", 3, 2, True),
            ((4, 6, 5, 3), F(2, 3), "uniform", "uniform", 4, 0, True),
            ((5, 6, 6, 4), F(1, 2), "rademacher", "generic", 5, 1, True),
        ]:
            law = law_from_name(law_name)
            u = replay_input(u_name, widths[0])
            rng = chunk_stream(seed, DOMAIN_PRODUCT, c)
            junk = np.random.default_rng(99)
            live_cols = np.broadcast_to(u.coords != 0.0, (CHUNK, widths[0]))
            layers = []
            for m, n in zip(widths, widths[1:]):
                mask = rng.random((CHUNK, n)) < float(p)
                entries = mask[:, :, None] & live_cols[:, None, :]
                w = junk.uniform(-5.0, 5.0, (CHUNK, n, m))
                w[entries] = law.sample(rng, int(np.count_nonzero(entries)))
                layers.append((mask, w))
                live_cols = mask
            self.check_direct_product(
                EnsembleConfig(widths, p, law), u, seed, c, layers, has_zero_events
            )

    def test_block_replay_all_live_keeps_shaped_draw(self, gauss):
        # p = 1 with a dense u leaves no dead entry: the block is replayed
        # with the shaped (CHUNK, n, m) weight draw, so these streams are
        # those of the full-block sampler
        widths, seed, c = (6, 7, 5, 6), 8, 2
        u = UnitVector.uniform(widths[0])
        rng = chunk_stream(seed, DOMAIN_PRODUCT, c)
        layers = []
        for m, n in zip(widths, widths[1:]):
            mask = rng.random((CHUNK, n)) < 1.0
            layers.append((mask, gauss.sample(rng, (CHUNK, n, m))))
        self.check_direct_product(EnsembleConfig(widths, 1, gauss), u, seed, c, layers, False)

    @staticmethod
    def check_direct_product(cfg, u, seed, c, layers, has_zero_events):
        """Multiply out each trial's masked product from the replayed
        (mask, dense weights) layers; block c, run by the engine on its own
        stream, must give every trial the log of that norm, or a zero event
        when it vanishes.  Rows of an atomic law can cancel exactly; the
        direct sum, taken in another order, then leaves a residue of order
        1e-33, so a direct norm below 1e-20 counts as vanished."""
        vec = np.broadcast_to(u.coords, (CHUNK, u.dim))
        for mask, w in layers:
            n = mask.shape[1]
            vec = np.einsum("cij,cj->ci", w, vec) * mask / math.sqrt(float(cfg.p) * n)
        logs = _product_chunk(cfg, u.coords, chunk_stream(seed, DOMAIN_PRODUCT, c))
        alive = np.isfinite(logs)
        direct = np.einsum("ci,ci->c", vec, vec)
        vanished = direct < 1e-20
        assert np.array_equal(alive, ~vanished)
        assert logs[alive] == pytest.approx(np.log(direct[alive]), abs=1e-10)
        assert bool(np.any(vanished)) == has_zero_events

    @pytest.mark.parametrize(
        "widths, p, u_name, seed, c",
        [
            ((3, 2, 3, 2), F(1, 2), "uniform", 0, 2),
            ((6, 9, 1, 4), F(1, 3), "e1", 5, 0),
            ((4, 4, 4), 1, "uniform", 6, 1),
        ],
    )
    def test_draws_only_live_entries(self, gauss, monkeypatch, widths, p, u_name, seed, c):
        # each of these blocks fits one slice; its blocks include trials
        # with K_i = 0 unless p = 1
        self.check_slices(gauss, monkeypatch, widths, p, u_name, seed, c, None, False, p != 1)

    @pytest.mark.parametrize(
        "widths, p, u_name, seed, c, budget, dead_in_slice",
        [
            # slices of a few trials, some with K_i = 0
            ((6, 9, 1, 4), F(1, 3), "e1", 5, 0, 40, True),
            # 128x8: slices of a few trials
            ((128,) * 9, F(1, 2), "uniform", 1, 0, None, False),
            # 512x3 at p = 1: each trial alone exceeds the budget
            ((512,) * 4, 1, "uniform", 2, 0, None, False),
        ],
    )
    def test_slices_bound_draws(
        self, gauss, monkeypatch, widths, p, u_name, seed, c, budget, dead_in_slice
    ):
        self.check_slices(
            gauss, monkeypatch, widths, p, u_name, seed, c, budget, True, dead_in_slice
        )

    @staticmethod
    def check_slices(gauss, monkeypatch, widths, p, u_name, seed, c, budget, sliced, dead_in_slice):
        """Record every weight draw and contraction of block c.

        Per layer the weight draws hold sum_c K_i(c) * K_{i-1}(c) numbers,
        K_i(c) being trial c's live-row count from the replayed masks (K_0
        the nonzero coordinates of u).  They come in slices of consecutive
        trials, each drawing its own trials' entries and contracting a
        (slice, max K_i, max K_{i-1}) array with block-wide maxima; a slice
        holds at most max(budget, largest single-trial K_i * K_{i-1}) draws.
        ``sliced`` says whether every layer takes more than one slice, and
        ``dead_in_slice`` whether some slice of several trials holds a trial
        with K_i = 0.
        """
        if budget is not None:
            monkeypatch.setattr(montecarlo, "SLICE_ENTRIES", budget)
        budget = montecarlo.SLICE_ENTRIES
        u = replay_input(u_name, widths[0])
        sample = DistributionSpec.sample
        rng = chunk_stream(seed, DOMAIN_PRODUCT, c)
        prev = np.full(CHUNK, np.count_nonzero(u.coords))
        layers = []
        for n in widths[1:]:
            live = np.count_nonzero(rng.random((CHUNK, n)) < float(p), axis=1)
            layers.append((live, prev))
            # step the stream past the layer's weights in pieces, which the
            # split-draw test in test_distributions shows is one joint draw
            left = int(live @ prev)
            while left:
                piece = min(left, budget)
                sample(gauss, rng, piece)
                left -= piece
            prev = live
        events = []
        matmul = np.matmul

        def recording_sample(law, rng, shape):
            out = sample(law, rng, shape)
            events.append(out.size)
            return out

        def recording_matmul(a, b):
            events.append(a.shape)
            return matmul(a, b)

        monkeypatch.setattr(DistributionSpec, "sample", recording_sample)
        monkeypatch.setattr(np, "matmul", recording_matmul)
        cfg = EnsembleConfig(widths, p, gauss)
        _product_chunk(cfg, u.coords, chunk_stream(seed, DOMAIN_PRODUCT, c))
        draws, shapes = events[0::2], events[1::2]
        assert len(draws) == len(shapes) and all(isinstance(s, tuple) for s in shapes)
        dead_seen = False
        for live, prev in layers:
            entries = live * prev
            cap = max(budget, int(entries.max()))
            lo = 0
            while lo < CHUNK:
                draw, shape = draws.pop(0), shapes.pop(0)
                hi = lo + shape[0]
                assert shape[1:] == (live.max(), prev.max())
                assert draw == entries[lo:hi].sum() <= cap
                assert shape[0] == 1 or shape[0] * shape[1] * shape[2] <= budget
                assert (shape[0] < CHUNK) == sliced
                dead_seen |= shape[0] > 1 and bool(np.any(live[lo:hi] == 0))
                lo = hi
            assert lo == CHUNK
        assert not draws
        assert dead_seen == dead_in_slice

    def test_slicing_and_threads_do_not_change_batch(self, monkeypatch):
        # the slice budget only sets how many trials a layer draws and
        # contracts at once: every budget and thread count gives the batch
        # of the default budget, bit for bit
        for widths, p, law_name, u_name in [
            ((6, 6, 6, 6), F(1, 2), "gaussian", "uniform"),
            ((5, 4, 6, 3), 1, "uniform", "generic"),
            ((7, 5, 5, 6), F(2, 3), "rademacher", "e1"),
        ]:
            cfg = EnsembleConfig(widths, p, law_from_name(law_name))
            u = replay_input(u_name, widths[0])
            reference = run_trials(cfg, u, 700, seed=12, threads=1)
            for budget in (1, 37, 1000):
                monkeypatch.setattr(montecarlo, "SLICE_ENTRIES", budget)
                for threads in (1, 2, 3):
                    batch = run_trials(cfg, u, 700, seed=12, threads=threads)
                    assert np.array_equal(batch.samples, reference.samples)
                    assert batch.zero_event_count == reference.zero_event_count

    @pytest.mark.parametrize(
        "widths, p, law",
        [
            ((4, 4, 4, 4), 1, rademacher()),
            ((3, 5, 5, 5), F(1, 2), rademacher()),
            ((4, 4, 4, 4), 1, discrete_symmetric([(-2, F(1, 8)), (0, F(3, 4)), (2, F(1, 8))])),
        ],
    )
    def test_exact_cancellation_is_a_zero_event(self, widths, p, law):
        # an atomic law's product can vanish exactly; the float contraction
        # leaves a residue near 1e-33 that must count as a zero event, not as
        # a log near -75.  The exact zero probability comes from a DP over the
        # integer vectors X_i ... X_1 x0, x0 = (1, ..., 1)
        trials = 100_000
        batch = run_trials(EnsembleConfig(widths, p, law), UnitVector.uniform(widths[0]), trials, 1)
        assert not np.any(batch.samples < -20.0)
        q = atomic_zero_probability(widths, p, law)
        tolerance = 4 * math.sqrt(q * (1 - q) / trials)
        assert abs(batch.zero_event_rate - q) <= tolerance

    def test_batch_invariants_validated(self):
        # logs must be sorted; NaN compares false either way, so no sorted
        # batch holds one
        for logs in ([1.0, 0.0], [np.nan], [-np.inf, np.nan], [0.0, np.nan, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                SampleBatch(np.array(logs))

    def test_batch_derives_counts_from_logs(self):
        # zero events are the leading -inf logs; samples is a read-only view
        logs = np.array([-np.inf, -np.inf, -1.0, 0.5])
        batch = SampleBatch(logs)
        assert batch.logs is logs and not logs.flags.writeable
        assert (batch.trials, batch.zero_event_count, batch.zero_event_rate) == (4, 2, 0.5)
        assert batch.samples.tolist() == [-1.0, 0.5] and batch.samples.base is logs


class TestEmpiricalMoment:
    def test_all_zero_logs(self):
        batch = manual_batch(np.zeros(50))
        estimate = empirical_moment(batch, 3)
        assert estimate.estimate == 1.0
        assert estimate.stderr == 0.0

    def test_two_samples(self):
        batch = manual_batch([math.log(2), math.log(8)])
        assert empirical_moment(batch, 1).estimate == pytest.approx(5.0)

    def test_zero_events_count_as_zero(self):
        batch = manual_batch([math.log(2), math.log(8)], zero_events=2)
        assert empirical_moment(batch, 1).estimate == pytest.approx(2.5)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            empirical_moment(manual_batch([0.0]), 1)

    def test_first_moment_near_one(self, gauss):
        cfg = EnsembleConfig((8, 8, 8), F(1, 2), gauss)
        batch = run_trials(cfg, UnitVector.uniform(8), 20_000, seed=2)
        estimate = empirical_moment(batch, 1)
        assert abs(estimate.estimate - 1.0) <= 5 * estimate.stderr


class TestChiSquareSampler:
    def test_empty_width_list(self):
        batch = chi_square_product_sampler((), 100, seed=0)
        assert np.all(batch.samples == 0.0)

    def test_mean_of_exp(self):
        batch = chi_square_product_sampler((2,), 100_000, seed=1)
        values = np.exp(batch.samples)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 1.0) <= 5 * stderr
        # chi2_2/2 has unit variance
        var_se = math.sqrt(np.var((values - 1.0) ** 2, ddof=1) / values.size)
        assert abs(values.var(ddof=1) - 1.0) <= 5 * max(var_se, 1e-3)

    def test_deterministic(self):
        a = chi_square_product_sampler((8, 8), 1000, seed=7)
        b = chi_square_product_sampler((8, 8), 1000, seed=7)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    def test_gamma_path_matches_sum_of_squares_law(self, n):
        # every factor is twice a gamma variate of shape n/2 (1/2 at n = 1);
        # its law must be that of a sum of n squared standard normals
        batch = chi_square_product_sampler((n,), 20_000, seed=3)
        ref = np.sort(scipy.stats.chi2(df=n).rvs(size=20_000, random_state=11))
        report = two_sample_ks(np.exp(batch.samples) * n, ref)
        assert report.statistic < 2 * report.critical_5pct

    def test_matches_product_law_for_gaussian_identity_mask(self, gauss):
        cfg = EnsembleConfig((16, 16, 16, 16), 1, gauss)
        product = run_trials(cfg, UnitVector.uniform(16), 30_000, seed=5)
        reference = chi_square_product_sampler((16, 16, 16), 30_000, seed=6)
        report = two_sample_ks(product.samples, reference.samples)
        assert report.statistic < 2 * report.critical_5pct

    def test_log_moments_match_digamma_values(self):
        # ln(chi2_n/n) has mean digamma(n/2) - ln(n/2) and variance
        # polygamma(1, n/2); the depth-16 width-64 sum is the exact reference
        # behind the Normal(-0.25, 0.5) approximation
        import scipy.special as sp
        from matprod import summary

        d, n, trials = 16, 64, 100_000
        batch = chi_square_product_sampler((n,) * d, trials, seed=9)
        stats = summary(batch.samples)
        exact_mean = d * (sp.digamma(n / 2) - math.log(n / 2))
        exact_var = d * sp.polygamma(1, n / 2)
        mean_se = math.sqrt(stats.variance / trials)
        assert abs(stats.mean - exact_mean) <= 5 * mean_se
        centered = batch.samples - stats.mean
        var_se = math.sqrt(
            max(np.mean(centered**4) - stats.variance**2, 0.0) / trials
        )
        assert abs(stats.variance - exact_var) <= 5 * var_se
        # the exact values in turn sit within the stated normal approximation
        assert exact_mean == pytest.approx(-0.25, abs=5 * mean_se)
        assert exact_var == pytest.approx(0.5, abs=5 * max(var_se, 2e-3))


class TestSamplerGuard:
    """The drawn-entry estimate, checked against SAMPLER_BUDGET before any
    block runs."""

    def test_acceptance_chi2_artifact_is_admitted(self, gauss):
        # chi2-check --widths 64x16 --p 1 --trials 100000: 391 blocks of
        # 256 trials, 16 layers of 64 x 64 live entries
        cfg = EnsembleConfig((64,) * 17, 1, gauss)
        draws = montecarlo.product_draws(cfg, UnitVector.uniform(64), 100_000)
        assert draws == 391 * 256 * 16 * 64 * 64
        assert draws <= montecarlo.SAMPLER_BUDGET

    @staticmethod
    def record_chi2_blocks(monkeypatch):
        calls = []

        def chunk(widths, rng):
            calls.append(len(widths))
            return np.zeros(CHUNK)

        monkeypatch.setattr(montecarlo, "_chi2_chunk", chunk)
        return calls

    def test_acceptance_chi2_reference_is_admitted(self, monkeypatch):
        # chi2-check --widths 64x16 --trials 100000 draws its reference from
        # 391 blocks of 256 trials, 16 widths each charged the floor
        calls = self.record_chi2_blocks(monkeypatch)
        assert 391 * 256 * 16 * montecarlo.TRIAL_LAYER_FLOOR <= montecarlo.SAMPLER_BUDGET
        chi_square_product_sampler((64,) * 16, 100_000, seed=0, threads=1)
        assert calls == [16] * 391

    def test_chi_square_sampler_refused_up_front(self, monkeypatch):
        # 1e5 widths of 1 pass the batch bound at 1e5 trials, but would draw
        # 1e10 gamma variates; each trial-width is charged the floor
        calls = self.record_chi2_blocks(monkeypatch)
        with pytest.raises(BudgetExceeded, match=r"^chi-square sampler draws ~1.6e\+11"):
            chi_square_product_sampler((1,) * 10**5, 10**5, seed=0)
        assert calls == []

    def test_minutes_of_sampling_refused_up_front(self, gauss):
        # moments --widths 1000x120 --trials 2: one block, 120 layers of
        # 1000 x 1000 entries, about 8 minutes of drawing at 15 ns each
        cfg = EnsembleConfig((1000,) * 121, 1, gauss)
        u = UnitVector.uniform(1000)
        assert montecarlo.product_draws(cfg, u, 2) == 256 * 120 * 1000**2
        with pytest.raises(BudgetExceeded, match=r"^product sampler draws ~3.07e\+10"):
            run_trials(cfg, u, 2, seed=0)

    def test_estimate_counts_live_entries(self, gauss):
        # p n_i live rows per layer; the first layer's columns are u's
        # nonzero coordinates, and one trial past a block edge runs a block
        cfg = EnsembleConfig((6, 32, 8), F(1, 2), gauss)
        e1, uniform = UnitVector.basis(6), UnitVector.uniform(6)
        assert montecarlo.product_draws(cfg, e1, 10) == 256 * (1 * 16 + 16 * 4)
        assert montecarlo.product_draws(cfg, uniform, 10) == 256 * (6 * 16 + 16 * 4)
        assert montecarlo.product_draws(cfg, e1, 256) == 256 * 80
        assert montecarlo.product_draws(cfg, e1, 257) == 2 * 256 * 80
        assert montecarlo.product_draws(cfg, e1, 0) == 0

    def test_narrow_layers_charge_the_floor(self, gauss):
        # per-layer overhead, not entries, sets a narrow layer's cost
        floor = montecarlo.TRIAL_LAYER_FLOOR
        cfg = EnsembleConfig((6, 8, 8), F(1, 2), gauss)
        e1, uniform = UnitVector.basis(6), UnitVector.uniform(6)
        assert montecarlo.product_draws(cfg, e1, 10) == 256 * (floor + 4 * 4)
        assert montecarlo.product_draws(cfg, uniform, 10) == 256 * (6 * 4 + 4 * 4)
