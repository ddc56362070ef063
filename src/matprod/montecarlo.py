"""Reproducible high-throughput sampling of the log normalized squared norm.

Stream discipline
-----------------
Trials are processed in fixed blocks of ``CHUNK`` consecutive trial indices.
Block c draws from a dedicated SFC64 generator seeded by hashing
``(seed, domain, c)`` through numpy's SeedSequence, and consumes randomness
in a fixed order set by its domain:

``DOMAIN_PRODUCT``
    the masked product (``run_trials``): for each layer, the mask uniforms
    for every trial of the block, then the live weight entries (live row of
    this layer, live unit of the one before) of every trial, in (trial, row,
    column) order;
``DOMAIN_CHI2``
    the chi-square product law: for each width n, one block of gamma
    variates of shape n/2;
``DOMAIN_NET_BLOCKS``
    ReLU-net Jacobians (``relunets.jacobian_batch``): for each layer, the
    weights of every row and every open unit of the layer before (all units
    of the input layer) of every trial, in (trial, row, column) order, then
    the ``(CHUNK, n)`` biases.

``DOMAIN_NETS`` is not a block domain and nothing in the package draws from
it: it stays reserved for the tests' single-network oracle, which seeds one
generator per network with ``(seed, DOMAIN_NETS, trial index)``.  No block
domain may reuse 3, or an oracle network would share a stream with a block.

SFC64 passes BigCrush and PractRand and hands out normals and uniforms
faster than PCG64; every block seeds its own generator, so no stream is
ever jumped ahead.

A trial's outcome is therefore a pure function of (seed, config, trial
index) — independent of how many trials were requested and of how blocks
are scheduled across threads.  Blocks fill one array that is then sorted,
so any thread count produces the same batch.  A trial whose vector vanished
(a zero event) has log norm -inf and sorts first.

How many numbers a block consumes is set by its mask counts (a ReLU net's:
its open units) alone, which come from the same stream, so consumption is
still a pure function of (seed, config, block); a trial whose vector
vanished keeps drawing for its live entries.

Both block samplers draw and contract each layer's weights with
``_contract_layer``, in slices of consecutive trials (``SLICE_ENTRIES``
padded entries, 512 KB, or one trial where a single trial needs more).
Consecutive draws give the numbers of one joint draw, so slicing leaves the
stream and the output bytes as they are, and a thread holds about one slice
of weights at a time instead of a ``(CHUNK, n, n)`` block.

The ``MATPROD_THREADS`` environment variable, an integer >= 1, caps worker
threads; the default is the number of CPUs the process may run on, which
also caps any thread count asked for.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleConfig, UnitVector
from .errors import BudgetExceeded, DimensionMismatch, InsufficientSamples, UsageError
from .ksstats import check_ascending

CHUNK = 256

# Stream domains keep samplers with the same user seed independent.
DOMAIN_PRODUCT = 1
DOMAIN_CHI2 = 2
DOMAIN_NETS = 3
DOMAIN_NET_BLOCKS = 4

# Padded weight entries (8 bytes each) that one slice of a product block
# draws and contracts at once; a trial that needs more gets a slice alone.
SLICE_ENTRIES = 1 << 16

# An atomic law's product can vanish exactly, and the float contraction then
# leaves a residue instead of 0.  Row r of v = W u sums K' = (live units)
# terms; with |W_rj| <= w_max and ||u|| = 1 its rounding error is at most
# K' eps * w_max ||u||_1 <= eps * w_max * K'^(3/2) (eps = 2^-53), so over K
# live rows ||v||^2 <= K K'^3 (eps w_max)^2 when W u is exactly 0.  The
# slack covers the rounding u carries from earlier layers; a squared norm
# within that bound is a zero event.
CANCEL_SLACK = 4.0

# A drawn entry costs about 15 ns with every stage included (64x16 and 128x8,
# p = 1/2, one thread; a ReLU-net Jacobian 16-20 ns per charged entry), so
# this admits about 2.5-3.5 minutes of sampling on one thread.  The
# 100,000-trial chi2-check at 64x16 draws about 6.6e9 entries.
SAMPLER_BUDGET = 10**10
# A narrow layer costs more than its entries: numpy's per-call overhead makes
# one trial of a width-1 layer take about 0.08 us of CPU (a ReLU-net Jacobian
# 0.13 us) at depths 8-32, one thread, 51,200 trials; this floor, 0.24 us at
# the cost above, covers both.  Each trial-layer is charged at least this many,
# and so is each trial-width of the chi-square sampler, whose gamma variate
# and log take 30-55 ns at widths 16 and 64 (one thread).
TRIAL_LAYER_FLOOR = 16

# A sampler call peaks at about this many bytes per trial of each batch: the
# batch and the statistics taken from it.  ks-test and simulate peak highest,
# at 25 bytes per trial (the one-sample KS holds the reference CDF and one
# work array, the summary its centered temporaries; peak RSS from 1e6 to 4e6
# trials, widths 1,1, one thread), and 24.4 under tracemalloc at 2e5 trials,
# fixed cost included.  chi2-check holds 40 for its two batches.  A batch
# that would pass BATCH_BYTES is refused before any block runs: at width 1
# the draw budget alone admits 6e8 trials.
BATCH_BYTES_PER_TRIAL = 25
BATCH_BYTES = 2 * 1024**3


def resolve_threads(threads: int | None = None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("MATPROD_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"MATPROD_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise UsageError(f"MATPROD_THREADS must be >= 1, got {n}")
        return n
    return _usable_cpus()


def _usable_cpus() -> int:
    """The CPUs the process may run on, or the CPU count where the platform
    does not report affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Dedicated generator for one block, derived by hashing the identifiers."""
    ss = np.random.SeedSequence((int(seed), int(domain), int(index)))
    return np.random.Generator(np.random.SFC64(ss))


@dataclass(frozen=True)
class SampleBatch:
    """Every trial's log norm, sorted, zero events (-inf) first; the batch
    takes the array without a copy and makes it read-only."""

    logs: np.ndarray

    def __post_init__(self):
        logs = np.asarray(self.logs, dtype=np.float64)
        if logs.ndim != 1:
            raise ValueError("logs must be one-dimensional")
        check_ascending(logs, "logs")
        logs.setflags(write=False)
        object.__setattr__(self, "logs", logs)

    @property
    def trials(self) -> int:
        return self.logs.size

    @property
    def zero_event_count(self) -> int:
        """Trials whose vector vanished: the leading -inf logs."""
        return int(np.searchsorted(self.logs, -np.inf, side="right"))

    @property
    def samples(self) -> np.ndarray:
        """The finite log norms, a view of the tail of ``logs``."""
        return self.logs[self.zero_event_count :]

    @property
    def zero_event_rate(self) -> float | None:
        """Zero events per trial; None when no trial ran."""
        return self.zero_event_count / self.trials if self.trials else None


@dataclass(frozen=True)
class MomentEstimate:
    estimate: float
    stderr: float


def _product_chunk(config: EnsembleConfig, u0: np.ndarray, rng: np.random.Generator):
    """Propagate one block of CHUNK trials; returns their log norms.

    Entry ``W_i[r, j]`` reaches the output only when row r of layer i and
    unit j of layer i-1 are live, so only those entries are drawn.  The
    entries are i.i.d., so each trial's live units sit packed at the front
    in unit order and only their counts pass from layer to layer.

    A layer draws its ``(CHUNK, n)`` mask uniforms for the whole block, then
    its live entries, in (trial, row, column) order, through
    ``_contract_layer``.
    """
    widths = config.widths
    p = float(config.p)
    law = config.entry_law
    units = u0[u0 != 0.0]
    u = np.broadcast_to(units, (CHUNK, units.size)).copy()
    prev = np.full(CHUNK, units.size)
    logs = np.zeros(CHUNK)
    if law.atomless:
        cancel = 0.0
    else:
        w_max = max(abs(float(v)) for v, _ in law.support_pairs())
        cancel = (CANCEL_SLACK * 2.0**-53 * w_max) ** 2
    for i in range(1, len(widths)):
        n = widths[i]
        live = np.count_nonzero(rng.random((CHUNK, n)) < p, axis=1)
        v = _contract_layer(law, rng, live, prev, u[:, :, None])[:, :, 0]
        u = _renormalize(v, p * n, logs, cancel * live * prev**3.0)
        prev = live
    return logs


def _contract_layer(law, rng, live, prev, stack):
    """Draw one layer's weights for a block and apply them to its vectors.

    Trial c has ``live[c]`` rows and ``prev[c]`` columns, both packed at the
    front; ``stack`` holds its column vectors, shape (CHUNK, max prev, k).
    Only the ``live[c] * prev[c]`` entries of each trial are drawn, in
    (trial, row, column) order, as the numbers of one flat draw; returns the
    products, shape (CHUNK, max live, k).

    The block is worked through in slices of consecutive trials: each slice
    draws its part of the flat draw, scatters it into a zero block of shape
    (slice, max live, max prev) and contracts it.  The maxima are block-wide,
    so every trial is contracted in the same shape whatever the slicing.  A
    slice holds at most ``SLICE_ENTRIES`` padded entries, or one trial where
    a single trial needs more, so a thread keeps one such block, not the
    whole layer, resident.
    """
    rows, cols = int(live.max()), stack.shape[1]
    step = max(1, SLICE_ENTRIES // max(1, rows * cols))
    row_mask = np.arange(rows) < live[:, None]
    col_mask = np.arange(cols) < prev[:, None]
    out = np.empty((CHUNK, rows, stack.shape[2]))
    for lo in range(0, CHUNK, step):
        hi = min(lo + step, CHUNK)
        out[lo:hi] = _contract_slice(
            law, rng, live[lo:hi], prev[lo:hi], row_mask[lo:hi], col_mask[lo:hi], stack[lo:hi]
        )
    return out


def _contract_slice(law, rng, live, prev, row_mask, col_mask, stack):
    """Draw one slice's live weight entries into a zero block of shape
    (slice, rows, cols), the masks' widths, and contract it with the slice's
    column vectors; returns its rows of the products.

    The block is fresh for each slice: a reused one would keep the previous
    slice's entries where this slice's trials have dead rows or units.
    Where a slice has no hole (p = 1 with a dense u, or a ReLU net's input
    layer) the same numbers are drawn in its shape directly."""
    shape = (live.size, row_mask.shape[1], col_mask.shape[1])
    if live.min() == shape[1] and prev.min() == shape[2]:
        weights = law.sample(rng, shape)
    else:
        weights = np.zeros(shape)
        weights[row_mask[:, :, None] & col_mask[:, None, :]] = law.sample(rng, int(live @ prev))
    return np.matmul(weights, stack)


def _renormalize(v: np.ndarray, divisor: float, logs: np.ndarray, floor=0.0):
    """One layer of the log accumulator for a block of propagated vectors.

    Adds ``log(||v||^2 / divisor)`` to ``logs`` in place, -inf where
    ``||v||^2 <= floor`` (v vanished: its zeroed row vanishes at every later
    layer too); returns the rows of v scaled to unit norm.
    """
    # normalize the squared norm, not the vector: exactly representable
    # norms stay exact through the log
    raw_sq = np.einsum("ci,ci->c", v, v)
    kept = raw_sq > floor
    safe = np.where(kept, raw_sq, 1.0)
    logs += np.where(kept, np.log(safe / divisor), -np.inf)
    u = v / np.sqrt(safe)[:, None]
    u[~kept] = 0.0
    return u


def block_count(trials: int) -> int:
    """Blocks of CHUNK trial indices that trials 0 .. trials - 1 fill."""
    return (trials + CHUNK - 1) // CHUNK


def product_draws(config: EnsembleConfig, u: UnitVector, trials: int) -> int:
    """Expected weight entries ``run_trials`` draws: blocks * CHUNK *
    sum_i (p n_i)(p n_{i-1}), the first layer's live units being u's nonzero
    coordinates, and each term at least ``TRIAL_LAYER_FLOOR``."""
    live = [sum(1 for c in u.values if c)] + [config.p * n for n in config.widths[1:]]
    per_trial = sum(max(a * b, TRIAL_LAYER_FLOOR) for a, b in zip(live, live[1:]))
    return math.ceil(block_count(trials) * CHUNK * per_trial)


def check_draws(estimate: int, what: str) -> None:
    """Refuse, before any block runs, a sampler call that would draw more
    than ``SAMPLER_BUDGET`` entries."""
    if estimate > SAMPLER_BUDGET:
        raise BudgetExceeded(
            estimate,
            SAMPLER_BUDGET,
            message=f"{what} draws ~{estimate:.3g} entries, budget is {SAMPLER_BUDGET:.3g}",
        )


def _collect_chunks(trials: int, threads: int | None, chunk_fn) -> SampleBatch:
    """Run chunk_fn over the blocks of trials 0 .. trials - 1, each writing
    its log norms into its slice of one array, and return the array, sorted
    in place, as the batch.  A batch that would hold more than
    ``BATCH_BYTES`` raises ``BudgetExceeded`` before any block runs."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    size = trials * BATCH_BYTES_PER_TRIAL
    if size > BATCH_BYTES:
        raise BudgetExceeded(
            size,
            BATCH_BYTES,
            message=f"a batch of {trials} trials holds ~{size:.3g} bytes, "
            f"bound is {BATCH_BYTES:.3g}",
        )
    logs = np.empty(trials)

    def fill(c: int) -> None:
        logs[c * CHUNK : (c + 1) * CHUNK] = chunk_fn(c)[: trials - c * CHUNK]

    indices = range(block_count(trials))
    # a thread beyond the usable CPUs only waits its turn
    workers = min(resolve_threads(threads), len(indices), _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, indices))
    else:
        list(map(fill, indices))
    logs.sort()
    return SampleBatch(logs)


def run_trials(
    config: EnsembleConfig,
    u: UnitVector,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> SampleBatch:
    """Sample `trials` independent realizations of the log normalized norm.

    Zero events are counted, not raised.  Identical (config, u, seed,
    trials) always produce the identical batch, for any thread count.  A
    call that would draw more than ``SAMPLER_BUDGET`` entries raises
    ``BudgetExceeded`` before any block runs.
    """
    if u.dim != config.widths[0]:
        raise DimensionMismatch(f"u has dim {u.dim}, architecture starts at {config.widths[0]}")
    check_draws(product_draws(config, u, trials), "product sampler")
    u0 = u.coords

    def chunk_fn(index: int):
        rng = chunk_stream(seed, DOMAIN_PRODUCT, index)
        return _product_chunk(config, u0, rng)

    return _collect_chunks(trials, threads, chunk_fn)


def empirical_moment(batch: SampleBatch, k: int) -> MomentEstimate:
    """Mean of exp(k * log norm) over all trials; zero events contribute 0."""
    if batch.trials < 2:
        raise InsufficientSamples("moment estimation needs at least two trials")
    values = np.exp(k * batch.samples)
    n = batch.trials
    total = float(np.sum(values))
    mean = total / n
    # sample variance over all trials, zero events included as exact zeros
    sq_total = float(values @ values)
    var = (sq_total - n * mean * mean) / (n - 1)
    var = max(var, 0.0)
    return MomentEstimate(estimate=mean, stderr=math.sqrt(var / n))


def _chi2_chunk(widths, rng: np.random.Generator):
    logs = np.zeros(CHUNK)
    for n in widths:
        logs += np.log(2.0 * rng.standard_gamma(n / 2.0, size=CHUNK) / n)
    return logs


def chi_square_product_sampler(
    widths,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> SampleBatch:
    """Samples of the log of a product of independent chi-square/dof ratios.

    One factor per width, each drawn as twice a gamma variate of shape
    dof/2; an empty width list gives identically zero samples.  Each
    trial-width is charged ``TRIAL_LAYER_FLOOR`` entries, and a call charged
    more than ``SAMPLER_BUDGET`` raises ``BudgetExceeded`` before any block
    runs.
    """
    widths = tuple(int(n) for n in widths)
    if any(n < 1 for n in widths):
        raise ValueError("widths must be positive")
    draws = block_count(trials) * CHUNK * len(widths) * TRIAL_LAYER_FLOOR
    check_draws(draws, "chi-square sampler")

    def chunk_fn(index: int):
        rng = chunk_stream(seed, DOMAIN_CHI2, index)
        return _chi2_chunk(widths, rng)

    return _collect_chunks(trials, threads, chunk_fn)
