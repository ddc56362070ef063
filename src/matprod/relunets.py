"""Randomly initialized ReLU networks and their input-output Jacobians.

Weights at layer i are drawn from an atomless symmetric unit-variance law and
scaled by sqrt(2 / fan-in); biases are drawn from the same law times a
positive, finite bias scale (there is no separate bias law).  The Jacobian of
the network output with respect to its input is the product of the per-layer
matrices masked by the open-neuron pattern, and its squared norm applied to a
fixed unit vector is distributed exactly like the masked matrix product
ensemble at mask probability 1/2.  ``matprod jacobian-compare`` tests that
claim: it draws ``jacobian_batch`` and ``montecarlo.run_trials`` with the
same widths and law and compares them with ``ksstats.two_sample_ks``.

The statistical path (``jacobian_batch``) never materializes the Jacobian.
It draws networks in blocks of ``CHUNK`` on the ensemble sampler's block
engine, and for each block propagates the inputs and the tangent vectors of
all its networks at once through the masked layers, with the same
renormalize-and-accumulate step as the ensemble sampler; blocks run on worker
threads and the batch does not depend on their number.  The exact Jacobian
of one network, as a dense matrix, lives in the tests' oracle
(``tests/oracles.py``); the tests check this path and finite differences
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .ensemble import UnitVector, checked_widths
from .errors import AtomicLawError, DimensionMismatch, FloatRangeError
from .montecarlo import (
    CHUNK,
    DOMAIN_NET_BLOCKS,
    TRIAL_LAYER_FLOOR,
    SampleBatch,
    _collect_chunks,
    _renormalize,
    block_count,
    check_draws,
    chunk_stream,
)


@dataclass(frozen=True)
class ReluNetConfig:
    """Layer widths, weight law and bias scale for random initialization."""

    widths: tuple[int, ...]
    weight_law: DistributionSpec
    bias_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "widths", checked_widths(self.widths))
        if not self.weight_law.atomless:
            raise AtomicLawError("weight law must be atomless")
        if not 0.0 < self.bias_scale < math.inf:
            raise ValueError(f"bias scale must be positive and finite, got {self.bias_scale}")


def default_input(dim: int) -> np.ndarray:
    """All-ones direction scaled to unit norm; any fixed nonzero input works."""
    return np.full(dim, dim**-0.5)


@np.errstate(over="raise", invalid="raise")
def _jacobian_chunk(cfg: ReluNetConfig, x: np.ndarray, u0: np.ndarray, rng: np.random.Generator):
    """Jacobian log-norms of one block of CHUNK networks; returns (logs, alive).

    Per layer the block draws its (CHUNK, n, m) weights, then its (CHUNK, n)
    biases: one layer of every network at a time, weights before biases.  A
    forward pass that leaves double range raises ``FloatingPointError``: an
    infinite or NaN pre-activation would decide the masks.
    """
    widths = cfg.widths
    h = np.broadcast_to(x, (CHUNK, widths[0]))
    v = np.broadcast_to(u0, (CHUNK, widths[0]))
    logs = np.zeros(CHUNK)
    alive = np.ones(CHUNK, dtype=bool)
    for i in range(1, len(widths)):
        n, m = widths[i], widths[i - 1]
        w = cfg.weight_law.sample(rng, (CHUNK, n, m))
        w *= math.sqrt(2.0 / m)
        b = cfg.weight_law.sample(rng, (CHUNK, n)) * cfg.bias_scale
        pre = np.matmul(w, h[:, :, None])[:, :, 0] + b
        v = np.matmul(w, v[:, :, None])[:, :, 0] * (pre > 0.0)
        h = np.maximum(pre, 0.0)
        v = _renormalize(v, n / m, logs, alive)
    return logs, alive


def jacobian_draws(config: ReluNetConfig, trials: int) -> int:
    """Weight and bias entries ``jacobian_batch`` draws: blocks * CHUNK *
    sum (n m + n) over the layers, each term at least ``TRIAL_LAYER_FLOOR``."""
    widths = config.widths
    per_trial = sum(max(n * m + n, TRIAL_LAYER_FLOOR) for m, n in zip(widths, widths[1:]))
    return block_count(trials) * CHUNK * per_trial


def jacobian_batch(
    config: ReluNetConfig,
    trials: int,
    seed: int,
    x,
    u: UnitVector,
    threads: int | None = None,
) -> SampleBatch:
    """Jacobian log-norm samples over independently drawn networks.

    Block c of CHUNK networks draws from ``chunk_stream(seed,
    DOMAIN_NET_BLOCKS, c)``; zero events are counted, and the batch is the
    same for any thread count.  A call that would draw more than
    ``SAMPLER_BUDGET`` entries raises ``BudgetExceeded`` before any block runs,
    and one whose forward pass overflows a double raises ``FloatRangeError``.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    check_draws(jacobian_draws(config, trials), "Jacobian sampler")
    widths = config.widths
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (widths[0],):
        raise DimensionMismatch(f"input has shape {x.shape}, network expects ({widths[0]},)")
    if not np.any(x):
        raise ValueError("evaluation input must be nonzero")
    if u.dim != widths[0]:
        raise DimensionMismatch(f"u has dim {u.dim}, network expects {widths[0]}")
    u0 = u.coords

    def chunk_fn(index: int):
        rng = chunk_stream(seed, DOMAIN_NET_BLOCKS, index)
        return _jacobian_chunk(config, x, u0, rng)

    try:
        samples, zero_events = _collect_chunks(trials, threads, chunk_fn)
    except FloatingPointError:
        raise FloatRangeError(
            f"the ReLU forward pass leaves double precision at bias scale {config.bias_scale:g}"
        ) from None
    return SampleBatch(samples, zero_events, trials)

