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
all its networks at once through the masked layers, with the same sliced
contraction (``montecarlo._contract_layer``) and renormalize step as the
ensemble sampler; a vanished tangent (a zero event) logs -inf.  A closed
unit passes nothing on, so a layer draws only the weight columns of the
units open in the layer before: about half of them.  Blocks run on worker
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
    SampleBatch,
    _collect_chunks,
    _contract_layer,
    _renormalize,
    charged_draws,
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


@np.errstate(over="raise", invalid="raise")
def _jacobian_chunk(cfg: ReluNetConfig, x: np.ndarray, u0: np.ndarray, rng: np.random.Generator):
    """Jacobian log-norms of one block of CHUNK networks, -inf where the
    tangent vector vanished.

    A unit with ``pre <= 0`` has h = v = 0, so its column of the next weight
    matrix never reaches the output and is not drawn.  The weights are
    i.i.d., so each trial's open units sit packed at the front in unit
    order.  Per layer the block draws, through ``_contract_layer``, all n
    rows of every trial's open columns (every column in the first layer) and
    contracts h and v with them as one stack, then draws its (CHUNK, n)
    biases.  A forward pass that leaves double range raises
    ``FloatingPointError``: an infinite or NaN pre-activation would decide
    the masks.
    """
    widths = cfg.widths
    law = cfg.weight_law
    stack = np.broadcast_to(np.stack([x, u0], axis=1), (CHUNK, widths[0], 2))
    prev = np.full(CHUNK, widths[0])
    logs = np.zeros(CHUNK)
    for i in range(1, len(widths)):
        n, m = widths[i], widths[i - 1]
        hv = _contract_layer(law, rng, np.full(CHUNK, n), prev, stack)
        hv *= math.sqrt(2.0 / m)
        pre = hv[:, :, 0] + law.sample(rng, (CHUNK, n)) * cfg.bias_scale
        is_open = pre > 0.0
        prev = np.count_nonzero(is_open, axis=1)
        # boolean indexing runs in (trial, unit) order, so the open units
        # land packed at the front in unit order; the rest of h and v is 0
        packed = np.arange(prev.max()) < prev[:, None]
        stack = np.zeros((CHUNK, packed.shape[1], 2))
        stack[:, :, 0][packed] = pre[is_open]
        stack[:, :, 1][packed] = hv[:, :, 1][is_open]
        stack[:, :, 1] = _renormalize(stack[:, :, 1], n / m, logs)
    return logs


def jacobian_draws(config: ReluNetConfig, trials: int) -> int:
    """Weight and bias entries ``jacobian_batch`` is charged: n m' + n per
    trial-layer.  The first layer draws all m' = m columns; after it a unit
    is open with probability exactly 1/2 (symmetric atomless weights and
    biases), so m' = m / 2."""
    widths = config.widths
    cols = [widths[0]] + [m / 2 for m in widths[1:-1]]
    return charged_draws(trials, (n * c + n for c, n in zip(cols, widths[1:])))


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
    widths = config.widths
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (widths[0],):
        raise DimensionMismatch(f"input has shape {x.shape}, network expects ({widths[0]},)")
    if not np.any(x):
        raise ValueError("evaluation input must be nonzero")
    if u.dim != widths[0]:
        raise DimensionMismatch(f"u has dim {u.dim}, network expects {widths[0]}")
    check_draws(jacobian_draws(config, trials), "Jacobian sampler")
    u0 = u.coords

    def chunk_fn(index: int):
        rng = chunk_stream(seed, DOMAIN_NET_BLOCKS, index)
        return _jacobian_chunk(config, x, u0, rng)

    try:
        return _collect_chunks(trials, threads, chunk_fn)
    except FloatingPointError:
        raise FloatRangeError(
            f"the ReLU forward pass leaves double precision at bias scale {config.bias_scale:g}"
        ) from None

