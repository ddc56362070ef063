"""Randomly initialized ReLU networks and their input-output Jacobians.

Weights at layer i are drawn from an atomless symmetric unit-variance law and
scaled by sqrt(2 / fan-in); biases come from a law of the same kind times a
positive bias scale.  The Jacobian of the network output with respect to its
input is the product of the per-layer matrices masked by the open-neuron
pattern, and its squared norm applied to a fixed unit vector is distributed
exactly like the masked matrix product ensemble at mask probability 1/2.

The statistical path (``jacobian_batch``) never materializes the Jacobian.
It draws networks in blocks of ``CHUNK`` on the ensemble sampler's block
engine, and for each block propagates the inputs and the tangent vectors of
all its networks at once through the masked layers, with the same
renormalize-and-accumulate step as the ensemble sampler; blocks run on worker
threads and the batch does not depend on their number.  ``sample_network``
and ``jacobian_log_norm`` do the same for one network, and a dense-matrix
variant exists for the finite-difference check at tiny sizes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DistributionSpec
from .ensemble import (
    Architecture,
    BetaParams,
    EnsembleConfig,
    UnitVector,
    compute_beta,
    make_config,
)
from .errors import AtomicLawError, DimensionMismatch
from .ksstats import KSReport, two_sample_ks
from .montecarlo import (
    CHUNK,
    DOMAIN_NET_BLOCKS,
    DOMAIN_NETS,
    SampleBatch,
    _collect_chunks,
    _renormalize,
    chunk_stream,
    run_trials,
)

# Fewest trials per side that compare_jacobian_vs_product accepts.
COMPARISON_MIN_TRIALS = 100


@dataclass(frozen=True)
class ReluNetConfig:
    """Architecture plus weight/bias laws for random initialization."""

    architecture: Architecture
    weight_law: DistributionSpec
    bias_law: DistributionSpec | None = None
    bias_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.weight_law.atomless:
            raise AtomicLawError("weight law must be atomless")
        if self.bias_law is not None and not self.bias_law.atomless:
            raise AtomicLawError("bias law must be atomless")
        if self.bias_scale <= 0.0:
            raise ValueError(f"bias scale must be positive, got {self.bias_scale}")

    @property
    def widths(self) -> tuple[int, ...]:
        return self.architecture.widths

    @property
    def effective_bias_law(self) -> DistributionSpec:
        return self.bias_law if self.bias_law is not None else self.weight_law

    def fingerprint(self) -> str:
        text = (
            f"relu;widths={self.widths};w={self.weight_law.label};"
            f"b={self.effective_bias_law.label}*{self.bias_scale!r}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ReluNet:
    """Concrete weights and biases; weights carry the sqrt(2/fan-in) scale."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def depth(self) -> int:
        return len(self.weights)


def sample_network(config: ReluNetConfig, trial_index: int = 0) -> ReluNet:
    """Draw one network; per layer the weight matrix is drawn before the bias."""
    rng = chunk_stream(config.seed, DOMAIN_NETS, trial_index)
    widths = config.widths
    weights = []
    biases = []
    for i in range(1, len(widths)):
        n, m = widths[i], widths[i - 1]
        w = config.weight_law.sample(rng, (n, m)) * math.sqrt(2.0 / m)
        b = config.effective_bias_law.sample(rng, n) * config.bias_scale
        weights.append(w)
        biases.append(b)
    return ReluNet(weights=tuple(weights), biases=tuple(biases))


@dataclass(frozen=True)
class ForwardTrace:
    """Input, preactivations and post-ReLU activations of every layer."""

    input: np.ndarray
    preactivations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def forward(net: ReluNet, x) -> ForwardTrace:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.widths[0],):
        raise DimensionMismatch(
            f"input has shape {x.shape}, network expects ({net.widths[0]},)"
        )
    pres = []
    acts = []
    h = x
    for w, b in zip(net.weights, net.biases):
        pre = w @ h + b
        h = relu(pre)
        pres.append(pre)
        acts.append(h)
    return ForwardTrace(input=x, preactivations=tuple(pres), activations=tuple(acts))


def apply_network(net: ReluNet, x) -> np.ndarray:
    return forward(net, x).activations[-1]


@dataclass(frozen=True)
class JacobianResult:
    """Dense input-output Jacobian with per-layer open-neuron counts."""

    matrix: np.ndarray
    open_counts: tuple[int, ...]


def jacobian_matrix(net: ReluNet, x) -> JacobianResult:
    """Exact Jacobian of the network output at x (ties at 0 count as closed).

    Dense product of masked layer matrices; only meant for small nets (the
    finite-difference check).  The statistical path uses vector propagation.
    """
    trace = forward(net, x)
    jac = np.eye(net.widths[0])
    opens = []
    for w, pre in zip(net.weights, trace.preactivations):
        open_mask = pre > 0.0
        jac = (w @ jac) * open_mask[:, None]
        opens.append(int(np.count_nonzero(open_mask)))
    return JacobianResult(matrix=jac, open_counts=tuple(opens))


def jacobian_log_norm(net: ReluNet, x, u: UnitVector) -> float | None:
    """Log of (n_0/n_d) times the squared norm of the Jacobian applied to u.

    Propagates u through the masked layers, renormalizing at each step; the
    per-layer sqrt(n_{i-1}/n_i) factor folds the end-to-end width
    normalization into the running product.  Returns None when some layer
    zeroes the vector (all its neurons closed).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.any(x):
        raise ValueError("evaluation input must be nonzero")
    if u.dim != net.widths[0]:
        raise DimensionMismatch(
            f"u has dim {u.dim}, network expects {net.widths[0]}"
        )
    widths = net.widths
    h = x
    v = u.coords.copy()
    logs = 0.0
    for i, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
        pre = w @ h + b
        h = relu(pre)
        v = (w @ v) * (pre > 0.0)
        raw_sq = float(v @ v)
        if raw_sq == 0.0:
            return None
        logs += math.log(raw_sq * widths[i - 1] / widths[i])
        v /= math.sqrt(raw_sq)
    return logs


def evgp_beta(config: ReluNetConfig, u: UnitVector) -> BetaParams:
    """Gradient-instability parameter: the ensemble beta at mask rate 1/2."""
    ensemble = make_config(config.widths, Fraction(1, 2), config.weight_law)
    return compute_beta(ensemble, u)


def default_input(dim: int) -> np.ndarray:
    """All-ones direction scaled to unit norm; any fixed nonzero input works."""
    return np.full(dim, dim**-0.5)


@dataclass(frozen=True)
class JacobianComparison:
    """Two batches drawn from laws that should coincide, plus their KS report."""

    jacobian_batch: SampleBatch
    product_batch: SampleBatch
    ks: KSReport


def _jacobian_chunk(cfg: ReluNetConfig, x: np.ndarray, u0: np.ndarray, rng: np.random.Generator):
    """Jacobian log-norms of one block of CHUNK networks; returns (logs, alive).

    Per layer the block draws its (CHUNK, n, m) weights, then its (CHUNK, n)
    biases: the order of ``sample_network``, one layer of every network at a
    time.
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
        b = cfg.effective_bias_law.sample(rng, (CHUNK, n)) * cfg.bias_scale
        pre = np.matmul(w, h[:, :, None])[:, :, 0] + b
        v = np.matmul(w, v[:, :, None])[:, :, 0] * (pre > 0.0)
        h = relu(pre)
        v = _renormalize(v, n / m, logs, alive)
    return logs, alive


def jacobian_batch(
    config: ReluNetConfig,
    trials: int,
    seed: int | None = None,
    x=None,
    u: UnitVector | None = None,
    threads: int | None = None,
) -> SampleBatch:
    """Jacobian log-norm samples over independently drawn networks.

    Block c of CHUNK networks draws from ``chunk_stream(seed,
    DOMAIN_NET_BLOCKS, c)``; zero events are counted, and the batch is the
    same for any thread count.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    widths = config.widths
    x = default_input(widths[0]) if x is None else np.asarray(x, dtype=np.float64)
    if x.shape != (widths[0],):
        raise DimensionMismatch(f"input has shape {x.shape}, network expects ({widths[0]},)")
    if not np.any(x):
        raise ValueError("evaluation input must be nonzero")
    if u is None:
        u = UnitVector.uniform(widths[0])
    if u.dim != widths[0]:
        raise DimensionMismatch(f"u has dim {u.dim}, network expects {widths[0]}")
    if seed is None:
        seed = config.seed
    u0 = u.coords

    def chunk_fn(index: int):
        rng = chunk_stream(seed, DOMAIN_NET_BLOCKS, index)
        return _jacobian_chunk(config, x, u0, rng)

    samples, zero_events = _collect_chunks(trials, 0, threads, chunk_fn)
    return SampleBatch(
        samples=samples,
        zero_event_count=zero_events,
        trials=trials,
        seed=seed,
        fingerprint=config.fingerprint(),
    )


def compare_jacobian_vs_product(
    config: ReluNetConfig,
    trials: int,
    seed: int,
    x=None,
    u: UnitVector | None = None,
    product_p=Fraction(1, 2),
    threads: int | None = None,
) -> JacobianComparison:
    """Draws both sides and reports the two-sample KS statistic.

    The product side runs the masked-ensemble sampler with the same widths
    and entry law; ``product_p`` defaults to the matching 1/2 and can be set
    elsewhere as a negative control.
    """
    if trials < COMPARISON_MIN_TRIALS:
        raise ValueError(f"comparison needs at least {COMPARISON_MIN_TRIALS} trials per side")
    widths = config.widths
    if u is None:
        u = UnitVector.uniform(widths[0])
    jac = jacobian_batch(config, trials, seed=seed, x=x, u=u, threads=threads)
    ensemble: EnsembleConfig = make_config(widths, Fraction(product_p), config.weight_law)
    product = run_trials(ensemble, u, trials, seed, threads=threads)
    report = two_sample_ks(jac.samples, product.samples)
    return JacobianComparison(jacobian_batch=jac, product_batch=product, ks=report)
