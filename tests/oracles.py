"""Test-side oracles: small direct computations that the library is checked against.

``layer_factor`` evaluates the collision factor of one pair of vertex tuples
straight from its definition, with no collapse to set partitions or shapes,
so it shares no code with ``pathsum._class_factor``.  ``sample_network``,
``forward`` and ``dense_jacobian`` draw one ReLU network and differentiate
it by the chain rule with dense matrices, with no renormalised vector
propagation, so they share no code with ``relunets._jacobian_chunk``.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from matprod.montecarlo import DOMAIN_NETS, chunk_stream


def _left_tuple_count(edges: Counter) -> int:
    """Ordered left tuples that trace these edge counts: per right vertex, the
    multinomial distributing its incoming uses among the left vertices."""
    into: dict[int, list[int]] = {}
    for (_, b), c in edges.items():
        into.setdefault(b, []).append(c)
    return math.prod(
        math.factorial(sum(cs)) // math.prod(math.factorial(c) for c in cs) for cs in into.values()
    )


def layer_factor(prev, nxt, law, p) -> Fraction:
    """weight(2m) * count_2k(2m) / count_k(m) * p**(distinct(next) - k), with m
    the edge counts traced by the tuple pair (prev, nxt)."""
    k = len(nxt)
    m = Counter(zip(prev, nxt))
    doubled = Counter({e: 2 * c for e, c in m.items()})
    weight = math.prod((law.moment(c) for c in doubled.values()), start=Fraction(1))
    ratio = Fraction(_left_tuple_count(doubled), _left_tuple_count(m))
    return weight * ratio * Fraction(p) ** (len(set(nxt)) - k)


def sample_network(cfg, trial: int):
    """One network of a ``ReluNetConfig`` as (weights, biases), drawn from
    ``chunk_stream(cfg.seed, DOMAIN_NETS, trial)``: per layer the weights times
    sqrt(2 / fan-in), then the bias."""
    rng = chunk_stream(cfg.seed, DOMAIN_NETS, trial)
    weights, biases = [], []
    for m, n in zip(cfg.widths, cfg.widths[1:]):
        weights.append(cfg.weight_law.sample(rng, (n, m)) * math.sqrt(2.0 / m))
        biases.append(cfg.effective_bias_law.sample(rng, n) * cfg.bias_scale)
    return weights, biases


def forward(weights, biases, x):
    """Network output at x and the preactivations of every layer."""
    h = np.asarray(x, dtype=np.float64)
    pres = []
    for w, b in zip(weights, biases):
        pres.append(w @ h + b)
        h = np.maximum(pres[-1], 0.0)
    return h, pres


def dense_jacobian(weights, biases, x) -> np.ndarray:
    """Input-output Jacobian at x: the product of the layer matrices masked by
    the open neurons (a preactivation of exactly 0 counts as closed)."""
    _, pres = forward(weights, biases, x)
    jac = np.eye(weights[0].shape[1])
    for w, pre in zip(weights, pres):
        jac = (w @ jac) * (pre > 0.0)[:, None]
    return jac
