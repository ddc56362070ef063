"""Test-side oracles: small direct computations that the library is checked against.

``layer_factor`` evaluates the collision factor of one pair of vertex tuples
straight from its definition, with no collapse to set partitions or shapes,
so it shares no code with ``pathsum._class_factor``.  ``assignment_moment``
averages the norm power over every weight and mask realization of a discrete
law, with no path expansion at all.  ``sample_network``,
``forward`` and ``dense_jacobian`` draw one ReLU network and differentiate
it by the chain rule with dense matrices, with no renormalised vector
propagation, so they share no code with ``relunets._jacobian_chunk``.
"""

import itertools
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



def assignment_moment(config, u, k) -> Fraction:
    """E[Z^k] by enumerating every weight and mask realization of a discrete
    entry law, for a basis or uniform u on a tiny instance.

    The product is run on the indicator vector of u's support, which keeps it
    rational; Z rescales it by u's common squared coordinate.
    """
    nonzero = [i for i, s in enumerate(u.squares) if s]
    if config.entry_law.atomless or len({u.squares[i] for i in nonzero}) != 1:
        raise ValueError("needs a discrete entry law and a basis or uniform u")
    widths, p = config.widths, config.p
    d = len(widths) - 1
    n_entries = sum(widths[i] * widths[i - 1] for i in range(1, d + 1))
    base_vec = [Fraction(int(i in nonzero)) for i in range(widths[0])]
    z_scale = Fraction(widths[0], widths[d]) * u.squares[nonzero[0]]
    z_scale /= math.prod((p * widths[i - 1] for i in range(1, d + 1)), start=Fraction(1))
    probs = dict(config.entry_law.support_pairs())
    mask_patterns = []
    for bits in itertools.product((0, 1), repeat=sum(widths[1:])):
        ones = sum(bits)
        mask_patterns.append((bits, p**ones * (1 - p) ** (len(bits) - ones)))
    total = Fraction(0)
    for entries in itertools.product(probs, repeat=n_entries):
        w_prob = math.prod(probs[e] for e in entries)
        mats, pos = [], 0
        for i in range(1, d + 1):
            mats.append([entries[pos + r * widths[i - 1]:pos + (r + 1) * widths[i - 1]]
                         for r in range(widths[i])])
            pos += widths[i] * widths[i - 1]
        for bits, m_prob in mask_patterns:
            vec, off = base_vec, 0
            for i in range(1, d + 1):
                vec = [
                    sum(row[c] * vec[c] for c in range(widths[i - 1])) if bits[off + r] else 0
                    for r, row in enumerate(mats[i - 1])
                ]
                off += widths[i]
            total += w_prob * m_prob * (z_scale * sum(x * x for x in vec)) ** k
    return total


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
