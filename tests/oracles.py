"""Test-side oracles: small direct computations that the library is checked against.

``layer_factor`` evaluates the collision factor of one pair of vertex tuples
straight from its definition, with no collapse to set partitions or shapes.
``set_partition_transfer`` builds the exact engine's shape transfer by
enumerating every set partition of the k slots (Bell(k) * p(k) class
factors), and ``moebius_masses`` its initial masses by Moebius inversion
over set partitions of the blocks; the engine reaches both by recursions
over integer partitions instead.  ``assignment_moment``
averages the norm power over every weight and mask realization of a discrete
law, with no path expansion at all.  ``unit_from_squares`` builds a
nonnegative unit vector from exact squared coordinates.  ``sample_network``,
``forward`` and ``dense_jacobian`` draw one ReLU network and differentiate
it by the chain rule with dense matrices, with no renormalised vector
propagation, so they share no code with ``relunets._jacobian_chunk``.
``predict_layer_variance`` and ``zero_event_probability`` are closed forms
for the one-layer variance and the all-zero-mask probability, the
references the samplers' layer variances and zero-event rates are held to.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from matprod.ensemble import EnsembleConfig, UnitVector
from matprod.montecarlo import DOMAIN_NETS, chunk_stream
from matprod.pathsum import integer_partitions

Partition = tuple[tuple[int, ...], ...]


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



def multinomial(parts) -> int:
    """Multinomial coefficient (sum parts)! / prod(part!) as an exact int."""
    total = 0
    out = 1
    for part in parts:
        if part < 0:
            raise ValueError("multinomial parts must be nonnegative")
        total += part
        out *= math.comb(total, part)
    return out


@lru_cache(maxsize=None)
def set_partitions(k: int) -> tuple[Partition, ...]:
    """All set partitions of range(k) in canonical form.

    Canonical form: blocks sorted internally, then by first element.  Built by
    inserting element k-1 into every partition of range(k-1).
    """
    if k == 0:
        return ((),)
    out: list[Partition] = []
    for smaller in set_partitions(k - 1):
        for j in range(len(smaller)):
            blocks = list(smaller)
            blocks[j] = blocks[j] + (k - 1,)
            out.append(_canonical(blocks))
        out.append(_canonical(list(smaller) + [(k - 1,)]))
    return tuple(out)


def _canonical(blocks) -> Partition:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def partition_meet(sigma: Partition, tau: Partition) -> Partition:
    """Common refinement: elements together iff together in both partitions."""
    label_s = {}
    for idx, block in enumerate(sigma):
        for el in block:
            label_s[el] = idx
    label_t = {}
    for idx, block in enumerate(tau):
        for el in block:
            label_t[el] = idx
    groups: dict[tuple[int, int], list[int]] = {}
    for el in label_s:
        groups.setdefault((label_s[el], label_t[el]), []).append(el)
    return _canonical(groups.values())


def _class_factor(meet: Partition, tau: Partition, law, p: Fraction, k: int) -> Fraction:
    """Collision factor as a function of equivalence classes only: the
    partition of the slots by the next tuple's values (tau) and its common
    refinement with the previous tuple's partition (meet)."""
    containing: dict[int, int] = {}
    for idx, block in enumerate(tau):
        for el in block:
            containing[el] = idx
    sub_sizes: dict[int, list[int]] = {idx: [] for idx in range(len(tau))}
    for block in meet:
        sub_sizes[containing[block[0]]].append(len(block))
    out = Fraction(1)
    for idx, block in enumerate(tau):
        sizes = sub_sizes[idx]
        out *= Fraction(multinomial(2 * s for s in sizes), multinomial(sizes))
        for s in sizes:
            out *= law.moment(2 * s)
    return out * p ** (len(tau) - k)


def set_partition_transfer(law, p: Fraction, k: int):
    """``pathsum._shape_transfer`` by enumeration: R[mu][lam] sums the class
    factor of every set partition sigma of shape mu against one
    representative tau of shape lam, the consecutive runs of its sizes.
    Returns the same (shapes, orbit sizes, D * R as integers, D)."""
    shapes = integer_partitions(k)
    index = {shape: i for i, shape in enumerate(shapes)}
    reps = []
    for shape in shapes:
        bounds = list(itertools.accumulate(shape, initial=0))
        reps.append(tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])))
    orbit_sizes = [0] * len(shapes)
    rows = [[Fraction(0)] * len(shapes) for _ in shapes]
    for sigma in set_partitions(k):
        mu = index[tuple(sorted(map(len, sigma), reverse=True))]
        orbit_sizes[mu] += 1
        for lam, tau in enumerate(reps):
            rows[mu][lam] += _class_factor(partition_meet(sigma, tau), tau, law, p, k)
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    transfer = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)
    return shapes, tuple(orbit_sizes), transfer, scale


def moebius_masses(shapes, power_sums) -> list:
    """``pathsum._initial_masses`` by Moebius inversion over the set
    partitions of each shape's blocks."""
    masses = []
    for sizes in shapes:
        total = 0
        for rho in set_partitions(len(sizes)):
            term = 1
            for merged in rho:
                weight = sum(sizes[i] for i in merged)
                sign = -1 if (len(merged) % 2 == 0) else 1
                term *= sign * math.factorial(len(merged) - 1) * power_sums[weight]
            total = total + term
        masses.append(total)
    return masses


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


def unit_from_squares(squares) -> UnitVector:
    """The nonnegative unit vector with these exact squared coordinates."""
    sq = tuple(Fraction(s) for s in squares)
    return UnitVector(tuple(math.sqrt(s) for s in sq), sq)


def sample_network(cfg, seed: int, trial: int):
    """One network of a ``ReluNetConfig`` as (weights, biases), drawn from
    ``chunk_stream(seed, DOMAIN_NETS, trial)``: per layer the weights times
    sqrt(2 / fan-in), then the biases from the same law times the bias scale."""
    rng = chunk_stream(seed, DOMAIN_NETS, trial)
    weights, biases = [], []
    for m, n in zip(cfg.widths, cfg.widths[1:]):
        weights.append(cfg.weight_law.sample(rng, (n, m)) * math.sqrt(2.0 / m))
        biases.append(cfg.weight_law.sample(rng, n) * cfg.bias_scale)
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


def predict_layer_variance(u_current, n_next: int, p: float, mu4: float) -> float:
    """Variance of the one-layer normalized squared-norm ratio at a fixed input.

    Matches the closed form (3/p - 1)/n + (mu4 - 3)/(p n) * ||u||_4^4/||u||_2^4.
    """
    values = u_current.values if isinstance(u_current, UnitVector) else u_current
    squares = [float(c) ** 2 for c in values]
    sq = math.fsum(squares)
    if sq == 0.0:
        raise ValueError("current vector must be nonzero")
    quart = math.fsum(s * s for s in squares) / sq**2
    p = float(p)
    return (3.0 / p - 1.0) / n_next + (mu4 - 3.0) / (p * n_next) * quart


@dataclass(frozen=True)
class ZeroEventEstimate:
    """Probability that some layer's output vanishes.

    For atom-bearing entry laws exact cancellation can also kill the vector,
    so the all-zero-mask computation is only a lower bound; ``lower_bound_only``
    flags that case.
    """

    probability: float
    lower_bound_only: bool


def zero_event_probability(config: EnsembleConfig) -> ZeroEventEstimate:
    """Probability of the zero event: 1 - prod_j(1 - (1-p)^{n_j}).

    Each layer mask is all-zero with probability (1-p)^{n_j}; for atomless
    entry laws this is the only way the propagated vector can vanish.
    """
    q = 1.0 - float(config.p)
    surviving = 1.0
    for n in config.widths[1:]:
        surviving *= 1.0 - q**n
    return ZeroEventEstimate(1.0 - surviving, lower_bound_only=not config.entry_law.atomless)
