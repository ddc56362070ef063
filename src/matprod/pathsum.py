"""Exact moments of the masked matrix product via layerwise path counting.

The k-th moment of the normalized squared norm is a sum over sequences of
k-tuples of vertices, one tuple per layer, of a per-layer collision factor.
The factor for a pair of adjacent tuples depends only on

  * the multiplicity matrix of the edges the tuples trace out, through a
    ratio of multinomial path counts and a product of entry-law moments, and
  * the number of distinct vertices in the next tuple, through a power of
    the mask probability.

Two independent evaluation routes are provided:

``exact_moment``
    Collapses each layer's tuple space to equivalence classes (set partitions
    of the k tuple slots), and those to their orbits under permutations of
    the slots: the block-size shapes, or integer partitions of k.  It runs a
    transfer-matrix contraction over shapes, p(k) states per layer (22 at
    k = 8, against Bell(8) = 4140 set partitions).  Exact rational arithmetic
    whenever the entry-law moments, the mask probability and the squared
    input coordinates are rational; otherwise floats normalised at every
    layer, with ``FloatRangeError`` if the result is still not finite.

``brute_force_moment``
    Never uses the k-tuple collapse.  Either sums over 2k-tuples of raw paths
    layer by layer (the direct expansion of the 2k-th power of the norm), or,
    for discrete laws on tiny instances, enumerates every weight/mask
    assignment outright and averages the resulting norm powers.

Both routes fail fast with ``BudgetExceeded`` when their documented cost
model exceeds the evaluation budget: ``DEFAULT_BUDGET`` for the engine,
``PATHS_BUDGET`` for the raw-path oracle, whose unit of work costs more.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from fractions import Fraction
from functools import lru_cache

from .distributions import DistributionSpec
from .ensemble import BetaParams, EnsembleConfig, UnitVector
from .errors import BudgetExceeded, DimensionMismatch, FloatRangeError

DEFAULT_BUDGET = 10**8
# A raw-path unit costs about 1.6-2 us (widths 3-5, k = 2-3), so this admits
# about 20 s of brute-force path summation.
PATHS_BUDGET = 10**7
DEFAULT_K_CAP = 8


class CollisionRegimeWarning(UserWarning):
    """The requested k is outside the regime where the log-normal moment
    prediction is accurate (k-choose-2 reaching the smallest layer width).
    The exact computation itself remains valid for every k."""


# ---------------------------------------------------------------------------
# combinatorial primitives
# ---------------------------------------------------------------------------


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


def falling_factorial(n: int, r: int) -> int:
    """n (n-1) ... (n-r+1); zero when r > n."""
    out = 1
    for j in range(r):
        out *= n - j
        if out == 0:
            return 0
    return out


Partition = tuple[tuple[int, ...], ...]


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


# ---------------------------------------------------------------------------
# shape-indexed transfer engine (exact_moment)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def integer_partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of k as non-increasing tuples of block sizes."""

    def below(rest: int, largest: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, largest), 0, -1):
            for tail in below(rest - first, first):
                yield (first,) + tail

    return tuple(below(k, k))


def _representative(shape: tuple[int, ...]) -> Partition:
    """The set partition of range(k) into consecutive runs of the given sizes."""
    bounds = list(itertools.accumulate(shape, initial=0))
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))


def _class_factor(meet: Partition, tau: Partition, law: DistributionSpec, p: Fraction, k: int) -> Fraction:
    """Collision factor as a function of equivalence classes only.

    The layer factor is invariant under separate relabelings of the two
    vertex sets, so it only depends on the partition of the slots by the next
    tuple's values (tau) and on the common refinement with the previous
    tuple's partition (meet).
    """
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


@lru_cache(maxsize=None)
def _shape_transfer(law: DistributionSpec, p: Fraction, k: int):
    """Transfer matrix over block-size shapes, without the width-dependent counts.

    The set-partition transfer T[sigma][tau] is unchanged when one permutation
    of the k slots is applied to both partitions, and so are the initial
    masses and the tuple counts.  The state vector is therefore constant on
    each shape, and R[mu][lam], the sum of T[sigma][tau_lam] over every sigma
    of shape mu against one representative tau_lam of shape lam, carries it
    from layer to layer.  Returns the shapes, the number of set partitions of
    each shape, and R.
    """
    shapes = integer_partitions(k)
    index = {shape: i for i, shape in enumerate(shapes)}
    reps = [_representative(shape) for shape in shapes]
    orbit_sizes = [0] * len(shapes)
    rows = [[Fraction(0)] * len(shapes) for _ in shapes]
    for sigma in set_partitions(k):
        mu = index[tuple(sorted(map(len, sigma), reverse=True))]
        orbit_sizes[mu] += 1
        for lam, tau in enumerate(reps):
            rows[mu][lam] += _class_factor(partition_meet(sigma, tau), tau, law, p, k)
    return shapes, tuple(orbit_sizes), tuple(tuple(row) for row in rows)


def _initial_masses(shapes, power_sums) -> list:
    """Squared-input mass carried by one slot partition of each shape.

    ``power_sums[m]`` is the sum over coordinates of squares**m.  For block
    sizes (s_1..s_r) the mass is the sum over tuples of r distinct
    coordinates of the matching product of powers, computed by Moebius
    inversion over partitions of the blocks.
    """
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


def _exact_power_sums(u: UnitVector, k: int):
    if u.squares is not None:
        return [None] + [
            sum((s**m for s in u.squares), Fraction(0)) for m in range(1, k + 1)
        ]
    # u without exact squares; at the CLI, a file u that numpy has read
    import numpy as np

    sq = u.coords * u.coords
    return [None] + [float(np.sum(sq**m)) for m in range(1, k + 1)]


def _moment_preflight(config: EnsembleConfig, u: UnitVector, k: int, k_cap: int):
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    if u.dim != config.widths[0]:
        raise DimensionMismatch(
            f"u has dim {u.dim}, architecture starts at {config.widths[0]}"
        )
    if k > k_cap:
        raise BudgetExceeded(k, k_cap, message=f"moment order k={k} exceeds the cap {k_cap}")
    if math.comb(k, 2) >= min(config.architecture.inner_widths):
        warnings.warn(
            f"k={k} has comb(k,2)={math.comb(k, 2)} >= min width "
            f"{min(config.architecture.inner_widths)}; the log-normal moment "
            "prediction is unreliable here (the exact value is still exact)",
            CollisionRegimeWarning,
            stacklevel=3,
        )


def exact_moment(
    config: EnsembleConfig,
    u: UnitVector,
    k: int,
    budget: int = DEFAULT_BUDGET,
    k_cap: int = DEFAULT_K_CAP,
) -> Fraction | float:
    """k-th moment of the normalized squared norm of the product applied to u.

    Returns an exact Fraction when the squared coordinates of u are known
    exactly (entry-law moments and the mask probability always are); a float
    otherwise; raises ``FloatRangeError`` when that float is not finite.

    Contracts a transfer over the block-size shapes (integer partitions) of
    the k slots.  Cost ~ Bell(k) * p(k) class factors to build the transfer,
    once per (law, p, k), plus depth * p(k)^2 products per call.
    """
    _moment_preflight(config, u, k, k_cap)
    n_shapes = len(integer_partitions(k))
    cost = len(set_partitions(k)) * n_shapes + config.architecture.depth * n_shapes**2
    if cost > budget:
        raise BudgetExceeded(cost, budget, what="shape transfer")
    return _shape_moment(config, u, k)


def _shape_moment(config: EnsembleConfig, u: UnitVector, k: int):
    shapes, orbit_sizes, transfer = _shape_transfer(config.entry_law, config.p, k)
    exact = u.squares is not None
    vec = _initial_masses(shapes, _exact_power_sums(u, k))
    if not exact:
        transfer = tuple(tuple(float(x) for x in row) for row in transfer)
    ratio = Fraction if exact else operator.truediv
    states = range(len(shapes))
    for n in config.architecture.inner_widths:
        # k-tuples of each shape over n vertices, divided by n^k at every
        # layer so that the float route stays of the order of the moment.
        # Every term is nonnegative, so a plain sum cancels nothing, and an
        # overflow comes through as inf where math.fsum would raise.
        scale = [ratio(falling_factorial(n, len(shape)), n**k) for shape in shapes]
        vec = [scale[t] * sum(vec[s] * transfer[s][t] for s in states) for t in states]
    total = sum(size * w for size, w in zip(orbit_sizes, vec))
    if not exact and not math.isfinite(total):
        raise FloatRangeError(f"E[Z^{k}] on the float route is outside double precision")
    return total


def theory_moment(beta, k: int) -> float:
    """Leading-order log-normal prediction exp(comb(k,2) * beta)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    value = beta.beta if isinstance(beta, BetaParams) else float(beta)
    try:
        return math.exp(math.comb(k, 2) * value)
    except OverflowError:
        raise FloatRangeError(
            f"exp(comb({k},2) * beta) with beta = {value:.6g} is outside double precision"
        ) from None


# ---------------------------------------------------------------------------
# brute-force oracles (no k-tuple collapse)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tuple_space(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(n), repeat=ell))


@lru_cache(maxsize=None)
def _bf_transfer(n_prev: int, n_next: int, law: DistributionSpec, p: Fraction, k: int):
    """Layer transfer over raw 2k-tuples, scaled to integers when possible.

    Entry for (x, y): weight(m_{x,y}) * a^{#y} * b^{2k-#y} with p = a/b; the
    true factor is recovered dividing by (a*b)^k per layer.  Returns the
    matrix and the flag saying whether entries are exact ints.
    """
    a, b = p.numerator, p.denominator
    xs = _tuple_space(n_prev, 2 * k)
    ys = _tuple_space(n_next, 2 * k)
    uniq = [len(set(y)) for y in ys]
    law_moments = {}
    rows = []
    integral = True
    for x in xs:
        row = []
        for j, y in enumerate(ys):
            counts: dict[tuple[int, int], int] = {}
            for e in zip(x, y):
                counts[e] = counts.get(e, 0) + 1
            wt = Fraction(1)
            for c in counts.values():
                if c % 2 == 1:
                    wt = Fraction(0)
                    break
                if c not in law_moments:
                    law_moments[c] = law.moment(c)
                wt *= law_moments[c]
            val = wt * a ** uniq[j] * b ** (2 * k - uniq[j])
            if val.denominator != 1:
                integral = False
            row.append(val)
        rows.append(row)
    if integral:
        rows = [[int(v) for v in row] for row in rows]
    return tuple(tuple(row) for row in rows), integral


def _bf_initial_masses(u: UnitVector, k: int):
    """Signed input mass of each raw 2k-tuple of starting vertices.

    In exact mode, tuples visiting any coordinate an odd number of times are
    dropped outright: every even-multiplicity continuation forces even visit
    counts at the start, so such tuples contribute nothing.  That keeps the
    masses inside the field generated by the squared coordinates.
    """
    n0 = u.dim
    tuples = _tuple_space(n0, 2 * k)
    if u.squares is not None:
        masses = []
        for t in tuples:
            counts: dict[int, int] = {}
            for el in t:
                counts[el] = counts.get(el, 0) + 1
            if any(c % 2 for c in counts.values()):
                masses.append(Fraction(0))
                continue
            mass = Fraction(1)
            for el, c in counts.items():
                mass *= u.squares[el] ** (c // 2)
            masses.append(mass)
        return masses, True
    return [math.prod(u.values[el] for el in t) for t in tuples], False


def brute_force_moment(
    config: EnsembleConfig,
    u: UnitVector,
    k: int,
    method: str = "paths",
    budget: int | None = None,
    k_cap: int = DEFAULT_K_CAP,
) -> Fraction | float:
    """k-th normalized moment without the k-tuple path collapse.

    method "paths": layerwise sum over raw 2k-tuples with entry-law moment
    weights and mask-probability powers.  Cost ~ 2k (n_{i-1} n_i)^{2k} to
    build the transfer of each distinct width pair (every entry loops over
    the 2k edges), plus (n_{i-1} n_i)^{2k} per layer to contract it.
    method "assignments": full enumeration of weight/mask realizations,
    available for discrete laws on tiny instances.
    ``budget`` defaults to ``PATHS_BUDGET`` for "paths" and to
    ``DEFAULT_BUDGET`` for "assignments".
    """
    _moment_preflight(config, u, k, k_cap)
    if method == "paths":
        budget = PATHS_BUDGET if budget is None else budget
        pairs = list(zip(config.widths, config.widths[1:]))
        entries = {pair: (pair[0] * pair[1]) ** (2 * k) for pair in pairs}
        cost = 2 * k * sum(entries.values()) + sum(entries[pair] for pair in pairs)
        if cost > budget:
            raise BudgetExceeded(cost, budget, what="raw path summation")
        return _bf_paths_moment(config, u, k)
    if method == "assignments":
        return _assignment_moment(config, u, k, DEFAULT_BUDGET if budget is None else budget)
    raise ValueError(f"unknown method {method!r}")


def _bf_paths_moment(config: EnsembleConfig, u: UnitVector, k: int):
    widths = config.widths
    d = config.architecture.depth
    masses, exact = _bf_initial_masses(u, k)
    scale = Fraction(1)
    if exact:
        denom = math.lcm(*(m.denominator for m in masses)) if masses else 1
        vec = [int(m * denom) for m in masses]
        scale /= denom
    else:
        vec = list(masses)
    for i in range(1, d + 1):
        transfer, integral = _bf_transfer(widths[i - 1], widths[i], config.entry_law, config.p, k)
        if exact and not integral:
            vec = [Fraction(v) for v in vec]
        nxt_len = len(transfer[0])
        if exact:
            nxt = [0] * nxt_len
            for xi, vx in enumerate(vec):
                if vx == 0:
                    continue
                row = transfer[xi]
                for yi in range(nxt_len):
                    if row[yi]:
                        nxt[yi] += vx * row[yi]
            vec = nxt
        else:
            tf = [[float(v) for v in row] for row in transfer]
            vec = [
                math.fsum(vec[xi] * tf[xi][yi] for xi in range(len(vec)))
                for yi in range(nxt_len)
            ]
        scale /= (config.p.numerator * config.p.denominator) ** k
    # pair the path endpoints: only tuples of the form (v1,v1,...,vk,vk) count
    nd = widths[d]
    ys = _tuple_space(nd, 2 * k)
    index = {y: i for i, y in enumerate(ys)}
    paired_indices = [
        index[tuple(itertools.chain.from_iterable((v, v) for v in vtuple))]
        for vtuple in itertools.product(range(nd), repeat=k)
    ]
    norm = math.prod(n**k for n in config.architecture.inner_widths)
    if exact:
        total = sum(vec[i] for i in paired_indices)
        return Fraction(total) * scale / norm
    total = math.fsum(vec[i] for i in paired_indices)
    return total * float(scale) / float(norm)


def _assignment_moment(config: EnsembleConfig, u: UnitVector, k: int, budget: int):
    """Average the norm power over every weight and mask realization.

    Exact for discrete entry laws when the input is a basis or uniform
    vector (the norm of the unnormalized integer product is then rational).
    """
    law = config.entry_law
    if law.atomless:
        raise ValueError("assignment enumeration needs a discrete entry law")
    pairs = law.support_pairs()
    widths = config.widths
    d = config.architecture.depth
    n_entries = sum(widths[i] * widths[i - 1] for i in range(1, d + 1))
    n_mask = sum(widths[1:]) if config.p != 1 else 0
    cost = len(pairs) ** n_entries * 2**n_mask
    if cost > budget:
        raise BudgetExceeded(cost, budget, what="assignment enumeration")

    exact = (
        u.squares is not None
        and all(c >= 0.0 for c in u.values)
        and len({s for s in u.squares if s != 0}) == 1
    )
    if exact:
        # uniform: work with the all-ones vector and divide by n0^k later;
        # basis: indicator vector.  Both keep the product integer-valued
        # (up to the law's denominators).
        nonzero = [i for i, s in enumerate(u.squares) if s != 0]
        base_vec = [Fraction(1) if i in set(nonzero) else Fraction(0) for i in range(widths[0])]
        u_scale = u.squares[nonzero[0]]  # squared coordinate value
    else:
        base_vec = list(u.values)
        u_scale = 1.0

    probs = dict(pairs)
    support = [v for v, _ in pairs]
    p = config.p

    mask_patterns: list[tuple[tuple[int, ...], Fraction]] = []
    if config.p == 1:
        mask_patterns.append((tuple([1] * sum(widths[1:])), Fraction(1)))
    else:
        for bits in itertools.product((0, 1), repeat=sum(widths[1:])):
            ones = sum(bits)
            prob = p**ones * (1 - p) ** (len(bits) - ones)
            mask_patterns.append((bits, prob))

    if exact:
        norm_factors = math.prod(
            (p * widths[i - 1] for i in range(1, d + 1)), start=Fraction(1)
        )
        z_scale = Fraction(widths[0], widths[d]) * u_scale / norm_factors
    else:
        norm_factors = math.prod(float(p) * widths[i - 1] for i in range(1, d + 1))
        z_scale = widths[0] / widths[d] * u_scale / norm_factors

    total = Fraction(0) if exact else 0.0
    for entries in itertools.product(support, repeat=n_entries):
        w_prob = math.prod(probs[e] for e in entries)
        mats = []
        pos = 0
        for i in range(1, d + 1):
            rows = []
            for _ in range(widths[i]):
                rows.append(entries[pos : pos + widths[i - 1]])
                pos += widths[i - 1]
            mats.append(rows)
        for bits, m_prob in mask_patterns:
            vec = base_vec
            off = 0
            for i in range(1, d + 1):
                rows = mats[i - 1]
                nxt = []
                for r in range(widths[i]):
                    if bits[off + r]:
                        nxt.append(sum(rows[r][c] * vec[c] for c in range(widths[i - 1])))
                    else:
                        nxt.append(0 * vec[0])
                vec = nxt
                off += widths[i]
            sqnorm = sum(x * x for x in vec)
            if exact:
                total += w_prob * m_prob * (z_scale * sqnorm) ** k
            else:
                total += float(w_prob) * float(m_prob) * (z_scale * float(sqnorm)) ** k
    return total
