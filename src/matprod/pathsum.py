"""Exact moments of the masked matrix product via layerwise path counting.

The k-th moment of the normalized squared norm is a sum over sequences of
k-tuples of vertices, one tuple per layer, of a per-layer collision factor.
The factor for a pair of adjacent tuples depends only on

  * the multiplicity matrix of the edges the tuples trace out, through a
    ratio of multinomial path counts and a product of entry-law moments, and
  * the number of distinct vertices in the next tuple, through a power of
    the mask probability.

Two independent evaluation routes are provided.  Both return an exact
``Fraction`` for every starting vector: the entry-law moments and the mask
probability are rational, and so are the squared coordinates of u, a float
coordinate being a dyadic rational.  Both run on integers scaled to one
running denominator and build a single ``Fraction`` at the end.

``exact_moment``
    Collapses each layer's tuple space to equivalence classes (set partitions
    of the k tuple slots), and those to their orbits under permutations of
    the slots: the block-size shapes, or integer partitions of k.  It runs a
    transfer-matrix contraction over shapes, p(k) states per layer (77 at
    k = 12, against Bell(12) = 4,213,597 set partitions).  The transfer and
    the input masses are built by recursions over integer partitions too,
    so no set partition is ever enumerated.

``brute_force_moment``
    Never uses the k-tuple collapse: sums over 2k-tuples of raw paths layer
    by layer (the direct expansion of the 2k-th power of the norm).

Both routes fail fast with ``BudgetExceeded`` when k exceeds
``DEFAULT_K_CAP`` or their documented cost model exceeds the evaluation
budget: ``DEFAULT_BUDGET`` for the engine, ``PATHS_BUDGET`` for the raw-path
oracle, whose unit of work costs more.  They read these module constants at
call time, so there is one setting of each for the whole package.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .distributions import DistributionSpec
from .ensemble import EnsembleConfig, UnitVector
from .errors import BudgetExceeded, DimensionMismatch, FloatRangeError

# A unit of the shape contraction, one 64-bit word of one integer product,
# costs about 5-8 ns (widths 256-1024, depths 120-4000, k = 4-8), so this
# admits about 20 s of contraction.
DEFAULT_BUDGET = 3 * 10**9
# One block opening of a cold transfer build, with its share of the merges,
# takes about 5-8 us (k = 8-12, four laws): about a thousand units.  A cold
# build takes 0.01 s at k = 8 and 0.2-0.3 s at k = 12.
BUILD_STEP_UNITS = 1000
# A raw-path unit costs about 1.1-1.5 us (widths 3-5, k = 2-3), so this admits
# about 15 s of brute-force path summation.
PATHS_BUDGET = 10**7
# Highest moment order either route computes; the engine's per-law sums are
# built up to this order once.
DEFAULT_K_CAP = 12


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


def _orbit_size(shape: tuple[int, ...]) -> int:
    """Set partitions of range(sum(shape)) with these block sizes."""
    return math.factorial(sum(shape)) // math.prod(
        [math.factorial(s) for s in shape] + [math.factorial(c) for c in Counter(shape).values()]
    )


@lru_cache(maxsize=None)
def _with_part(n: int, m: int) -> tuple[int, ...]:
    """Index in integer_partitions(n + m) of each partition of n with a part m added."""
    index = {shape: i for i, shape in enumerate(integer_partitions(n + m))}
    return tuple(index[tuple(sorted(shape + (m,), reverse=True))] for shape in integer_partitions(n))


@lru_cache(maxsize=None)
def _tau_sums(law: DistributionSpec):
    """Sums of the transfer over the next tuple's set partitions, by their shape.

    Between slot partitions sigma and tau the transfer is p^(#tau - k) times
    a product over tau's blocks T.  With m = |T| and t_b = |T & sigma_b| > 0,
    T's factor multinomial(2t)/multinomial(t) * prod law.moment(2 t_b) is
    (2m-1)!! * prod h(t_b), where h(j) = law.moment(2j) / (2j-1)!!.

    Returns ``(sums, unit)``.  ``sums(rest)`` adds the product of block
    factors over every set partition of the slots still unassigned, ``rest``
    of them in each sigma-block (non-increasing), by its shape: a list
    indexed like ``integer_partitions(sum(rest))``, in integers over
    ``unit**sum(rest)``.  It opens the block holding a slot of the smallest
    remainder a, with t_a - 1 of that block's other slots and t_b of each
    other block's r_b, in C(a-1, t_a-1) * prod C(r_b, t_b) ways, and
    recurses on what is left.  Openings that leave the same remainders and
    open the same size are added up before their shapes are merged.  Nothing
    depends on k or p, so one memo per law serves every k up to
    ``DEFAULT_K_CAP``.
    """
    ratios = [
        law.moment(2 * j) / math.prod(range(1, 2 * j, 2)) for j in range(1, DEFAULT_K_CAP + 1)
    ]
    unit = math.lcm(*(r.denominator for r in ratios))
    block = [0] + [int(r * unit**j) for j, r in enumerate(ratios, start=1)]
    double = [math.prod(range(1, 2 * m, 2)) for m in range(DEFAULT_K_CAP + 1)]
    memo = {(): [1]}

    def sums(rest: tuple[int, ...]) -> list[int]:
        out = memo.get(rest)
        if out is not None:
            return out
        *others, a = rest
        takes_of_others = list(itertools.product(*(range(r + 1) for r in others)))
        # (remainders left, size of the opened block) -> summed weight
        openings: dict[tuple[tuple[int, ...], int], int] = {}
        for t_a in range(1, a + 1):
            first = math.comb(a - 1, t_a - 1) * block[t_a]
            for takes in takes_of_others:
                weight = first
                left = [a - t_a]
                for r, t in zip(others, takes):
                    if t:
                        weight *= math.comb(r, t) * block[t]
                    left.append(r - t)
                size = t_a + sum(takes)
                key = (tuple(sorted(filter(None, left), reverse=True)), size)
                openings[key] = openings.get(key, 0) + weight * double[size]
        n = sum(rest)
        out = memo[rest] = [0] * len(integer_partitions(n))
        for (left, size), weight in openings.items():
            for j, w in zip(_with_part(n - size, size), sums(left)):
                out[j] += weight * w
        return out

    return sums, unit


@lru_cache(maxsize=None)
def _build_steps(k: int) -> int:
    """Block openings of a cold build at order k: every partition ``rest`` of
    at most k slots is a state, and opens a * prod(r_b + 1), a its least part."""
    return sum(
        shape[-1] * math.prod(r + 1 for r in shape[:-1])
        for n in range(1, k + 1)
        for shape in integer_partitions(n)
    )


@lru_cache(maxsize=None)
def _shape_transfer(law: DistributionSpec, p: Fraction, k: int):
    """Transfer matrix over block-size shapes, without the width-dependent counts.

    The set-partition transfer T[sigma][tau] is unchanged when one permutation
    of the k slots is applied to both partitions, and so are the initial
    masses and the tuple counts.  The state vector is therefore constant on
    each shape, and R[mu][lam], the sum of T[sigma][tau_lam] over every sigma
    of shape mu against one representative tau_lam of shape lam, carries it
    from layer to layer.  Counting the pairs of shapes (mu, lam) both ways,
    R[mu][lam] = N(mu)/N(lam) * sum of T[sigma_mu][tau] over every tau of
    shape lam, N the orbit sizes, and ``_tau_sums`` gives those sums.  Returns
    the shapes, the number of set partitions of each shape, D * R as
    integers, and D, the lcm of R's denominators.
    """
    shapes = integer_partitions(k)
    orbit_sizes = tuple(map(_orbit_size, shapes))
    sums, unit = _tau_sums(law)
    rows = [
        [
            Fraction(n_mu * w, n_lam * unit**k) * p ** (len(lam) - k)
            for lam, n_lam, w in zip(shapes, orbit_sizes, sums(mu))
        ]
        for mu, n_mu in zip(shapes, orbit_sizes)
    ]
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    transfer = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows)
    return shapes, orbit_sizes, transfer, scale


def _initial_masses(shapes, power_sums) -> list:
    """Squared-input mass carried by one slot partition of each shape.

    ``power_sums[m]`` is the sum over coordinates of x**m, x the squared
    coordinate (times a common denominator, in the engine).  For block
    sizes (s_1..s_r) the mass M is the sum over tuples of r distinct
    coordinates of the matching product of powers.  Letting the first
    block's coordinate range freely counts, besides M, each tuple where it
    meets block j's: M(s_1..s_r) = P_{s_1} M(s_2..s_r) - sum_j M(s_2, ..,
    s_j + s_1, .., s_r), memoized over sorted sizes.
    """
    memo = {(): 1}

    def mass(sizes):
        out = memo.get(sizes)
        if out is None:
            first, rest = sizes[0], sizes[1:]
            out = power_sums[first] * mass(rest)
            for j, s in enumerate(rest):
                merged = rest[:j] + (s + first,) + rest[j + 1:]
                out -= mass(tuple(sorted(merged, reverse=True)))
            memo[sizes] = out
        return out

    return [mass(shape) for shape in shapes]


def _power_sums(scaled, k: int) -> list:
    """[None, sum x, sum x^2, ..., sum x^k] over the nonzero integers x."""
    nonzero = [x for x in scaled if x]
    powers = nonzero
    sums = [None]
    for _ in range(k):
        sums.append(sum(powers))
        powers = [a * x for a, x in zip(powers, nonzero)]
    return sums


def _moment_preflight(config: EnsembleConfig, u: UnitVector, k: int):
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    if u.dim != config.widths[0]:
        raise DimensionMismatch(
            f"u has dim {u.dim}, architecture starts at {config.widths[0]}"
        )
    if k > DEFAULT_K_CAP:
        raise BudgetExceeded(
            k, DEFAULT_K_CAP, message=f"moment order k={k} exceeds the cap {DEFAULT_K_CAP}"
        )


def exact_moment(config: EnsembleConfig, u: UnitVector, k: int) -> Fraction:
    """k-th moment of the normalized squared norm of the product applied to u.

    Always an exact Fraction: the entry-law moments, the mask probability and
    the squared coordinates of u are rational (a float coordinate is a dyadic
    rational), and the contraction runs on integers.

    Contracts a transfer over the block-size shapes (integer partitions) of
    the k slots.  Cost: ``_build_steps(k)`` block openings to build the
    transfer cold, once per (law, p, k), each counted as
    ``BUILD_STEP_UNITS``; then p(k)^2 integer products per layer, each
    counted by the 64-bit words of the state.  The state starts at k *
    bit_length(L) bits, L the common denominator of u's squares, and gains
    bit_length(D) + k * bit_length(n) bits at a layer of width n, D the
    common denominator of the transfer.  A cost over ``DEFAULT_BUDGET``, or
    k over ``DEFAULT_K_CAP``, raises ``BudgetExceeded`` before any of it runs.
    """
    _moment_preflight(config, u, k)
    n_shapes = len(integer_partitions(k))
    cost = BUILD_STEP_UNITS * _build_steps(k)
    if cost > DEFAULT_BUDGET:
        raise BudgetExceeded(cost, DEFAULT_BUDGET, what="shape transfer")
    *_, scale = _shape_transfer(config.entry_law, config.p, k)
    bits = k * u.scaled_squares[1].bit_length()
    for n in config.widths[1:]:
        bits += scale.bit_length() + k * n.bit_length()
        cost += n_shapes**2 * (bits // 64 + 1)
    if cost > DEFAULT_BUDGET:
        raise BudgetExceeded(cost, DEFAULT_BUDGET, what="shape transfer")
    return _shape_moment(config, u, k)


def _shape_moment(config: EnsembleConfig, u: UnitVector, k: int) -> Fraction:
    shapes, orbit_sizes, transfer, scale = _shape_transfer(config.entry_law, config.p, k)
    scaled, common = u.scaled_squares
    # every mass is a sum of products of power sums of total degree k, so the
    # integer masses carry the common denominator common**k
    vec = _initial_masses(shapes, _power_sums(scaled, k))
    states = range(len(shapes))
    columns = [[(s, transfer[s][t]) for s in states if transfer[s][t]] for t in states]
    widths = config.widths[1:]
    counts = {n: [math.perm(n, len(shape)) for shape in shapes] for n in set(widths)}
    for n in widths:
        # k-tuples of each shape over n vertices; the layer's denominator is
        # scale * n^k
        vec = [c * sum(vec[s] * r for s, r in col) for c, col in zip(counts[n], columns)]
    total = sum(size * w for size, w in zip(orbit_sizes, vec))
    return Fraction(total, common**k * math.prod(scale * n**k for n in widths))


def theory_moment(beta: float, k: int) -> float:
    """Leading-order log-normal prediction exp(comb(k,2) * beta)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    try:
        return math.exp(math.comb(k, 2) * beta)
    except OverflowError:
        raise FloatRangeError(
            f"exp(comb({k},2) * beta) with beta = {beta:.6g} is outside double precision"
        ) from None


# ---------------------------------------------------------------------------
# brute-force oracles (no k-tuple collapse)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tuple_space(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(n), repeat=ell))


@lru_cache(maxsize=None)
def _bf_transfer(n_prev: int, n_next: int, law: DistributionSpec, p: Fraction, k: int):
    """Layer transfer over raw 2k-tuples, scaled to integers.

    Entry for (x, y): weight(m_{x,y}) * p^(#y - k), times the lcm of the
    entries' denominators.  Returns the integer matrix and that lcm.
    """
    xs = _tuple_space(n_prev, 2 * k)
    ys = _tuple_space(n_next, 2 * k)
    mask_factors = [p ** (len(set(y)) - k) for y in ys]
    law_moments = {}
    rows = []
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
            row.append(wt * mask_factors[j])
        rows.append(row)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows), scale


def _bf_initial_masses(u: UnitVector, k: int) -> tuple[list[int], int]:
    """Input mass of each raw 2k-tuple of starting vertices, as integers over
    a common denominator.

    Tuples visiting any coordinate an odd number of times are dropped
    outright, whatever the signs of u: every even-multiplicity continuation
    forces even visit counts at the start, so such tuples contribute nothing.
    The others carry a product of exact squared coordinates, k in all.
    """
    scaled, common = u.scaled_squares
    masses = []
    for t in _tuple_space(u.dim, 2 * k):
        counts: dict[int, int] = {}
        for el in t:
            counts[el] = counts.get(el, 0) + 1
        if any(c % 2 for c in counts.values()):
            masses.append(0)
            continue
        masses.append(math.prod(scaled[el] ** (c // 2) for el, c in counts.items()))
    return masses, common**k


def brute_force_moment(config: EnsembleConfig, u: UnitVector, k: int) -> Fraction:
    """k-th normalized moment without the k-tuple path collapse.

    A layerwise sum over raw 2k-tuples with entry-law moment weights and
    mask-probability powers, in integers.  Cost ~ 2k (n_{i-1} n_i)^{2k} to
    build the transfer of each distinct width pair (every entry loops over
    the 2k edges), plus (n_{i-1} n_i)^{2k} per layer to contract it.  A cost
    over ``PATHS_BUDGET``, or k over ``DEFAULT_K_CAP``, raises
    ``BudgetExceeded`` before any of it runs.
    """
    _moment_preflight(config, u, k)
    pairs = list(zip(config.widths, config.widths[1:]))
    entries = {pair: (pair[0] * pair[1]) ** (2 * k) for pair in pairs}
    cost = 2 * k * sum(entries.values()) + sum(entries[pair] for pair in pairs)
    if cost > PATHS_BUDGET:
        raise BudgetExceeded(cost, PATHS_BUDGET, what="raw path summation")
    return _bf_paths_moment(config, u, k)


def _bf_paths_moment(config: EnsembleConfig, u: UnitVector, k: int) -> Fraction:
    widths = config.widths
    vec, denom = _bf_initial_masses(u, k)
    for n_prev, n_next in zip(widths, widths[1:]):
        transfer, scale = _bf_transfer(n_prev, n_next, config.entry_law, config.p, k)
        nxt = [0] * len(transfer[0])
        for vx, row in zip(vec, transfer):
            if vx == 0:
                continue
            for yi, r in enumerate(row):
                if r:
                    nxt[yi] += vx * r
        vec = nxt
        denom *= scale
    # pair the path endpoints: only tuples of the form (v1,v1,...,vk,vk) count
    nd = widths[-1]
    index = {y: i for i, y in enumerate(_tuple_space(nd, 2 * k))}
    paired_indices = [
        index[tuple(itertools.chain.from_iterable((v, v) for v in vtuple))]
        for vtuple in itertools.product(range(nd), repeat=k)
    ]
    norm = math.prod(n**k for n in config.widths[1:])
    return Fraction(sum(vec[i] for i in paired_indices), denom * norm)
