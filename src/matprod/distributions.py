"""Symmetric mean-0 variance-1 entry laws with exact moment accessors.

Every law here satisfies the model conditions: mean 0, variance 1, symmetry
about 0 (all odd moments vanish) and finite moments of every order.  Moments
are returned as exact ``Fraction`` values so that downstream combinatorics can
run in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import AsymmetryError, NormalizationError

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
UNIFORM_SYMMETRIC = "uniform"
DISCRETE_SYMMETRIC = "discrete"

_KNOWN_KINDS = (GAUSSIAN, RADEMACHER, UNIFORM_SYMMETRIC, DISCRETE_SYMMETRIC)

# Uniform on [-sqrt(3), sqrt(3)] has variance 1.
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)

if TYPE_CHECKING:
    import numpy as np


def _shown(q: Fraction) -> str:
    """q as a refusal prints it: exactly while its numerator and denominator
    are below 10**20, else after a ``~`` to 6 significant digits."""
    n, d = q.numerator, q.denominator
    if max(abs(n), d) < 10**20:
        return str(q)
    # q is m * 10**e to about 20 digits; Decimal takes any exponent, where
    # float(q) overflows, but converts a long integer in quadratic time
    e = (abs(n).bit_length() - d.bit_length()) * 3 // 10 - 20
    m = n // (d * 10**e) if e >= 0 else n * 10**-e // d
    ctx = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return f"~{ctx.create_decimal(m).scaleb(e, ctx).normalize(ctx):g}"


@dataclass(frozen=True)
class DistributionSpec:
    """A symmetric entry law with queryable exact moments.

    ``values``/``probabilities`` are only populated for the discrete kind.
    Instances are immutable and hashable, which lets the path-sum engine use
    them as cache keys.
    """

    kind: str
    values: tuple[Fraction, ...] = field(default=())
    probabilities: tuple[Fraction, ...] = field(default=())

    def __post_init__(self):
        """Check the model conditions: NormalizationError for the probabilities
        or the variance (symmetry makes the mean 0), AsymmetryError for the support."""
        if self.kind not in _KNOWN_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == DISCRETE_SYMMETRIC:
            if len(self.values) != len(self.probabilities) or not self.values:
                raise ValueError("discrete law needs matching values/probabilities")
            if any(p <= 0 for p in self.probabilities):
                raise NormalizationError("probabilities must be positive")
            if (total := sum(self.probabilities)) != 1:
                raise NormalizationError(f"probabilities sum to {_shown(total)}, expected 1")
            if len(set(self.values)) != len(self.values):
                raise AsymmetryError("discrete support has repeated values")
            weight = dict(zip(self.values, self.probabilities))
            for v, p in weight.items():
                if weight.get(-v) != p:
                    raise AsymmetryError(f"value {_shown(v)} (probability {_shown(p)}) "
                                         f"has no mirror at {_shown(-v)}")
        if (variance := self.moment(2)) != 1:
            raise NormalizationError(f"variance is {_shown(variance)}, expected 1")

    @property
    def atomless(self) -> bool:
        return self.kind in (GAUSSIAN, UNIFORM_SYMMETRIC)

    def moment(self, k: int) -> Fraction:
        """Exact k-th moment.  Odd moments are identically zero."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if k == 0:
            return Fraction(1)
        if k % 2 == 1:
            return Fraction(0)
        if self.kind == GAUSSIAN:
            # (k-1)!! for even k
            return Fraction(math.prod(range(1, k, 2)))
        if self.kind == RADEMACHER:
            return Fraction(1)
        if self.kind == UNIFORM_SYMMETRIC:
            # E[X^k] on [-a, a] is a^k/(k+1) with a^2 = 3
            return Fraction(3 ** (k // 2), k + 1)
        return sum(
            (p * v**k for v, p in zip(self.values, self.probabilities)),
            Fraction(0),
        )

    def support_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(value, probability) pairs for atom-bearing laws."""
        if self.kind == RADEMACHER:
            return ((Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2)))
        if self.kind == DISCRETE_SYMMETRIC:
            return tuple(zip(self.values, self.probabilities))
        raise ValueError(f"{self.kind} law has no finite support")

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an i.i.d. array of entries.

        The draw order for a given shape is fixed per kind, so a seeded
        generator fully determines the output.
        """
        import numpy as np

        if self.kind == GAUSSIAN:
            return rng.standard_normal(shape)
        if self.kind == RADEMACHER:
            return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        if self.kind == UNIFORM_SYMMETRIC:
            return (rng.random(shape) * 2.0 - 1.0) * _UNIFORM_HALF_WIDTH
        support = np.array([float(v) for v in self.values])
        weights = np.array([float(p) for p in self.probabilities])
        idx = rng.choice(len(support), size=shape, p=weights)
        return support[idx]


def standard_gaussian() -> DistributionSpec:
    return DistributionSpec(GAUSSIAN)


def rademacher() -> DistributionSpec:
    """±1 with probability 1/2 each."""
    return DistributionSpec(RADEMACHER)


def uniform_symmetric() -> DistributionSpec:
    """Uniform on [-sqrt(3), sqrt(3)]; fourth moment 9/5."""
    return DistributionSpec(UNIFORM_SYMMETRIC)


def discrete_symmetric(pairs) -> DistributionSpec:
    """Discrete law from (value, probability) pairs, e.g. ``[(1, 0.5), (-1, 0.5)]``.

    Values and probabilities are coerced to exact fractions (use strings or
    Fractions for non-dyadic data).
    """
    values = tuple(Fraction(v) for v, _ in pairs)
    probs = tuple(Fraction(p) for _, p in pairs)
    return DistributionSpec(DISCRETE_SYMMETRIC, values=values, probabilities=probs)


def law_from_name(name: str) -> DistributionSpec:
    """Resolve a CLI-style law name."""
    table = {
        GAUSSIAN: standard_gaussian,
        RADEMACHER: rademacher,
        UNIFORM_SYMMETRIC: uniform_symmetric,
    }
    if name not in table:
        raise ValueError(f"unknown distribution name {name!r}")
    return table[name]()
