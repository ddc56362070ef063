"""Masked random-matrix ensembles and their closed-form quantities.

``EnsembleConfig`` fixes the model: the layer widths (n_0, ..., n_d), the
mask probability p and the entry law.  ``checked_widths`` is its widths
check, which ``relunets.ReluNetConfig`` shares.  ``UnitVector`` is the fixed
starting vector u.  The closed forms are the variance parameter beta
(``compute_beta``), whose ``BetaParams`` also gives the limiting normal law's
CDF, and the raw error budget of the normal approximation
(``error_budget``).

The model: a product of depth-many random matrices, each the composition of a
diagonal Bernoulli(p) mask and an i.i.d. matrix with entries from a symmetric
mean-0 variance-1 law, normalized so the squared norm of the propagated vector
has expectation one at every layer.  Sampling it is ``montecarlo.run_trials``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .distributions import DistributionSpec
from .errors import DimensionMismatch, FloatRangeError

_UNIT_NORM_TOL = 1e-12

if TYPE_CHECKING:
    import numpy as np


def checked_widths(widths) -> tuple[int, ...]:
    """Layer widths (n_0, ..., n_d) as ints, one matrix factor per width
    after n_0; ValueError unless there are two or more and all are positive."""
    widths = tuple(int(n) for n in widths)
    if len(widths) < 2:
        raise ValueError("architecture needs at least widths (n_0, n_1)")
    if any(n < 1 for n in widths):
        raise ValueError(f"widths must be positive, got {widths}")
    return widths


def to_double(value: Fraction, name: str) -> float:
    """The nearest double to an exact rational, or FloatRangeError naming the
    quantity if it is outside double range."""
    try:
        return float(value)
    except OverflowError:
        exponent = math.floor(math.log10(abs(value.numerator)) - math.log10(value.denominator))
        raise FloatRangeError(f"{name} ~ 1e{exponent} is outside double precision") from None


@dataclass(frozen=True)
class EnsembleConfig:
    """Layer widths (n_0, ..., n_d), mask probability and entry law.

    ``p`` is kept as an exact Fraction so the moment engine can stay rational.
    """

    widths: tuple[int, ...]
    p: Fraction
    entry_law: DistributionSpec

    def __post_init__(self):
        object.__setattr__(self, "widths", checked_widths(self.widths))
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p <= 1:
            raise ValueError(f"mask probability must be in (0, 1], got {self.p}")


@dataclass(frozen=True)
class UnitVector:
    """A unit vector with cached norms and, when known, exact squared coords.

    ``values`` holds the coordinates as Python floats, so the closed form and
    the exact moments never load numpy; ``coords`` is the same vector as a
    read-only float64 array, built on first access for the samplers.
    ``squares`` holds the exact squared coordinates the vector stands for,
    which its rounded floats can miss (1/3 for ``uniform(3)``); it is
    populated by the ``basis``/``uniform`` constructors and left None for
    arbitrary float input, whose floats are taken as the exact rationals they
    are.
    """

    values: tuple[float, ...]
    squares: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if getattr(self.values, "ndim", 1) != 1:
            raise ValueError("unit vector must be a nonempty 1-d array")
        try:
            values = tuple(map(float, self.values))
        except TypeError:
            raise ValueError("unit vector must be a nonempty 1-d array") from None
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("unit vector must be a nonempty 1-d array")
        nrm = math.sqrt(math.fsum(c * c for c in values))
        if abs(nrm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"vector norm is {nrm}, expected 1 within {_UNIT_NORM_TOL}")
        if self.squares is not None:
            if len(self.squares) != len(values):
                raise ValueError("squares length does not match coordinates")
            if sum(self.squares) != 1:
                raise ValueError("exact squared coordinates must sum to 1")

    @cached_property
    def coords(self) -> np.ndarray:
        import numpy as np

        coords = np.array(self.values, dtype=np.float64)
        coords.setflags(write=False)
        return coords

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def scaled_squares(self) -> tuple[tuple[int, ...], int]:
        """The exact squared coordinates over one common denominator L, as
        (s_i * L for each coordinate, L).

        They are ``squares`` when known.  Otherwise every float coordinate is
        a dyadic rational, so its square is exact too.
        """
        if self.squares is not None:
            ratios = [(s.numerator, s.denominator) for s in self.squares]
        else:
            ratios = [(a * a, b * b) for a, b in map(float.as_integer_ratio, self.values)]
        common = math.lcm(*(b for _, b in ratios))
        return tuple(a * (common // b) for a, b in ratios), common

    @property
    def l4_norm_4(self) -> Fraction:
        """Fourth power of the l4 norm, sum of coords**4, from the exact squares."""
        scaled, common = self.scaled_squares
        return Fraction(sum(x * x for x in scaled), common * common)

    @classmethod
    def basis(cls, dim: int) -> "UnitVector":
        """The first standard basis vector, e1."""
        values = tuple(1.0 if i == 0 else 0.0 for i in range(dim))
        return cls(values, tuple(map(Fraction, values)))

    @classmethod
    def uniform(cls, dim: int) -> "UnitVector":
        values = (dim**-0.5,) * dim
        squares = (Fraction(1, dim),) * dim
        return cls(values, squares)


@dataclass(frozen=True)
class BetaParams:
    """Variance parameter of the limiting normal law for the log squared norm.

    ``beta = term_width + term_fourth``; each is rounded once from its exact
    value.  The limiting law for the log of the normalized squared norm is
    Normal(-beta/2, beta).
    """

    beta: float
    term_width: float
    term_fourth: float

    @property
    def predicted_mean(self) -> float:
        # 0.0 - x, not -x: beta = 0 gives a mean of 0, not -0
        return 0.0 - 0.5 * self.beta

    def cdf(self, x: float) -> float:
        """CDF of the limiting law Normal(-beta/2, beta) at x; beta must be
        positive."""
        z = (x - self.predicted_mean) * (1.0 / math.sqrt(self.beta))
        return 0.5 * math.erfc(-z / math.sqrt(2.0))


def compute_beta(config: EnsembleConfig, u: UnitVector) -> BetaParams:
    """Closed-form variance parameter for a config and starting vector."""
    widths = config.widths
    if u.dim != widths[0]:
        raise DimensionMismatch(f"u has dim {u.dim}, architecture starts at {widths[0]}")
    p = config.p
    counts = Counter(widths[1:])
    term_width = (3 / p - 1) * sum(Fraction(c, n) for n, c in counts.items())
    mu4 = config.entry_law.moment(4)
    term_fourth = (mu4 - 3) / (p * widths[1]) * u.l4_norm_4
    return BetaParams(
        term_width=to_double(term_width, "term_width"),
        term_fourth=to_double(term_fourth, "term_fourth"),
        beta=to_double(term_width + term_fourth, "beta"),
    )


@dataclass(frozen=True)
class ErrorBudget:
    """Raw magnitudes of the normal-approximation error terms.

    The unknown absolute constants are deliberately not applied; beta-dependent
    terms are +inf when beta is 0.  ``mask_term`` uses the all-zero-mask
    probability (1-p)^{n_i} per layer.
    """

    sum_inv_sq_widths: float
    linear_term: float
    fifth_root_term: float
    sqrt_term: float
    mask_term: float


def error_budget(config: EnsembleConfig, u: UnitVector) -> ErrorBudget:
    beta = compute_beta(config, u).beta
    s = sum(1.0 / n**2 for n in config.widths[1:])
    q = 1.0 - float(config.p)
    mask_term = sum(q**n for n in config.widths[1:])
    if beta <= 0.0:
        linear = fifth = root = math.inf
    else:
        linear = s / beta
        try:
            fifth = (s / beta**2) ** 0.2
        except OverflowError:
            raise FloatRangeError(
                f"ks_fifth_root_term needs beta**2 with beta = {beta:.6g}, "
                "which is outside double precision"
            ) from None
        root = math.sqrt(s / math.sqrt(beta))
    return ErrorBudget(
        sum_inv_sq_widths=s,
        linear_term=linear,
        fifth_root_term=fifth,
        sqrt_term=root,
        mask_term=mask_term,
    )
