import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    BudgetExceeded,
    EnsembleConfig,
    FloatRangeError,
    UnitVector,
    brute_force_moment,
    compute_beta,
    discrete_symmetric,
    exact_moment,
    theory_moment,
)
from matprod import pathsum
from matprod.pathsum import (
    BUILD_STEP_UNITS,
    DEFAULT_BUDGET,
    PATHS_BUDGET,
    _build_steps,
    _initial_masses,
    _shape_transfer,
    integer_partitions,
)
from oracles import (
    assignment_moment,
    layer_factor,
    moebius_masses,
    multinomial,
    partition_meet,
    set_partition_transfer,
    set_partitions,
    unit_from_squares,
)


def gaussian_moment(widths, p, k):
    """Closed form of E[Z^k] for Gaussian entries, independent of u.

    ||D_i W_i v||^2 is chi-square with K ~ Binomial(n_i, p) degrees of
    freedom, independently over layers, and E[chi2_K^k] = K(K+2)...(K+2k-2).
    """
    p = F(p)

    def layer(n):
        return sum(
            math.comb(n, K) * p**K * (1 - p) ** (n - K)
            * math.prod(K + 2 * j for j in range(k)) / (p * n) ** k
            for K in range(n + 1)
        )

    counts = Counter(widths[1:])
    return math.prod((layer(n) ** c for n, c in counts.items()), start=F(1))


def squared_norm(u):
    """sum of u's squared coordinates, each float read as the rational it is"""
    return sum(F(v) ** 2 for v in u.values)


class TestCombinatorics:
    def test_multinomial(self):
        assert multinomial([2, 1, 1]) == 12
        assert multinomial([0, 0]) == 1
        assert multinomial([4]) == 1

    def test_set_partition_counts_are_bell_numbers(self):
        for k, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(set_partitions(k)) == bell

    def test_meet(self):
        sigma = ((0, 1), (2, 3))
        tau = ((0, 1, 2), (3,))
        assert partition_meet(sigma, tau) == ((0, 1), (2,), (3,))


@pytest.fixture
def discrete():
    """A discrete law with an atom at 0: mu4 = 4."""
    return discrete_symmetric([(F(2), F(1, 8)), (F(-2), F(1, 8)), (F(0), F(3, 4))])


class TestShapeTransferOracle:
    """The shape-level builder against the Bell(k) * p(k) set-partition
    enumeration it replaced, which now lives in the tests' oracles."""

    @pytest.mark.parametrize("p", [F(1), F(1, 2), F(1, 3)], ids=["p1", "p1/2", "p1/3"])
    @pytest.mark.parametrize("law_name", ["gauss", "rad", "unif", "discrete"])
    def test_transfer_equals_set_partition_enumeration(self, law_name, p, request):
        law = request.getfixturevalue(law_name)
        for k in range(1, 8):
            assert _shape_transfer(law, p, k) == set_partition_transfer(law, p, k), k

    def test_masses_equal_moebius_inversion(self):
        rng = np.random.default_rng(5)
        for k in range(1, 11):
            power_sums = [None] + [int(v) for v in rng.integers(-10**6, 10**6, k)]
            shapes = integer_partitions(k)
            assert _initial_masses(shapes, power_sums) == moebius_masses(shapes, power_sums), k

    def test_build_steps_counted_from_sizes(self):
        # state (1) opens 1 block, (2) opens 2, (1, 1) opens 1 * 2
        assert _build_steps(1) == 1
        assert _build_steps(2) == 5
        assert [_build_steps(k) for k in (8, 12)] == [1489, 37233]


class TestLayerFactor:
    """Hand values of the test-side tuple-level factor."""

    @pytest.mark.parametrize(
        "prev, nxt, law_name, p, expected",
        [
            pytest.param((0, 1, 2), (2, 0, 1), "gauss", F(1, 2), 1, id="distinct-tuple"),
            pytest.param((0, 1), (1, 1), "gauss", F(1, 2), 6, id="distinct-parents-gauss"),
            pytest.param((0, 1), (1, 1), "rad", F(1, 2), 6, id="distinct-parents-rad"),
            pytest.param((0, 1), (1, 1), "gauss", F(1), 3, id="distinct-parents-gauss-p1"),
            # mu4 / p: 3 * 2 for Gaussian entries, 1 * 2 for Rademacher
            pytest.param((1, 1), (0, 0), "gauss", F(1, 2), 6, id="coincident-parents-gauss"),
            pytest.param((1, 1), (0, 0), "rad", F(1, 2), 2, id="coincident-parents-rad"),
        ],
    )
    def test_hand_values(self, prev, nxt, law_name, p, expected, request):
        assert layer_factor(prev, nxt, request.getfixturevalue(law_name), p) == expected

    def test_permutation_invariance(self, gauss):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            x = tuple(int(v) for v in rng.integers(0, 3, k))
            y = tuple(int(v) for v in rng.integers(0, 3, k))
            perm = rng.permutation(k)
            xs = tuple(x[i] for i in perm)
            ys = tuple(y[i] for i in perm)
            assert layer_factor(x, y, gauss, F(1, 2)) == layer_factor(xs, ys, gauss, F(1, 2))


class TestExactMoment:
    def test_first_moment_is_one(self, gauss, rad):
        for law, widths, p in [
            (gauss, (2, 3, 2), 1),
            (gauss, (3, 2), F(1, 2)),
            (rad, (2, 2, 2), F(1, 2)),
        ]:
            cfg = EnsembleConfig(widths, p, law)
            for u in (UnitVector.basis(widths[0]), UnitVector.uniform(widths[0])):
                assert exact_moment(cfg, u, 1) == 1

    def test_chi_square_values(self, gauss):
        assert exact_moment(EnsembleConfig((2, 2), 1, gauss), UnitVector.basis(2), 2) == 2
        assert exact_moment(EnsembleConfig((2, 2, 2), 1, gauss), UnitVector.basis(2), 2) == 4

    def test_chi_square_closed_form_any_width(self, gauss):
        # p=1 Gaussian second moment is exactly prod (n_i + 2)/n_i
        for widths in [(4, 5, 3, 7), (2, 9), (6, 6, 6, 6, 6)]:
            cfg = EnsembleConfig(widths, 1, gauss)
            expected = math.prod(F(n + 2, n) for n in widths[1:])
            assert exact_moment(cfg, UnitVector.uniform(widths[0]), 2) == expected
            assert exact_moment(cfg, UnitVector.basis(widths[0]), 2) == expected

    def test_rademacher_uniform_pair(self, rad):
        cfg = EnsembleConfig((2, 2), 1, rad)
        assert exact_moment(cfg, UnitVector.uniform(2), 2) == F(3, 2)

    def test_deterministic_rademacher_all_orders(self, rad):
        cfg = EnsembleConfig((2, 2), 1, rad)
        for k in range(1, 5):
            assert exact_moment(cfg, UnitVector.basis(2), k) == 1

    def test_matches_brute_force_on_random_grid(self, gauss, rad):
        # the raw-path oracle never collapses tuples to shapes
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            # k = 3 on a 3x3 layer costs the oracle seconds; keep it narrow
            widths = tuple(int(v) for v in rng.integers(1, 3 if k == 3 else 4, d + 1))
            law = gauss if rng.random() < 0.5 else rad
            p = 1 if rng.random() < 0.5 else F(1, 2)
            n0 = widths[0]
            u = [
                UnitVector.basis(n0),
                UnitVector.uniform(n0),
                unit_from_squares([F(2 * i + 1, n0 * n0) for i in range(n0)]),
            ][int(rng.integers(0, 3))]
            cfg = EnsembleConfig(widths, p, law)
            exact = exact_moment(cfg, u, k)
            brute = brute_force_moment(cfg, u, k)
            assert isinstance(exact, F) and isinstance(brute, F)
            assert exact == brute, (widths, law, p, u.squares, k)

    def test_gaussian_closed_form(self, gauss):
        for widths in [(8,) * 6, (8, 3, 5, 8, 2)]:
            cfg = EnsembleConfig(widths, F(1, 2), gauss)
            for k in range(1, 7):
                got = exact_moment(cfg, UnitVector.basis(widths[0]), k)
                assert got == gaussian_moment(widths, F(1, 2), k), (widths, k)

    def test_state_count_is_partition_number(self, gauss):
        for k, count in enumerate([1, 2, 3, 5, 7, 11, 15, 22], start=1):
            assert len(integer_partitions(k)) == count
            assert all(sum(shape) == k for shape in integer_partitions(k))
        for k in range(1, 6):
            shapes, orbit_sizes, transfer, _ = _shape_transfer(gauss, F(1, 2), k)
            assert len(shapes) == len(transfer) == len(integer_partitions(k))
            assert sum(orbit_sizes) == len(set_partitions(k))

    # A Gaussian law is rotation invariant, so E[Z^k] for any u is the closed
    # form times ||u||^(2k), exactly; a float u's squared norm is not exactly 1.

    def test_float_coordinates_wide_and_deep(self, gauss):
        coords = np.random.default_rng(20181214).standard_normal(1000)
        u = UnitVector(coords / np.sqrt(coords @ coords))
        widths = (1000,) * 121
        value = exact_moment(EnsembleConfig(widths, F(1, 2), gauss), u, 4)
        assert value == gaussian_moment(widths, F(1, 2), 4) * squared_norm(u) ** 4

    def test_float_coordinates_beyond_double_range(self, gauss):
        # E[Z^6] here is near 1e420, outside double precision
        cfg = EnsembleConfig((2,) * 101, F(1, 2), gauss)
        u = UnitVector([0.6, 0.8])
        value = exact_moment(cfg, u, 6)
        assert isinstance(value, F) and value > 10**400
        assert value == gaussian_moment(cfg.widths, F(1, 2), 6) * squared_norm(u) ** 6

    def test_float_coordinates_are_exact(self, gauss):
        cfg = EnsembleConfig((2, 2), 1, gauss)
        u = UnitVector([0.6, 0.8])
        value = exact_moment(cfg, u, 2)
        assert isinstance(value, F)
        # 0.6 and 0.8 are not dyadic, so the squared norm is not exactly 1
        assert value == 2 * squared_norm(u) ** 2 != 2

    def test_paper_scale_gaussian(self, gauss):
        widths = (1024,) * 1025
        value = exact_moment(EnsembleConfig(widths, F(1, 2), gauss), UnitVector.basis(1024), 6)
        assert value == gaussian_moment(widths, F(1, 2), 6)

    def test_budget_honored(self, gauss, monkeypatch):
        # A cold build at k = 2 opens 5 blocks ((1): 1, (2): 2, (1, 1): 2),
        # BUILD_STEP_UNITS = 1000 each.  Then p(2)^2 = 4 products per layer,
        # each counted in 64-bit words of the state.  The state starts at
        # 2 * bit_length(3) = 4 bits (u's squares are over 3) and gains
        # bit_length(1) + 2 * bit_length(3) = 5 bits per layer (the Gaussian
        # p = 1 transfer is integral), so it fits one word at layers 1-11 and
        # takes two at layers 12-20: 5000 + 4 * (11 + 2 * 9) = 5116.
        assert BUILD_STEP_UNITS == 1000
        cfg = EnsembleConfig((3,) * 21, 1, gauss)
        monkeypatch.setattr(pathsum, "DEFAULT_BUDGET", 5116)
        assert exact_moment(cfg, UnitVector.uniform(3), 2) == F(5, 3) ** 20
        monkeypatch.setattr(pathsum, "DEFAULT_BUDGET", 5115)
        with pytest.raises(BudgetExceeded) as err:
            exact_moment(cfg, UnitVector.uniform(3), 2)
        assert (err.value.estimate, err.value.budget) == (5116, 5115)

    def test_k_cap(self, gauss):
        cfg = EnsembleConfig((3, 3), 1, gauss)
        with pytest.raises(BudgetExceeded, match=r"^moment order k=13 exceeds the cap 12$"):
            exact_moment(cfg, UnitVector.uniform(3), 13)

    @pytest.mark.parametrize("k", [9, 10])
    @pytest.mark.parametrize("law_name", ["rad", "discrete"])
    def test_high_orders_match_assignment_enumeration(self, law_name, k, request):
        law = request.getfixturevalue(law_name)
        cfg = EnsembleConfig((2, 2, 2), F(1, 2), law)
        u = UnitVector.uniform(2)
        assert exact_moment(cfg, u, k) == assignment_moment(cfg, u, k)

    def test_gaussian_closed_form_at_the_cap(self, gauss):
        widths = (2, 3, 2)
        value = exact_moment(EnsembleConfig(widths, F(1, 2), gauss), UnitVector.uniform(2), 12)
        assert value == gaussian_moment(widths, F(1, 2), 12)

    def test_asymptotic_consistency_with_beta(self, gauss):
        # log of the exact second moment approaches beta at rate d/n^2;
        # constant 8 calibrated empirically
        d = 4
        for n in (8, 16, 32):
            widths = (n,) * (d + 1)
            cfg = EnsembleConfig(widths, 1, gauss)
            u = UnitVector.uniform(n)
            beta = compute_beta(cfg, u).beta
            exact = float(exact_moment(cfg, u, 2))
            assert abs(math.log(exact) - beta) <= 8 * d / n**2


class TestBruteForce:
    def test_matches_exact_on_named_examples(self, gauss, rad):
        cfg = EnsembleConfig((2, 2), 1, rad)
        u = UnitVector.uniform(2)
        assert brute_force_moment(cfg, u, 2) == F(3, 2)
        cfg2 = EnsembleConfig((2, 2, 2), 1, gauss)
        assert brute_force_moment(cfg2, UnitVector.basis(2), 2) == 4

    def test_first_moment_is_one(self, gauss):
        cfg = EnsembleConfig((3, 2, 2), F(1, 2), gauss)
        assert brute_force_moment(cfg, UnitVector.uniform(3), 1) == 1

    def test_assignment_enumeration_agrees(self, rad):
        law4 = discrete_symmetric(
            [(F(2), F(1, 10)), (F(-2), F(1, 10)), (F(1, 2), F(2, 5)), (F(-1, 2), F(2, 5))]
        )
        for law, widths, p in [
            (rad, (2, 2), 1),
            (rad, (2, 2, 2), F(1, 2)),
            (law4, (2, 2), 1),
        ]:
            cfg = EnsembleConfig(widths, p, law)
            for u in (UnitVector.basis(widths[0]), UnitVector.uniform(widths[0])):
                paths = brute_force_moment(cfg, u, 2)
                assignments = assignment_moment(cfg, u, 2)
                exact = exact_moment(cfg, u, 2)
                assert paths == assignments == exact

    def test_budget_honored(self, gauss, monkeypatch):
        # (3, 3) at k = 2: one 9^4-entry transfer, built at 2k per entry and
        # contracted once, so 5 * 9^4 = 32805 units
        cfg = EnsembleConfig((3, 3), 1, gauss)
        monkeypatch.setattr(pathsum, "PATHS_BUDGET", 32805)
        assert brute_force_moment(cfg, UnitVector.uniform(3), 2) == exact_moment(
            cfg, UnitVector.uniform(3), 2
        )
        monkeypatch.setattr(pathsum, "PATHS_BUDGET", 32804)
        with pytest.raises(BudgetExceeded) as err:
            brute_force_moment(cfg, UnitVector.uniform(3), 2)
        assert (err.value.estimate, err.value.budget) == (32805, 32804)

    def test_budget_counts_each_transfer_build(self, gauss):
        # one 64^4-entry transfer, built once at 2k per entry and contracted
        # at each of 5 layers: over the default budget, refused before any work
        cfg = EnsembleConfig((8,) * 6, F(1, 2), gauss)
        with pytest.raises(BudgetExceeded) as err:
            brute_force_moment(cfg, UnitVector.basis(8), 2)
        assert err.value.estimate == (4 + 5) * 64**4

    def test_paths_budget_is_its_own(self, gauss):
        # one 64^4-entry transfer (2k per entry to build, one layer to contract):
        # about 2 minutes of raw-path work, refused before any of it
        cfg = EnsembleConfig((8, 8), F(1, 2), gauss)
        u = UnitVector.basis(8)
        with pytest.raises(BudgetExceeded) as err:
            brute_force_moment(cfg, u, 2)
        assert err.value.estimate == 5 * 64**4
        assert err.value.budget == PATHS_BUDGET < DEFAULT_BUDGET
        assert exact_moment(cfg, u, 2) == F(13, 8)  # (8 * 3/2 + 56 * 1/4) / 16

    @pytest.mark.parametrize(
        "widths, law_name, p, u_name, k",
        [
            ((3, 3, 3, 3), "gauss", F(1, 2), "uniform", 2),  # largest criterion 1 case
            ((3, 2, 3, 2), "rad", F(1, 2), "uniform", 1),  # benchmark inputs
            ((3, 2, 3, 2), "rad", F(1, 2), "uniform", 2),
            ((8,) * 6, "gauss", F(1, 2), "e1", 1),
        ],
    )
    def test_paths_budget_admits_oracle_cases(self, widths, law_name, p, u_name, k, request):
        cfg = EnsembleConfig(widths, p, request.getfixturevalue(law_name))
        u = UnitVector.basis(widths[0]) if u_name == "e1" else UnitVector.uniform(widths[0])
        assert brute_force_moment(cfg, u, k) == exact_moment(cfg, u, k)

    def test_float_coordinates_match_exact(self, rad):
        # a signed float u: odd-visit tuples drop out whatever the signs
        for widths, p in [((2, 3), 1), ((2, 2, 2), F(1, 2))]:
            cfg = EnsembleConfig(widths, p, rad)
            u = UnitVector([0.6, -0.8])
            value = brute_force_moment(cfg, u, 2)
            assert isinstance(value, F)
            assert value == exact_moment(cfg, u, 2)


class TestPathEnsemble:
    """Sequences of vertex tuples, one per layer, weighted by layer factors."""

    def test_full_enumeration_reproduces_exact_moment(self, rad):
        # summing squared-input mass times the product of the layer factors
        # over every tuple sequence is the raw definition of the moment
        widths, p, k = (2, 3, 2), F(1, 2), 2
        cfg = EnsembleConfig(widths, p, rad)
        u = UnitVector.uniform(2)
        total = F(0)
        for seq in itertools.product(
            *(itertools.product(range(n), repeat=k) for n in widths)
        ):
            weight = math.prod(
                (layer_factor(a, b, rad, p) for a, b in zip(seq, seq[1:])), start=F(1)
            )
            total += math.prod(u.squares[a] for a in seq[0]) * weight
        total /= math.prod(n**k for n in widths[1:])
        assert total == exact_moment(cfg, u, k)


class TestTheoryMoment:
    def test_k_one_is_one(self):
        assert theory_moment(0.37, 1) == 1.0

    def test_direct_value(self):
        assert theory_moment(0.5, 2) == pytest.approx(math.exp(0.5))

    def test_beta_zero(self):
        assert theory_moment(0.0, 5) == 1.0

    def test_overflow_is_an_error(self):
        with pytest.raises(FloatRangeError):
            theory_moment(250.0, 6)
