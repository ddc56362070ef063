import inspect
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    BudgetExceeded,
    EdgeMultiplicity,
    FloatRangeError,
    UnitVector,
    VertexTuple,
    brute_force_moment,
    compute_beta,
    discrete_symmetric,
    edge_weight,
    exact_moment,
    layer_factor,
    make_config,
    multiplicity_count,
    theory_moment,
    verify_path_count,
)
from matprod.pathsum import (
    DEFAULT_BUDGET,
    PATHS_BUDGET,
    _shape_transfer,
    falling_factorial,
    integer_partitions,
    multinomial,
    partition_meet,
    partition_of,
    set_partitions,
)


def enumerate_left_tuples(m: EdgeMultiplicity, ell: int) -> int:
    """Independent oracle: count left tuples by direct enumeration."""
    right = m.right_multiset()
    count = 0
    for cand in itertools.product(range(m.n_left), repeat=ell):
        if EdgeMultiplicity.from_tuples(cand, right, m.n_left, m.n_right) == m:
            count += 1
    return count


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

    per_width = {n: layer(n) for n in set(widths[1:])}
    return math.prod((per_width[n] for n in widths[1:]), start=F(1))


class TestCombinatorics:
    def test_multinomial(self):
        assert multinomial([2, 1, 1]) == 12
        assert multinomial([0, 0]) == 1
        assert multinomial([4]) == 1

    def test_falling_factorial(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(3, 5) == 0
        assert falling_factorial(7, 0) == 1

    def test_set_partition_counts_are_bell_numbers(self):
        for k, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            assert len(set_partitions(k)) == bell

    def test_meet(self):
        sigma = ((0, 1), (2, 3))
        tau = ((0, 1, 2), (3,))
        assert partition_meet(sigma, tau) == ((0, 1), (2,), (3,))

    def test_partition_of(self):
        assert partition_of((4, 7, 4)) == ((0, 2), (1,))


class TestMultiplicityCount:
    def test_all_single_edges(self):
        m = EdgeMultiplicity(((1, 0), (0, 1)))
        assert multiplicity_count(m, 2) == 1

    def test_column_with_two_left_endpoints(self):
        m = EdgeMultiplicity(((1,), (1,)))
        assert multiplicity_count(m, 2) == 2

    def test_single_double_edge_matches_enumeration(self):
        m = EdgeMultiplicity(((2, 0), (0, 0)))
        assert multiplicity_count(m, 2) == 1
        assert enumerate_left_tuples(m, 2) == 1

    def test_wrong_total_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_count(EdgeMultiplicity(((1,),)), 2)

    def test_random_matrices_match_enumeration(self):
        # multiplicities generated by drawing random endpoint tuples
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            ell = int(rng.integers(1, 5))
            left = tuple(int(v) for v in rng.integers(0, n, ell))
            right = tuple(int(v) for v in rng.integers(0, n2, ell))
            m = EdgeMultiplicity.from_tuples(left, right, n, n2)
            assert multiplicity_count(m, ell) == enumerate_left_tuples(m, ell)


class TestEdgeWeight:
    def test_all_pairs_gaussian(self, gauss):
        m = EdgeMultiplicity(((2, 0), (0, 2)))
        assert edge_weight(m, gauss) == 1

    def test_any_odd_entry_vanishes(self, gauss):
        m = EdgeMultiplicity(((2, 1), (0, 2)))
        assert edge_weight(m, gauss) == 0

    def test_quadruple_edge_gaussian(self, gauss):
        m = EdgeMultiplicity(((4, 0), (2, 2)))
        assert edge_weight(m, gauss) == 3


class TestVertexTuple:
    def test_unique_count(self):
        assert VertexTuple((3, 3, 1)).unique_count == 2


class TestLayerFactor:
    def test_distinct_tuple_gives_one(self, gauss):
        v0 = VertexTuple((0, 1, 2))
        v1 = VertexTuple((2, 0, 1))
        assert layer_factor(v0, v1, gauss, F(1, 2)) == 1

    def test_pair_with_distinct_parents(self, gauss, rad):
        v0 = VertexTuple((0, 1))
        v1 = VertexTuple((1, 1))
        assert layer_factor(v0, v1, gauss, F(1, 2)) == 6
        assert layer_factor(v0, v1, rad, F(1, 2)) == 6
        assert layer_factor(v0, v1, gauss, F(1)) == 3

    def test_pair_with_coincident_parents(self, gauss, rad):
        v0 = VertexTuple((1, 1))
        v1 = VertexTuple((0, 0))
        assert layer_factor(v0, v1, gauss, F(1, 2)) == 6  # mu4/p = 3*2
        assert layer_factor(v0, v1, rad, F(1, 2)) == 2  # mu4/p = 1*2

    def test_permutation_invariance(self, gauss):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            x = tuple(int(v) for v in rng.integers(0, 3, k))
            y = tuple(int(v) for v in rng.integers(0, 3, k))
            perm = rng.permutation(k)
            xs = tuple(x[i] for i in perm)
            ys = tuple(y[i] for i in perm)
            assert layer_factor(
                VertexTuple(x), VertexTuple(y), gauss, F(1, 2)
            ) == layer_factor(VertexTuple(xs), VertexTuple(ys), gauss, F(1, 2))


class TestExactMoment:
    def test_first_moment_is_one(self, gauss, rad):
        for law, widths, p in [
            (gauss, (2, 3, 2), 1),
            (gauss, (3, 2), F(1, 2)),
            (rad, (2, 2, 2), F(1, 2)),
        ]:
            cfg = make_config(widths, p, law)
            for u in (UnitVector.basis(widths[0]), UnitVector.uniform(widths[0])):
                assert exact_moment(cfg, u, 1) == 1

    def test_chi_square_values(self, gauss):
        assert exact_moment(make_config((2, 2), 1, gauss), UnitVector.basis(2), 2) == 2
        assert exact_moment(make_config((2, 2, 2), 1, gauss), UnitVector.basis(2), 2) == 4

    def test_chi_square_closed_form_any_width(self, gauss):
        # p=1 Gaussian second moment is exactly prod (n_i + 2)/n_i
        for widths in [(4, 5, 3, 7), (2, 9), (6, 6, 6, 6, 6)]:
            cfg = make_config(widths, 1, gauss)
            expected = math.prod(F(n + 2, n) for n in widths[1:])
            assert exact_moment(cfg, UnitVector.uniform(widths[0]), 2) == expected
            assert exact_moment(cfg, UnitVector.basis(widths[0]), 2) == expected

    def test_rademacher_uniform_pair(self, rad):
        cfg = make_config((2, 2), 1, rad)
        assert exact_moment(cfg, UnitVector.uniform(2), 2) == F(3, 2)

    def test_deterministic_rademacher_all_orders(self, rad):
        cfg = make_config((2, 2), 1, rad)
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
                UnitVector.from_squares([F(2 * i + 1, n0 * n0) for i in range(n0)]),
            ][int(rng.integers(0, 3))]
            cfg = make_config(widths, p, law)
            exact = exact_moment(cfg, u, k)
            brute = brute_force_moment(cfg, u, k)
            assert isinstance(exact, F) and isinstance(brute, F)
            assert exact == brute, (widths, law.label, p, u.squares, k)

    def test_gaussian_closed_form(self, gauss):
        for widths in [(8,) * 6, (8, 3, 5, 8, 2)]:
            cfg = make_config(widths, F(1, 2), gauss)
            for k in range(1, 7):
                got = exact_moment(cfg, UnitVector.basis(widths[0]), k)
                assert got == gaussian_moment(widths, F(1, 2), k), (widths, k)

    def test_state_count_is_partition_number(self, gauss):
        for k, count in enumerate([1, 2, 3, 5, 7, 11, 15, 22], start=1):
            assert len(integer_partitions(k)) == count
            assert all(sum(shape) == k for shape in integer_partitions(k))
        for k in range(1, 6):
            shapes, orbit_sizes, transfer = _shape_transfer(gauss, F(1, 2), k)
            assert len(shapes) == len(transfer) == len(integer_partitions(k))
            assert sum(orbit_sizes) == len(set_partitions(k))

    def test_float_route_wide_and_deep(self, gauss):
        # 120 layers of width 1000: the unnormalised sum would pass 1e1400
        coords = np.random.default_rng(20181214).standard_normal(1000)
        u = UnitVector.from_coords(coords / np.sqrt(coords @ coords))
        widths = (1000,) * 121
        value = exact_moment(make_config(widths, F(1, 2), gauss), u, 4)
        assert isinstance(value, float)
        assert value == pytest.approx(float(gaussian_moment(widths, F(1, 2), 4)), rel=1e-9)

    def test_float_route_overflow_is_an_error(self, gauss):
        # E[Z^6] here is near 1e420, outside double precision
        cfg = make_config((2,) * 101, F(1, 2), gauss)
        with pytest.raises(FloatRangeError):
            exact_moment(cfg, UnitVector.from_coords([0.6, 0.8]), 6)
        assert exact_moment(cfg, UnitVector.basis(2), 6) > 10**400

    def test_float_coordinates_fall_back_to_float(self, gauss):
        cfg = make_config((2, 2), 1, gauss)
        u = UnitVector.from_coords([0.6, 0.8])
        value = exact_moment(cfg, u, 2)
        assert isinstance(value, float)
        # p=1 Gaussian is u-independent: still the chi-square value
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_budget_honored(self, gauss):
        # Bell(2) * p(2) class factors plus depth * p(2)^2 products
        cfg = make_config((3, 3, 3), 1, gauss)
        assert exact_moment(cfg, UnitVector.uniform(3), 2, budget=12) == F(25, 9)
        with pytest.raises(BudgetExceeded) as err:
            exact_moment(cfg, UnitVector.uniform(3), 2, budget=11)
        assert err.value.estimate == 12

    def test_k_cap(self, gauss):
        cfg = make_config((3, 3), 1, gauss)
        with pytest.raises(BudgetExceeded, match=r"^moment order k=9 exceeds the cap 8$"):
            exact_moment(cfg, UnitVector.uniform(3), 9)

    def test_asymptotic_consistency_with_beta(self, gauss):
        # log of the exact second moment approaches beta at rate d/n^2;
        # constant 8 calibrated empirically
        d = 4
        for n in (8, 16, 32):
            widths = (n,) * (d + 1)
            cfg = make_config(widths, 1, gauss)
            u = UnitVector.uniform(n)
            beta = compute_beta(cfg, u).beta
            exact = float(exact_moment(cfg, u, 2))
            assert abs(math.log(exact) - beta) <= 8 * d / n**2


class TestBruteForce:
    def test_matches_exact_on_named_examples(self, gauss, rad):
        cfg = make_config((2, 2), 1, rad)
        u = UnitVector.uniform(2)
        assert brute_force_moment(cfg, u, 2) == F(3, 2)
        cfg2 = make_config((2, 2, 2), 1, gauss)
        assert brute_force_moment(cfg2, UnitVector.basis(2), 2) == 4

    def test_first_moment_is_one(self, gauss):
        cfg = make_config((3, 2, 2), F(1, 2), gauss)
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
            cfg = make_config(widths, p, law)
            for u in (UnitVector.basis(widths[0]), UnitVector.uniform(widths[0])):
                paths = brute_force_moment(cfg, u, 2)
                assignments = brute_force_moment(cfg, u, 2, method="assignments")
                exact = exact_moment(cfg, u, 2)
                assert paths == assignments == exact

    def test_budget_honored(self, gauss):
        cfg = make_config((8, 8, 8, 8), 1, gauss)
        with pytest.raises(BudgetExceeded):
            brute_force_moment(cfg, UnitVector.uniform(8), 2, budget=1000)

    def test_budget_counts_each_transfer_build(self, gauss):
        # one 64^4-entry transfer, built once at 2k per entry and contracted
        # at each of 5 layers: over the default budget, refused before any work
        cfg = make_config((8,) * 6, F(1, 2), gauss)
        with pytest.raises(BudgetExceeded) as err:
            brute_force_moment(cfg, UnitVector.basis(8), 2)
        assert err.value.estimate == (4 + 5) * 64**4

    def test_paths_budget_is_its_own(self, gauss):
        # one 64^4-entry transfer (2k per entry to build, one layer to contract):
        # about 2 minutes of raw-path work, refused before any of it
        cfg = make_config((8, 8), F(1, 2), gauss)
        u = UnitVector.basis(8)
        with pytest.raises(BudgetExceeded) as err:
            brute_force_moment(cfg, u, 2)
        assert err.value.estimate == 5 * 64**4
        assert err.value.budget == PATHS_BUDGET < DEFAULT_BUDGET
        assert inspect.signature(exact_moment).parameters["budget"].default == DEFAULT_BUDGET
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
        cfg = make_config(widths, p, request.getfixturevalue(law_name))
        u = UnitVector.basis(widths[0]) if u_name == "e1" else UnitVector.uniform(widths[0])
        assert brute_force_moment(cfg, u, k) == exact_moment(cfg, u, k)

    def test_float_mode_close_to_exact(self, gauss):
        cfg = make_config((2, 3), 1, gauss)
        u = UnitVector.from_coords([0.6, 0.8])
        assert brute_force_moment(cfg, u, 2) == pytest.approx(
            float(exact_moment(make_config((2, 3), 1, gauss), UnitVector.uniform(2), 2)),
            rel=1e-12,
        )


class TestPathEnsemble:
    """Sequences of vertex tuples, one per layer, weighted by layer factors."""

    def test_full_enumeration_reproduces_exact_moment(self, rad):
        # summing squared-input mass times the product of the layer factors
        # over every tuple sequence is the raw definition of the moment
        widths, p, k = (2, 3, 2), F(1, 2), 2
        cfg = make_config(widths, p, rad)
        u = UnitVector.uniform(2)
        total = F(0)
        for seq in itertools.product(
            *(itertools.product(range(n), repeat=k) for n in widths)
        ):
            tuples = [VertexTuple(t) for t in seq]
            weight = math.prod(
                (layer_factor(a, b, rad, p) for a, b in zip(tuples, tuples[1:])), start=F(1)
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

    def test_accepts_beta_params(self, gauss):
        cfg = make_config((4, 4), 1, gauss)
        params = compute_beta(cfg, UnitVector.uniform(4))
        assert theory_moment(params, 3) == pytest.approx(math.exp(3 * params.beta))


class TestVerifyPathCount:
    def test_single_layer_single_path(self):
        m = EdgeMultiplicity(((1, 0), (0, 1)))
        assert verify_path_count([m], (0, 1), 2) == (1, 1)

    def test_single_layer_two_paths(self):
        m = EdgeMultiplicity(((1,), (1,)))
        assert verify_path_count([m], (0, 0), 2) == (2, 2)

    def test_chained_layers(self):
        first = EdgeMultiplicity(((1,), (1,)))
        second = EdgeMultiplicity(((2,),))
        assert verify_path_count([first, second], (0, 0), 2) == (2, 2)

    def test_random_edge_sequences(self, rng):
        # sequences generated from random path tuples are always consistent
        for _ in range(25):
            d = int(rng.integers(1, 4))
            widths = [int(v) for v in rng.integers(1, 4, d + 1)]
            ell = int(rng.integers(1, 4))
            tuples = [tuple(int(v) for v in rng.integers(0, n, ell)) for n in widths]
            edges = [
                EdgeMultiplicity.from_tuples(tuples[i], tuples[i + 1], widths[i], widths[i + 1])
                for i in range(d)
            ]
            enumerated, formula = verify_path_count(edges, tuples[-1], ell)
            assert enumerated == formula
            assert enumerated >= 1

    def test_inconsistent_sequence_rejected(self):
        first = EdgeMultiplicity(((2,),))
        second = EdgeMultiplicity(((1,), (1,)))
        with pytest.raises(ValueError):
            verify_path_count([first, second], (0, 0), 2)
