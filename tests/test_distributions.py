from fractions import Fraction as F

import numpy as np
import pytest

from matprod import (
    AsymmetryError,
    NormalizationError,
    discrete_symmetric,
    law_from_name,
    rademacher,
    standard_gaussian,
    uniform_symmetric,
    validate_distribution,
)
from matprod.montecarlo import DOMAIN_PRODUCT, chunk_stream


def test_gaussian_moments(gauss):
    assert validate_distribution(gauss) is gauss
    assert gauss.moment(0) == 1
    assert gauss.moment(2) == 1
    assert gauss.moment(4) == 3
    assert gauss.moment(6) == 15
    assert gauss.moment(8) == 105
    assert gauss.atomless


def test_rademacher_moments(rad):
    assert rad.moment(2) == 1
    assert rad.moment(4) == 1
    assert rad.moment(100) == 1
    assert not rad.atomless


def test_uniform_symmetric_moments(unif):
    assert unif.moment(2) == 1
    assert unif.moment(4) == F(9, 5)
    assert unif.moment(6) == F(27, 7)
    assert unif.atomless


@pytest.mark.parametrize("law_name", ["gaussian", "rademacher", "uniform"])
@pytest.mark.parametrize("k", [1, 3, 5, 7, 11])
def test_odd_moments_vanish(law_name, k):
    assert law_from_name(law_name).moment(k) == 0


def test_discrete_law_moments_match_direct_sum():
    law = discrete_symmetric(
        [(F(2), F(1, 10)), (F(-2), F(1, 10)), (F(1, 2), F(2, 5)), (F(-1, 2), F(2, 5))]
    )
    for k in range(9):
        direct = sum(p * v**k for v, p in law.support_pairs())
        assert law.moment(k) == direct
    assert law.moment(4) == F(13, 4)
    assert not law.atomless


def test_discrete_law_wrong_variance_rejected():
    with pytest.raises(NormalizationError):
        discrete_symmetric([(2, F(1, 2)), (-2, F(1, 2))])


def test_discrete_law_asymmetric_support_rejected():
    with pytest.raises(AsymmetryError):
        discrete_symmetric([(1, F(1, 2)), (-2, F(1, 2))])


def test_discrete_law_asymmetric_probabilities_rejected():
    with pytest.raises(AsymmetryError):
        discrete_symmetric([(1, F(3, 5)), (-1, F(2, 5))])


def test_discrete_law_bad_probability_sum_rejected():
    with pytest.raises(NormalizationError):
        discrete_symmetric([(1, F(1, 4)), (-1, F(1, 4))])


@pytest.mark.parametrize("law_name", ["gaussian", "rademacher", "uniform"])
def test_sampling_matches_low_moments(law_name, rng):
    law = law_from_name(law_name)
    x = law.sample(rng, 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02
    assert abs((x**4).mean() - float(law.moment(4))) < 0.1


def test_discrete_sampling_hits_support(rng):
    law = discrete_symmetric([(1, F(1, 2)), (-1, F(1, 2))])
    x = law.sample(rng, 1000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_sampling_shape_and_determinism(gauss):
    a = gauss.sample(np.random.default_rng(5), (3, 4))
    b = gauss.sample(np.random.default_rng(5), (3, 4))
    assert a.shape == (3, 4)
    assert np.array_equal(a, b)


SPLIT_LAWS = {
    "gaussian": standard_gaussian(),
    "rademacher": rademacher(),
    "uniform": uniform_symmetric(),
    "discrete": discrete_symmetric([(-2, F(1, 8)), (0, F(3, 4)), (2, F(1, 8))]),
}


@pytest.mark.parametrize("law_name", sorted(SPLIT_LAWS))
@pytest.mark.parametrize(
    "sizes",
    [(0, 0), (0, 5), (1, 1), (3, 5), (7, 0, 2, 9), (1, 1000, 3), ((2, 3, 4), 5, (1, 7, 3))],
)
def test_split_draw_equals_joint_draw(law_name, sizes):
    # the block samplers draw a layer's live entries slice by slice and
    # rely on consecutive draws giving the numbers of one joint draw and
    # leaving the generator where the joint draw leaves it; Rademacher and
    # the discrete law draw through integers and choice, so a numpy change
    # could break this for them alone
    law = SPLIT_LAWS[law_name]
    split = chunk_stream(11, DOMAIN_PRODUCT, 0)
    joint = chunk_stream(11, DOMAIN_PRODUCT, 0)
    parts = [law.sample(split, size).ravel() for size in sizes]
    total = sum(int(np.prod(size)) for size in sizes)
    assert np.array_equal(np.concatenate(parts), law.sample(joint, total))
    np.testing.assert_equal(split.bit_generator.state, joint.bit_generator.state)
