import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from dpselect.errors import ParameterError
from dpselect.noise import (
    RandomStream,
    TruncatedLaplaceParams,
    exponential_mechanism,
    sample_bernoulli,
    sample_laplace,
    sample_pass_probability,
    sample_truncated_laplace,
)


def test_same_seed_reproduces_draws():
    a = RandomStream(99)
    b = RandomStream(99)
    assert np.array_equal(sample_laplace(a, 1.0, size=64), sample_laplace(b, 1.0, size=64))
    assert sample_pass_probability(a.split(3), 2.0) == sample_pass_probability(
        b.split(3), 2.0
    )


def test_split_paths_are_independent():
    root = RandomStream(5)
    left = sample_laplace(root.split(0), 1.0, size=100_000)
    right = sample_laplace(root.split(1), 1.0, size=100_000)
    assert not np.array_equal(left[:100], right[:100])
    assert abs(np.corrcoef(left, right)[0, 1]) < 0.01
    # same indices, fresh objects: identical
    again = sample_laplace(RandomStream(5).split(0), 1.0, size=100_000)
    assert np.array_equal(left, again)


def test_split_accepts_multiple_indices():
    one = RandomStream(7).split(1, 2).generator.random()
    two = RandomStream(7).split(1, 2).generator.random()
    other = RandomStream(7).split(2, 1).generator.random()
    assert one == two
    assert one != other


def test_laplace_location_and_spread():
    draws = sample_laplace(RandomStream(11), 1.0, size=1_000_000)
    assert abs(np.median(draws)) < 0.01
    assert abs(np.abs(draws).mean() - 1.0) < 0.01


def test_laplace_quantile_scale_two():
    draws = sample_laplace(RandomStream(12), 2.0, size=1_000_000)
    # CDF at -2 ln 2 is exactly 1/4 for scale 2
    assert abs((draws <= -2.0 * math.log(2.0)).mean() - 0.25) < 0.005


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
def test_laplace_matches_cdf(scale):
    draws = sample_laplace(RandomStream(int(scale * 10)), scale, size=1_000_000)
    ks = stats.kstest(draws, lambda x: oracles.laplace_cdf(x, scale)).statistic
    assert ks < 0.005


def test_laplace_rejects_bad_scale():
    with pytest.raises(ParameterError):
        sample_laplace(RandomStream(0), 0.0)
    with pytest.raises(ParameterError):
        sample_laplace(RandomStream(0), -1.0)


def test_truncated_laplace_radius():
    params = TruncatedLaplaceParams(1.0, math.exp(-3.0))
    assert params.support_radius == pytest.approx(3.0, abs=1e-12)
    assert TruncatedLaplaceParams(0.5, 1e-6).support_radius == pytest.approx(
        math.log(1e6) / 0.5, rel=1e-12
    )


def test_truncated_laplace_support_is_hard():
    params = TruncatedLaplaceParams(1.0, math.exp(-3.0))
    draws = sample_truncated_laplace(RandomStream(21), params, size=1_000_000)
    assert np.abs(draws).max() <= params.support_radius
    assert abs(np.median(draws)) < 0.01


def test_truncated_laplace_interval_mass():
    params = TruncatedLaplaceParams(1.0, math.exp(-3.0))
    draws = sample_truncated_laplace(RandomStream(22), params, size=1_000_000)
    observed = ((draws >= 0.0) & (draws <= 1.0)).mean()
    expected = oracles.tlap_interval_mass(0.0, 1.0, 1.0, math.exp(-3.0))
    assert expected == pytest.approx(oracles.TLAP_UNIT_MASS_EPS1_DELTA_E3, abs=1e-9)
    assert observed == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize("epsilon,delta", [(1.0, math.exp(-3.0)), (0.3, 1e-4), (2.0, 1e-2)])
def test_truncated_laplace_matches_cdf(epsilon, delta):
    params = TruncatedLaplaceParams(epsilon, delta)
    draws = sample_truncated_laplace(
        RandomStream(int(epsilon * 1000)), params, size=1_000_000
    )
    ks = stats.kstest(draws, oracles.tlap_cdf_numeric(epsilon, delta)).statistic
    assert ks < 0.005


def test_truncated_laplace_rejects_bad_params():
    with pytest.raises(ParameterError):
        TruncatedLaplaceParams(0.0, 0.1)
    with pytest.raises(ParameterError):
        TruncatedLaplaceParams(1.0, 0.0)
    with pytest.raises(ParameterError):
        TruncatedLaplaceParams(1.0, 1.0)


def test_pass_probability_law():
    draws = sample_pass_probability(RandomStream(31), 2.0, size=1_000_000)
    # CDF of the gate probability is x^gamma
    assert abs((draws <= 0.5).mean() - 0.25) < 0.005
    draws = sample_pass_probability(RandomStream(32), 0.5, size=1_000_000)
    assert abs((draws <= 0.25).mean() - 0.5) < 0.005
    uniform = sample_pass_probability(RandomStream(33), 1.0, size=1_000_000)
    assert stats.kstest(uniform, "uniform").statistic < 0.005


def test_pass_probability_rejects_bad_gamma():
    with pytest.raises(ParameterError):
        sample_pass_probability(RandomStream(0), 0.0)
    with pytest.raises(ParameterError):
        sample_pass_probability(RandomStream(0), -2.0)


@given(gamma=st.floats(0.01, 50.0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_pass_probability_stays_in_unit_interval(gamma, seed):
    value = sample_pass_probability(RandomStream(seed), gamma)
    assert 0.0 <= value <= 1.0


def test_bernoulli_edges_and_mean():
    assert not sample_bernoulli(RandomStream(41), 0.0, size=10_000).any()
    assert sample_bernoulli(RandomStream(42), 1.0, size=10_000).all()
    draws = sample_bernoulli(RandomStream(43), 0.3, size=1_000_000)
    assert abs(draws.mean() - 0.3) < 0.002
    with pytest.raises(ParameterError):
        sample_bernoulli(RandomStream(0), 1.5)
    with pytest.raises(ParameterError):
        sample_bernoulli(RandomStream(0), -0.1)


def test_exponential_mechanism_uniform_on_ties():
    scores = np.zeros(8)
    picks = np.array(
        [exponential_mechanism(RandomStream(50).split(i), scores, 1.0, 1.0)
         for i in range(100_000)]
    )
    counts = np.bincount(picks, minlength=8)
    assert stats.chisquare(counts).pvalue > 1e-3


def test_exponential_mechanism_known_odds():
    # weights exp(eps * s / (2 sens)) become [1, 4] for this gap
    scores = np.array([0.0, 2.0 * math.log(4.0)])
    picks = np.array(
        [exponential_mechanism(RandomStream(51).split(i), scores, 1.0, 1.0)
         for i in range(200_000)]
    )
    assert abs(picks.mean() - 0.8) < 0.005


def test_exponential_mechanism_sharp_at_high_epsilon():
    scores = np.array([0.3, 0.9, 0.1, 0.5])
    picks = {
        exponential_mechanism(RandomStream(52).split(i), scores, 100.0, 0.01)
        for i in range(200)
    }
    assert picks == {1}


def test_exponential_mechanism_draws_as_generator_choice():
    # Seeded outputs stay byte-identical across numpy versions only while the
    # draw consumes the stream exactly as Generator.choice(n, p=...) does.
    cases = np.random.default_rng(53)
    for trial in range(600):
        size = int(cases.integers(1, 61))
        spread = 10.0 ** cases.uniform(-1.0, 4.0)
        if trial % 3 == 0:
            scores = cases.integers(0, 3, size).astype(float) * spread
        else:
            scores = cases.normal(0.0, spread, size)
        epsilon, sensitivity = cases.uniform(0.01, 2.0), cases.uniform(0.1, 3.0)
        logits = scores * (epsilon / (2.0 * sensitivity))
        logits -= logits.max()
        weights = np.exp(logits)
        mine, numpys = RandomStream(trial), RandomStream(trial)
        pick = exponential_mechanism(mine, scores, epsilon, sensitivity)
        expected = numpys.generator.choice(size, p=weights / weights.sum())
        assert pick == expected
        assert mine.generator.random() == numpys.generator.random()


def test_exponential_mechanism_validation():
    with pytest.raises(ParameterError):
        exponential_mechanism(RandomStream(0), np.array([]), 1.0, 1.0)
    with pytest.raises(ParameterError):
        exponential_mechanism(RandomStream(0), np.array([1.0]), 0.0, 1.0)
    with pytest.raises(ParameterError):
        exponential_mechanism(RandomStream(0), np.array([1.0]), 1.0, 0.0)
    for bad in ([1.0, np.nan], [1.0, np.inf], [-np.inf, -np.inf]):
        with pytest.raises(ParameterError, match="finite"):
            exponential_mechanism(RandomStream(0), np.array(bad), 1.0, 1.0)
