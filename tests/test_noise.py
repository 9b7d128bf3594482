import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import dpselect
import oracles
from dpselect.errors import ParameterError
from dpselect.noise import (
    RandomStream,
    TruncatedLaplaceParams,
    _sibling_words,
    exponential_mechanism,
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


def _assert_numpy_stream(stream, seed, path):
    """``stream`` is numpy's PCG64(SeedSequence(seed, spawn_key=path)), bit for bit."""
    expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path))
    bits = stream.generator.bit_generator
    assert bits.state == expected.state, (seed, path)
    assert np.array_equal(bits.random_raw(8), expected.random_raw(8)), (seed, path)


def _takes_hash_route(stream):
    return not isinstance(stream.generator.bit_generator.seed_seq, np.random.SeedSequence)


_LAST_WORD = 2**32 - 1


@pytest.mark.parametrize(
    "seed,path",
    [
        (0, ()),
        (0, (0,)),
        (0, (1,)),
        (0, (127,)),
        (0, (128,)),
        (2**32 + 7, (3,)),
        (2**40 + 5, (2, 9)),
        (2**74 + 9, (1, 2, 3)),
        (2**128 - 1, (5,)),
        (2**128 + 1, (5, 0)),
        (2**200, (0, 3)),
        (7, (_LAST_WORD,)),
        (7, (_LAST_WORD, 4)),
        (7, (4, _LAST_WORD)),
        (7, (2**32,)),
        (7, (2**32 + 1, 4)),
        (7, (4, 2**40)),
    ],
)
def test_streams_match_numpy_seed_sequence(seed, path):
    hash_route = bool(path) and max(path) <= _LAST_WORD
    root = RandomStream(seed)
    parent = RandomStream(seed)
    for key in path[:-1]:
        parent = parent.split(key)
    # The first derivation hashes the sibling block, the second reads the cache.
    _sibling_words.cache_clear()
    for _ in range(2):
        # ``split`` needs a key, so a fresh root stands for its empty split.
        splits = (root.split(*path), parent.split(*path[-1:])) if path else (RandomStream(seed),)
        for stream in splits:
            _assert_numpy_stream(stream, seed, path)
            assert _takes_hash_route(stream) == hash_route
    # A stream built directly with its path takes the same route.
    direct = RandomStream(seed, path)
    _assert_numpy_stream(direct, seed, path)
    assert _takes_hash_route(direct) == hash_route


def test_sibling_streams_match_numpy_in_any_split_order():
    root = RandomStream(11)
    middle = root.split(6)
    for key in [300, 5, 129, 5, 0, 300, 127, 128, 2**32, 5, 4000, 3999]:
        _assert_numpy_stream(root.split(key), 11, (key,))
        _assert_numpy_stream(root.split(6, key), 11, (6, key))
        _assert_numpy_stream(middle.split(key), 11, (6, key))
    two = root.split(3, 4).generator.random(4)
    assert np.array_equal(two, root.split(3).split(4).generator.random(4))


@given(
    seed=st.integers(0, 2**140),
    path=st.lists(
        st.one_of(st.integers(0, 300), st.integers(2**32 - 2, 2**32 + 1),
                  st.integers(0, 2**32 - 1)),
        min_size=0,
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_split_streams_are_numpy_streams(seed, path):
    path = tuple(path)
    root = RandomStream(seed)
    parent = root
    for key in path[:-1]:
        parent = parent.split(key)
    _sibling_words.cache_clear()
    for _ in range(2):
        _assert_numpy_stream(RandomStream(seed, path), seed, path)
        if path:
            _assert_numpy_stream(root.split(*path), seed, path)
            _assert_numpy_stream(parent.split(*path[-1:]), seed, path)


def test_split_streams_pickle_mid_sequence():
    root = RandomStream(3)
    _sibling_words.cache_clear()
    for key in range(2):
        stream = root.split(key)
        stream.generator.random(3)
        data = pickle.dumps(stream)
        # The stream travels alone: no parent, no block of its siblings' words.
        assert len(data) < 1024
        restored = pickle.loads(data)
        assert np.array_equal(restored.generator.random(4), stream.generator.random(4))


def test_cache_misses_still_match_numpy():
    prefixes = [(prefix,) for prefix in range(_sibling_words.cache_info().maxsize + 1)]
    _sibling_words.cache_clear()
    # Round-robin over more prefixes than the cache holds: every lookup misses.
    for key in (0, 1, 200):
        for prefix in prefixes:
            _assert_numpy_stream(RandomStream(13).split(*prefix, key), 13, (*prefix, key))
    info = _sibling_words.cache_info()
    assert (info.hits, info.misses) == (0, 3 * len(prefixes))
    block = _sibling_words(13, prefixes[-1], 128)
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 0


def test_split_streams_do_not_pin_their_sibling_block():
    # A live stream keeps its own 32 seed bytes, not a view that holds the
    # whole 4 KB block of its 128 siblings' words after the cache drops it.
    count = 500
    _sibling_words.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streams = [RandomStream(21).split(prefix, 0) for prefix in range(count)]
        for stream in streams:
            stream.generator.random()
        _sibling_words.cache_clear()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / count < 4096


def test_import_loads_no_numpy_random():
    env = dict(os.environ, PYTHONPATH=str(Path(dpselect.__file__).parents[1]))
    code = "import sys, dpselect; print([m for m in sys.modules if m.startswith('numpy.random')])"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


def test_numpy_integer_seeds_and_keys_are_plain_ints():
    stream = RandomStream(np.int64(3)).split(np.uint32(2), np.int8(1))
    assert stream == RandomStream(3, (2, 1))
    assert all(type(key) is int for key in (stream.seed, *stream.path))
    _assert_numpy_stream(stream, 3, (2, 1))


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


class FixedUniforms:
    """A stand-in stream whose generator hands out fixed uniforms."""

    def __init__(self, uniforms):
        self.generator = self
        self._uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size=None):
        return self._uniforms if size is not None else float(self._uniforms[0])


@pytest.mark.parametrize("epsilon,delta", [(1.0, math.exp(-3.0)), (0.05, 1e-12)])
def test_truncated_laplace_quantile_at_fixed_uniforms(epsilon, delta):
    params = TruncatedLaplaceParams(epsilon, delta)
    radius = params.support_radius
    top = np.nextafter(1.0, 0.0)
    uniforms = np.concatenate(([0.0, 0.5, top], np.linspace(0.0, 1.0, 4001)[1:-1]))
    draws = sample_truncated_laplace(FixedUniforms(uniforms), params, size=uniforms.size)
    assert np.abs(draws).max() <= radius
    assert draws[0] == pytest.approx(-radius, rel=1e-12) and draws[1] == 0.0
    # the largest uniform below 1 leaves 2**-52 of tail mass uncovered
    assert draws[2] == pytest.approx(radius, rel=1e-5)
    assert np.all(np.diff(draws[3:]) > 0)
    cdf = oracles.tlap_cdf_numeric(epsilon, delta)
    assert np.abs(cdf(draws[1:]) - uniforms[1:]).max() <= 1e-6
    scalar = sample_truncated_laplace(FixedUniforms([0.25]), params)
    assert isinstance(scalar, float) and cdf(scalar) == pytest.approx(0.25, abs=1e-6)


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
