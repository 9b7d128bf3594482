"""Seeded samplers for the distributions the toolkit draws from.

Every sampler is a function of an explicit :class:`RandomStream`, so a run is
reproducible from its seed and harnesses can hand statistically independent
substreams to parallel trials.  All scales and exponents use natural
logarithms; ``Lap(b)`` means the density (1/2b) exp(-|v|/b).

The stream at (seed, path) is byte-identical to numpy's
``PCG64(SeedSequence(seed, spawn_key=path))``.  The root stream and any path
with a key of 2**32 or more take numpy's own SeedSequence route.  Every
other path gets its PCG64 seed words by repeating SeedSequence's hash for
the aligned block of 128 siblings that holds its last key, in uint32
arrays; a small cache keeps the latest blocks, so siblings split one after
another share one hash.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_above, check_count, check_unit_interval

# SeedSequence's hash constants: its entropy hash (A), its output hash (B)
# and its pool mixer.  All arithmetic is modulo 2**32.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Output word i of generate_state hashes pool word i % 4: it is xored with
# B_i and multiplied by B_(i+1), where B_i = INIT_B * MULT_B**i.
_OUTPUT_HASH = np.array(
    [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9)], dtype=np.uint32
)[:, None]
# The entropy hash's constant after ``h`` uses is INIT_A * MULT_A**h; these
# are its steps to the next four uses.
_ENTROPY_STEPS = np.array([pow(_MULT_A, i, 1 << 32) for i in range(5)], dtype=np.uint32)[:, None]
_SIBLING_BLOCK = 128


def _stream_key(name: str, value) -> int:
    """``value`` as an int if it is a nonnegative integer (numpy's too), else refuse."""
    if type(value) is int and value >= 0:
        return value
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
    check_count(name, value, least=0)
    return value


@dataclass
class RandomStream:
    """A splittable randomness source identified by (seed, path).

    Identical seed and path always reproduce the same sample sequence.
    ``split`` extends the path, which yields a substream independent of the
    parent and of every sibling.  The seed and every key are nonnegative
    integers; the stream is numpy's ``PCG64(SeedSequence(seed,
    spawn_key=path))``, bit for bit, whichever route derives it: the root
    and any path with a key of 2**32 or more take numpy's, every other path
    the sibling-block hash (see the module docstring).
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        self.seed = _stream_key("seed", self.seed)
        self.path = tuple(_stream_key("stream key", key) for key in self.path)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            path = self.path
            if path and max(path) <= _MASK32:
                key = path[-1]
                offset = key % _SIBLING_BLOCK
                block = _sibling_words(self.seed, path[:-1], key - offset)
                # A copy of the row: a view would keep the whole block alive.
                seeds = _given_seed(block[offset].copy())
            else:
                seeds = np.random.SeedSequence(self.seed, spawn_key=path)
            self._generator = np.random.Generator(np.random.PCG64(seeds))
        return self._generator

    def split(self, *indices: int) -> "RandomStream":
        """Child stream at ``path + indices``, untouched by the parent's use.

        At least one index is needed: with none the child would be the parent.
        """
        if not indices:
            raise ParameterError("split keys must number at least one")
        return RandomStream(self.seed, self.path + indices)


def _given_seed(words: np.ndarray):
    """An ``ISeedSequence`` that hands PCG64 ``words`` as its seed words."""
    return _given_seed_type()(words)


@functools.cache
def _given_seed_type() -> type:
    """The class behind ``_given_seed``.

    Built on first use, after numpy has loaded ``numpy.random`` for the
    draw itself: importing it with the package would add about 6 MB to
    every ``import dpselect``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks once for its 4 uint64 seed words.
            return self.words

        def __reduce__(self):
            return _given_seed, (self.words,)

    return GivenSeed


@functools.lru_cache(maxsize=32)
def _sibling_words(seed: int, prefix: tuple[int, ...], start: int) -> np.ndarray:
    """PCG64 seed words of the streams (seed, prefix + (k,)), k = start .. start + 127.

    Key k's words are row k - start of a read-only array, so the cache can
    share it.  SeedSequence mixes each spawn-key word into its pool after the
    run entropy, with hash constants that depend only on how many words came
    before: 4 per word, and the run entropy counts at least 4 words.  So
    every child's pool is the prefix's pool with the child's key mixed in,
    which is done here for the whole block at once in uint32 arrays, one
    pool word per array row.
    """
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool
    hashes = 4 * (max(4, -(-seed.bit_length() // 32)) + len(prefix))
    consts = _ENTROPY_STEPS * np.uint32(_INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32)
    # Row i of ``value`` is each key's i-th entropy hash, mixed into pool word i.
    value = np.arange(start, start + _SIBLING_BLOCK, dtype=np.uint32) ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    value *= _MIX_R
    pools = (pool * np.uint32(_MIX_L))[:, None] - value
    pools ^= pools >> 16
    # generate_state's 8 output words cycle through the pool twice and are
    # read as 4 little-endian uint64 pairs.
    state = np.concatenate((pools, pools))
    state ^= _OUTPUT_HASH[:-1]
    state *= _OUTPUT_HASH[1:]
    state ^= state >> 16
    words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)
    words.flags.writeable = False
    return words


@dataclass(frozen=True)
class TruncatedLaplaceParams:
    """Parameters of the truncated Laplace distribution TLap(epsilon, delta).

    The density is proportional to exp(-|v| * epsilon) on the interval
    [-ln(1/delta)/epsilon, +ln(1/delta)/epsilon] and zero outside it, which
    is what makes a sensitivity-1 release (epsilon, delta)-DP.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        check_above("epsilon", self.epsilon)
        check_unit_interval("delta", self.delta)

    @property
    def support_radius(self) -> float:
        return math.log(1.0 / self.delta) / self.epsilon


def sample_laplace(stream: RandomStream, scale: float, size: int | None = None):
    """Draw from Lap(scale), centred at zero.

    Returns a float when ``size`` is None, else an ndarray of that length.
    """
    check_above("scale", scale)
    draw = stream.generator.laplace(0.0, scale, size)
    return float(draw) if size is None else draw


def sample_truncated_laplace(
    stream: RandomStream, params: TruncatedLaplaceParams, size: int | None = None
):
    """Draw from TLap(params) by inverting its CDF.

    With w = 2u - 1 for a uniform u, the draw is
    sign(w) * min(-log1p(-|w| * (1 - delta)) / epsilon, support_radius):
    one quantile formula for both halves.  The clamp keeps every draw inside
    [-support_radius, +support_radius]; the hard support is what callers
    rely on for probability-one error certificates.
    """
    w = 2.0 * np.asarray(stream.generator.random(size)) - 1.0
    magnitude = -np.log1p(-np.abs(w) * (1.0 - params.delta)) / params.epsilon
    value = np.sign(w) * np.minimum(magnitude, params.support_radius)
    return float(value) if size is None else value


def sample_pass_probability(stream: RandomStream, gamma: float, size: int | None = None):
    """Draw the gate probability p with CDF Pr[p <= x] = x**gamma on [0, 1]."""
    check_above("gamma", gamma)
    u = stream.generator.random(size)
    value = u ** (1.0 / gamma)
    return float(value) if size is None else value


def exponential_mechanism(
    stream: RandomStream,
    scores,
    epsilon: float,
    sensitivity: float = 1.0,
) -> int:
    """Pick an index with probability proportional to exp(eps * score / (2 * sens)).

    Weights are normalised after subtracting the max exponent, so widely
    spread scores cannot overflow.
    """
    check_above("epsilon", epsilon)
    check_above("sensitivity", sensitivity)
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ParameterError("scores must be a nonempty vector")
    logits = scores * (epsilon / (2.0 * sensitivity))
    # A NaN, a +inf or all -inf scores make the max non-finite; past this
    # check every weight lies in [0, 1] and the largest is 1.
    top = logits.max()
    if not math.isfinite(top):
        raise ParameterError("scores must be finite")
    logits -= top
    weights = np.exp(logits)
    probabilities = weights / weights.sum()
    # Inverse-CDF draw from one uniform: the same index and stream position
    # as ``generator.choice(scores.size, p=probabilities)``, without its
    # per-call validation of the probability vector.
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(stream.generator.random(), side="right"))
