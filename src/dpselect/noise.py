"""Seeded samplers for the distributions the toolkit draws from.

Every sampler is a function of an explicit :class:`RandomStream`, so a run is
reproducible from its seed and harnesses can hand statistically independent
substreams to parallel trials.  All scales and exponents use natural
logarithms; ``Lap(b)`` means the density (1/2b) exp(-|v|/b).

The stream at (seed, path) is byte-identical to numpy's
``PCG64(SeedSequence(seed, spawn_key=path))``.  A stream made by ``split``
with every key below 2**32 gets its PCG64 seed words by repeating
SeedSequence's hash: its parent hashes the first few children under a prefix
one at a time and the rest a block of siblings at once, in uint32 arrays.
The root stream, a stream built directly with a path (``RandomStream(seed,
path)``), and any path with a key of 2**32 or more take numpy's own
SeedSequence route.
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
_POOL_SIZE = 4
# Output word i of generate_state hashes pool word i % 4: it is xored with
# B_i and multiplied by B_(i+1), where B_i = INIT_B * MULT_B**i.
_OUTPUT_HASH = tuple(_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(9))
_OUTPUT_COLUMN = np.array(_OUTPUT_HASH, dtype=np.uint32)[:, None]
# A stream derives its first few children under a prefix one at a time and
# the rest a block at a time: one block costs about as much as three singles.
_SINGLE_CHILDREN = 3
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
    spawn_key=path))``, bit for bit, however it was derived (see the module
    docstring for which streams take numpy's route).
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        self.seed = _stream_key("seed", self.seed)
        self.path = tuple(_stream_key("stream key", key) for key in self.path)
        self._generator: np.random.Generator | None = None
        # The stream ``split`` was called on, and the seed words this stream
        # has derived for the children split from it under one prefix.
        self._origin: RandomStream | None = None
        self._siblings: _Siblings | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            origin = self._origin
            if origin is not None and self.path and max(self.path) <= _MASK32:
                prefix = self.path[:-1]
                siblings = origin._siblings
                if siblings is None or siblings.prefix != prefix:
                    siblings = origin._siblings = _Siblings(self.seed, prefix)
                seeds = _given_seed(siblings.words(self.path[-1]))
            else:
                seeds = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.PCG64(seeds))
        return self._generator

    def split(self, *indices: int) -> "RandomStream":
        """Child stream at ``path + indices``, untouched by the parent's use."""
        child = RandomStream(self.seed, self.path + indices)
        child._origin = self
        return child


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


@functools.lru_cache(maxsize=64)
def _run_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence(seed)'s pool and how many entropy hashes built it.

    With a spawn key numpy pads the run entropy with zero words to the pool
    size, and a zero word hashes exactly as the run-out of a short seed
    does, so every path of ``seed`` starts from this pool.
    """
    run_words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool
    return tuple(int(word) for word in pool), _POOL_SIZE * run_words


@functools.lru_cache(maxsize=None)
def _entropy_hash(hashes: int) -> tuple[int, ...]:
    """The 5 values SeedSequence's entropy hash constant takes from its use ``hashes`` on."""
    consts = [_INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32]
    for _ in range(_POOL_SIZE):
        consts.append(consts[-1] * _MULT_A & _MASK32)
    return tuple(consts)


def _mix_in(pool: tuple[int, ...], hashes: int, key: int) -> tuple[tuple[int, ...], int]:
    """The pool after SeedSequence mixes in one more entropy word, ``key``.

    Pool word i is mixed with the key's i-th hash.
    """
    consts = _entropy_hash(hashes)
    mixed = []
    for i, word in enumerate(pool):
        value = (key ^ consts[i]) * consts[i + 1] & _MASK32
        value ^= value >> 16
        word = (_MIX_L * word - _MIX_R * value) & _MASK32
        mixed.append(word ^ word >> 16)
    return tuple(mixed), hashes + _POOL_SIZE


def _seed_words(state: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)``'s reading of its uint32 words: little-endian pairs."""
    return state.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Siblings:
    """PCG64 seed words of the streams (seed, prefix + (k,)) for any key k below 2**32.

    SeedSequence mixes spawn-key words into its pool one at a time, after
    the run entropy, with hash constants that depend only on how many words
    came before.  So the prefix's pool is mixed once, and each child's pool
    is that pool with the child's key mixed in.  ``words`` hashes the first
    few children one at a time in Python ints, then a block of siblings at
    once in uint32 arrays, one row of the pool per array row.
    """

    def __init__(self, seed: int, prefix: tuple[int, ...]):
        pool, hashes = _run_pool(seed)
        for key in prefix:
            pool, hashes = _mix_in(pool, hashes, key)
        self.prefix = prefix
        self.pool = pool
        self.hashes = hashes
        self.singles = 0
        self.start = -1
        self.block: np.ndarray | None = None

    def words(self, key: int) -> np.ndarray:
        start = key - key % _SIBLING_BLOCK
        if start != self.start:
            if self.singles < _SINGLE_CHILDREN:
                self.singles += 1
                return self._single(key)
            self.start, self.block = start, self._block(start)
        return self.block[key - start]

    def _single(self, key: int) -> np.ndarray:
        pool, _ = _mix_in(self.pool, self.hashes, key)
        state = []
        for i in range(2 * _POOL_SIZE):
            value = (pool[i % _POOL_SIZE] ^ _OUTPUT_HASH[i]) * _OUTPUT_HASH[i + 1] & _MASK32
            state.append(value ^ value >> 16)
        return _seed_words(np.array(state, dtype=np.uint32))

    def _block(self, start: int) -> np.ndarray:
        # _mix_in for a row of keys: row i of ``value`` is their i-th hash.
        consts = np.array(_entropy_hash(self.hashes), dtype=np.uint32)[:, None]
        value = np.arange(start, start + _SIBLING_BLOCK, dtype=np.uint32) ^ consts[:-1]
        value *= consts[1:]
        value ^= value >> 16
        value *= _MIX_R
        left = np.array([_MIX_L * word & _MASK32 for word in self.pool], dtype=np.uint32)
        pools = left[:, None] - value
        pools ^= pools >> 16
        # generate_state's 8 output words cycle through the pool twice.
        state = np.concatenate((pools, pools))
        state ^= _OUTPUT_COLUMN[:-1]
        state *= _OUTPUT_COLUMN[1:]
        state ^= state >> 16
        return _seed_words(state.T)


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
