"""Seeded samplers for the distributions the toolkit draws from.

Every sampler is a function of an explicit :class:`RandomStream`, so a run is
reproducible from its seed and harnesses can hand statistically independent
substreams to parallel trials.  All scales and exponents use natural
logarithms; ``Lap(b)`` means the density (1/2b) exp(-|v|/b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_above, check_unit_interval


@dataclass
class RandomStream:
    """A splittable randomness source identified by (seed, path).

    Identical seed and path always reproduce the same sample sequence.
    ``split`` extends the path, which yields a substream independent of the
    parent and of every sibling.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def split(self, *indices: int) -> "RandomStream":
        """Child stream at ``path + indices``, untouched by the parent's use."""
        return RandomStream(self.seed, self.path + tuple(int(i) for i in indices))


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
