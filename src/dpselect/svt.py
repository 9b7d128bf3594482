"""Repetitive sparse-vector testing built on the gated Test primitive.

Each incoming threshold query is answered by alternating batches of tau
gated tests: an above-direction batch claims the value sits below the
threshold, a below-direction batch claims it sits above threshold - d.  A
batch that produces a TOP anywhere fails, consumes one unit of the global
TOP budget k', and flips the direction; the first batch that comes back
all-BOT settles the query (BOT for an above batch, TOP for a below batch).
Exhausting the budget mid-query halts the whole session and leaves that
query unanswered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import BOT, TOP, Dataset, FrameworkState, Hypothesis, Verdict
from .errors import HaltedError, ParameterError
from .noise import RandomStream, sample_laplace

Evaluator = Callable[[Dataset], float]


@dataclass(frozen=True)
class SvtConfig:
    """Derived operating point of one repetitive-SVT session."""

    epsilon_prime: float
    gamma: float
    d: float
    tau: int
    k_prime: int
    sensitivity: float


@dataclass(frozen=True)
class SvtQuery:
    """A numeric query (sensitivity bounded by the session's) and a threshold."""

    evaluator: Evaluator
    threshold: float


@dataclass(frozen=True)
class SvtResponse:
    """Settled verdict for query ``index``.

    BOT claims the value is at most the threshold (up to the noise margin);
    TOP claims it is at least threshold - d.
    """

    index: int
    verdict: Verdict


def svt_params(
    epsilon: float,
    delta: float,
    k: int,
    m: int,
    beta: float,
    sensitivity: float = 1.0,
    pure_dp: bool = False,
) -> SvtConfig:
    """Derive the session recipe for m queries, k expected TOPs, confidence beta.

    gamma = ln(20/beta)/ln(m), tau = 5*m**2, k' adds headroom of
    ceil(7*ln(1/beta)/ln(m)) batch mistakes, and the per-test budget is
    epsilon / (gamma + sqrt(k*ln(1/delta))), or epsilon / (gamma + k) for
    the pure-DP variant (which ignores delta).  Requires
    beta in (2**-m, 1/m), the regime the error analysis covers.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (isinstance(k, int) and k >= 1):
        raise ParameterError(f"k must be a positive integer, got {k}")
    if not (isinstance(m, int) and m >= 2):
        raise ParameterError(f"m must be an integer of at least 2, got {m}")
    if not sensitivity > 0:
        raise ParameterError(f"sensitivity must be positive, got {sensitivity}")
    low = 2.0 ** (-m) if m < 1024 else 0.0
    if not low < beta < 1.0 / m:
        raise ParameterError(
            f"beta must lie in (2**-{m}, 1/{m}), got {beta}"
        )
    log_m = math.log(m)
    gamma = math.log(20.0 / beta) / log_m
    if pure_dp:
        epsilon_prime = epsilon / (gamma + k)
    else:
        if not 0 < delta < 1:
            raise ParameterError(f"delta must lie in (0, 1), got {delta}")
        epsilon_prime = epsilon / (gamma + math.sqrt(k * math.log(1.0 / delta)))
    d = 10.0 * sensitivity * log_m / epsilon_prime
    k_prime = k + math.ceil(7.0 * math.log(1.0 / beta) / log_m)
    return SvtConfig(
        epsilon_prime=epsilon_prime,
        gamma=gamma,
        d=d,
        tau=5 * m * m,
        k_prime=k_prime,
        sensitivity=sensitivity,
    )


def _laplace_upper_tail(x: float, scale: float) -> float:
    """Pr[Lap(scale) >= x], exact."""
    if x >= 0:
        return 0.5 * math.exp(-x / scale)
    return 1.0 - 0.5 * math.exp(x / scale)


def above_hypothesis(
    evaluator: Evaluator,
    threshold: float,
    epsilon_prime: float,
    sensitivity: float,
) -> Hypothesis:
    """TOP iff evaluator(D) + Lap(sensitivity/epsilon') >= threshold.

    The closed-form TOP probability is attached so long all-BOT batches can
    be resolved analytically.
    """
    if not epsilon_prime > 0:
        raise ParameterError(f"epsilon_prime must be positive, got {epsilon_prime}")
    scale = sensitivity / epsilon_prime

    def run(dataset: Dataset, stream: RandomStream) -> Verdict:
        noisy = evaluator(dataset) + sample_laplace(stream, scale)
        return TOP if noisy >= threshold else BOT

    def top_probability(dataset: Dataset) -> float:
        return _laplace_upper_tail(threshold - evaluator(dataset), scale)

    return Hypothesis(run=run, epsilon=epsilon_prime, top_probability=top_probability)


def below_hypothesis(
    evaluator: Evaluator,
    threshold: float,
    d: float,
    epsilon_prime: float,
    sensitivity: float,
) -> Hypothesis:
    """TOP iff evaluator(D) + Lap(sensitivity/epsilon') <= threshold - d."""
    if not epsilon_prime > 0:
        raise ParameterError(f"epsilon_prime must be positive, got {epsilon_prime}")
    if not d >= 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    scale = sensitivity / epsilon_prime

    def run(dataset: Dataset, stream: RandomStream) -> Verdict:
        noisy = evaluator(dataset) + sample_laplace(stream, scale)
        return TOP if noisy <= threshold - d else BOT

    def top_probability(dataset: Dataset) -> float:
        return 1.0 - _laplace_upper_tail(threshold - d - evaluator(dataset), scale)

    return Hypothesis(run=run, epsilon=epsilon_prime, top_probability=top_probability)


class RepetitiveSvt:
    """Answer a stream of threshold queries under one global TOP budget."""

    def __init__(self, config: SvtConfig, state: FrameworkState):
        if state.gamma != config.gamma:
            raise ParameterError(
                f"state gamma {state.gamma} does not match config gamma {config.gamma}"
            )
        self.config = config
        self.state = state
        self.charged = 0
        self.halted = False

    def process(self, query: SvtQuery) -> Verdict:
        """Settle one query, or raise HaltedError if the budget ran out.

        The raising call itself consumed the final budget unit; the query
        that triggered it is left unanswered, as is everything after it.
        """
        if self.halted:
            raise HaltedError("TOP budget exhausted, session halted")
        above = True
        while True:
            if above:
                hypothesis = above_hypothesis(
                    query.evaluator,
                    query.threshold,
                    self.config.epsilon_prime,
                    self.config.sensitivity,
                )
            else:
                hypothesis = below_hypothesis(
                    query.evaluator,
                    query.threshold,
                    self.config.d,
                    self.config.epsilon_prime,
                    self.config.sensitivity,
                )
            if self.state.test_batch(hypothesis, self.config.tau):
                return BOT if above else TOP
            self.charged += 1
            if self.charged == self.config.k_prime:
                self.halted = True
                raise HaltedError("TOP budget exhausted, session halted")
            above = not above


def repetitive_svt(
    queries: Iterable[SvtQuery],
    config: SvtConfig,
    state: FrameworkState,
) -> Iterator[SvtResponse]:
    """Yield settled responses until the queries or the TOP budget run out.

    A budget halt ends the stream early without a response for the query in
    flight, so the response stream can be strictly shorter than the input.
    """
    session = RepetitiveSvt(config, state)
    for index, query in enumerate(queries):
        try:
            verdict = session.process(query)
        except HaltedError:
            return
        yield SvtResponse(index=index, verdict=verdict)
