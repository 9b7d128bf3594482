"""Repetitive sparse-vector testing built on the gated Test primitive.

Each threshold query arrives as its shifted value (its value less its
threshold), which the session takes as given: it reads no record.  Each is
answered by alternating batches of tau gated tests: an above-direction
batch claims the shifted value sits below 0, a below-direction batch claims
it sits above -d.  A batch that produces a TOP anywhere fails, consumes one
unit of the global TOP budget k', and flips the direction; the first batch
that comes back all-BOT settles the query (BOT for an above batch, TOP for
a below batch).  Exhausting the budget mid-query halts the whole session
and leaves that query unanswered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import _CERTAIN_PASS_MASS, BOT, TOP, Dataset, FrameworkState, Hypothesis, Verdict
from .errors import (
    HaltedError,
    ParameterError,
    check_above,
    check_count,
    check_gamma,
    check_unit_interval,
)
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
    check_above("epsilon", epsilon)
    check_count("k", k)
    check_count("m", m, least=2)
    check_above("sensitivity", sensitivity)
    if not 2.0 ** (-m) < beta < 1.0 / m:
        raise ParameterError(
            f"beta must lie in (2**-{m}, 1/{m}), got {beta}"
        )
    log_m = math.log(m)
    gamma = math.log(20.0 / beta) / log_m
    if pure_dp:
        epsilon_prime = epsilon / (gamma + k)
    else:
        check_unit_interval("delta", delta)
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


def _settle_bound(p: float, tau: int, scale: float) -> float:
    """Largest shifted value whose above batch of tau tests is certain to pass.

    At a shifted value v <= 0 each test's gate rate is rho = p*exp(v/scale)/2,
    so tau*rho <= _CERTAIN_PASS_MASS, and ``test_batch`` would pass without a
    draw, once v <= scale*ln(2*mass/(p*tau)) (capped at 0).  Outside
    0 < p <= 1 and at an infinite scale the bound is NaN: nothing settles
    and ``test_batch`` meets the case as before.
    """
    if not (0.0 < p <= 1.0 and scale < math.inf):
        return math.nan
    return min(scale * math.log(2.0 * _CERTAIN_PASS_MASS / (p * tau)), 0.0)


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
    check_above("epsilon_prime", epsilon_prime)
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
    """TOP iff evaluator(D) + Lap(sensitivity/epsilon') <= threshold - d.

    Lap is symmetric, so this is the above test of -evaluator(D) at
    threshold d - threshold, and its TOP probability is one upper tail.
    """
    check_above("d", d, inclusive=True)
    return above_hypothesis(
        lambda ds: -evaluator(ds), d - threshold, epsilon_prime, sensitivity
    )


class RepetitiveSvt:
    """Answer a stream of threshold queries under one global TOP budget."""

    def __init__(self, config: SvtConfig, state: FrameworkState):
        check_gamma(state.gamma, config.gamma)
        check_count("tau", config.tau)
        self.config = config
        self.state = state
        self.charged = 0
        self.halted = False
        # Both hypotheses test the query in flight shifted to threshold 0,
        # built once per session.  The closure reads a one-slot holder, not
        # the session: a closure over the session would make a reference
        # cycle and leave every finished session to the cyclic collector.
        # process puts each query's shifted value there; a float pins no
        # query, so the holder is never emptied.
        self._in_flight = in_flight = [0.0]

        def shifted(dataset: Dataset) -> float:
            return in_flight[0]

        self._above = above_hypothesis(
            shifted, 0.0, config.epsilon_prime, config.sensitivity
        )
        self._below = below_hypothesis(
            shifted, 0.0, config.d, config.epsilon_prime, config.sensitivity
        )
        self._scale = config.sensitivity / config.epsilon_prime
        self._bound_p = math.nan
        self._bound = math.nan

    def process(self, value: float) -> Verdict:
        """Settle one query, or raise HaltedError if the budget ran out.

        ``value`` is the query's value less its threshold, for a query of at
        most the session's sensitivity.  The raising call itself consumed
        the final budget unit; the query that triggered it is left
        unanswered, as is everything after it.

        A value at or below ``_settle_bound`` answers BOT at once, with the
        first above batch's effects: the epsilon registration, and no draw,
        charge or TOP.
        """
        if self.halted:
            raise HaltedError("TOP budget exhausted, session halted")
        state = self.state
        state.ledger.register(self.config.epsilon_prime)
        if state.p != self._bound_p:
            self._bound_p = state.p
            self._bound = _settle_bound(state.p, self.config.tau, self._scale)
        if value <= self._bound:
            return BOT
        self._in_flight[0] = value
        above = True
        while not state.test_batch(self._above if above else self._below, self.config.tau):
            self.charged += 1
            if self.charged == self.config.k_prime:
                self.halted = True
                raise HaltedError("TOP budget exhausted, session halted")
            above = not above
        return BOT if above else TOP


def repetitive_svt(
    values: Iterable[float],
    config: SvtConfig,
    state: FrameworkState,
) -> Iterator[Verdict]:
    """Yield settled verdicts in query order until the values or the budget run out.

    Each value is one query's value less its threshold.  BOT claims it is at
    most 0 (up to the noise margin); TOP claims it is at least -d.  The i-th
    verdict answers the i-th value.  A budget halt ends the stream early
    without a verdict for the query in flight, so the stream can be strictly
    shorter than the input.
    """
    session = RepetitiveSvt(config, state)
    for value in values:
        try:
            verdict = session.process(value)
        except HaltedError:
            return
        yield verdict
