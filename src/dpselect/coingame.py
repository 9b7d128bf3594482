"""The 0-favored coin game and exact divergence oracles for it.

An adversary feeds Bernoulli pairs (p_i, q_i) with q_i <= p_i and two-sided
exp(eps) closeness of both the pair and its complements.  The game flips the
p-coin when a hidden bit is 0 and the q-coin when it is 1, revealing each
outcome, and halts once k ones have appeared.  The oracles here compute, for
round-indexed deterministic schedules, the exact Renyi and max divergences
of the truncated game's transcripts, for any k and truncation cap, by one
forward recurrence over (round, ones seen).

Conventions: a truncation at cap m keeps each transcript still running
after m rounds as its own outcome; for k = 1 that is the single event
"no one in m rounds", so the k = 1 outcomes are the halting rounds
Pr[halt = i] = prod_{j<i} (1 - p_j) * p_i plus that tail.
Divergences are reported as E-values exp((alpha - 1) * D_alpha), i.e. the
quantity sum_x P(x) * (P(x) / Q(x)) ** (alpha - 1), so a bound D_alpha <= B
reads E <= exp((alpha - 1) * B).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError, PromiseViolation, check_above, check_count
from .noise import RandomStream

_PROMISE_TOL = 1e-12
_Q_LOW = 0.05
_Q_HIGH = 0.95


@dataclass(frozen=True)
class QueryPair:
    """One validated coin pair under the closeness promise at ``epsilon``."""

    p: float
    q: float
    epsilon: float

    def __post_init__(self):
        check_above("epsilon", self.epsilon)
        if not (0.0 <= self.q <= 1.0 and 0.0 <= self.p <= 1.0):
            raise PromiseViolation(f"probabilities must lie in [0, 1]: p={self.p}, q={self.q}")
        grow = math.exp(self.epsilon)
        if self.q > self.p + _PROMISE_TOL:
            raise PromiseViolation(f"q <= p fails: p={self.p}, q={self.q}")
        if self.p > grow * self.q + _PROMISE_TOL:
            raise PromiseViolation(f"p <= exp(eps) * q fails: p={self.p}, q={self.q}")
        if (1.0 - self.q) > grow * (1.0 - self.p) + _PROMISE_TOL:
            raise PromiseViolation(
                f"(1 - q) <= exp(eps) * (1 - p) fails: p={self.p}, q={self.q}"
            )
        if (1.0 - self.p) > grow * (1.0 - self.q) + _PROMISE_TOL:
            raise PromiseViolation(
                f"(1 - p) <= exp(eps) * (1 - q) fails: p={self.p}, q={self.q}"
            )


@dataclass(frozen=True)
class DeterministicAdversary:
    """A pre-committed schedule of query pairs, one per round."""

    pairs: tuple[QueryPair, ...]
    epsilon: float

    @classmethod
    def from_probabilities(
        cls, pairs: Iterable[tuple[float, float]], epsilon: float
    ) -> "DeterministicAdversary":
        validated = tuple(QueryPair(float(p), float(q), epsilon) for p, q in pairs)
        if not validated:
            raise ParameterError("schedule must contain at least one pair")
        return cls(validated, epsilon)

    def __len__(self) -> int:
        return len(self.pairs)


def _chances(adversary: DeterministicAdversary, b: int) -> np.ndarray:
    if b not in (0, 1):
        raise ParameterError(f"b must be 0 or 1, got {b}")
    attr = "p" if b == 0 else "q"
    return np.array([getattr(pair, attr) for pair in adversary.pairs])


def _step(mass_p: float, mass_q: float, alpha: float | None) -> float:
    """One round's factor: P (P/Q)^(alpha-1), or P/Q when alpha is None."""
    if mass_p == 0.0:
        return 0.0
    if mass_q == 0.0:
        return math.inf
    ratio = mass_p / mass_q
    return ratio if alpha is None else mass_p * ratio ** (alpha - 1.0)


def _transcript_fold(
    adversary: DeterministicAdversary, k: int, cap: int, alpha: float | None
) -> float:
    """Sum (or, when alpha is None, max) of a per-transcript value.

    A transcript's value, P (P/Q)^(alpha-1) or P/Q, is the product of its
    rounds' factors, so a forward recurrence over (round, ones seen) carries
    the sum or max per state in O(cap * k).  A state absorbs at its k-th one
    or at round ``cap``.  Outcomes of zero P mass contribute nothing, and a
    positive-P, zero-Q outcome makes the result +inf.
    """
    fold = max if alpha is None else operator.add
    alive = [1.0] + [0.0] * (k - 1)
    halted = 0.0
    for pair in adversary.pairs[:cap]:
        one = _step(pair.p, pair.q, alpha)
        zero = _step(1.0 - pair.p, 1.0 - pair.q, alpha)
        following = [0.0] * k
        for ones, value in enumerate(alive):
            if value == 0.0:
                continue
            if zero:
                following[ones] = fold(following[ones], value * zero)
            if one:
                if ones + 1 == k:
                    halted = fold(halted, value * one)
                else:
                    following[ones + 1] = fold(following[ones + 1], value * one)
        alive = following
    for value in alive:
        halted = fold(halted, value)
    return halted


def exact_renyi(adversary: DeterministicAdversary, alpha: float) -> float:
    """E-value of the order-alpha divergence of the truncated k = 1 game.

    Returns sum_i P_i (P_i / Q_i)^(alpha-1) plus the matching tail term,
    i.e. exp((alpha - 1) * D_alpha(P || Q)).  A zero-q outcome with positive
    p mass makes the divergence infinite and is reported as +inf.
    """
    check_above("alpha", alpha, 1.0)
    return _transcript_fold(adversary, 1, len(adversary), alpha)


def exact_max_divergence(adversary: DeterministicAdversary) -> float:
    """Max divergence ln sup_x P(x)/Q(x) of the truncated k = 1 game."""
    best = _transcript_fold(adversary, 1, len(adversary), None)
    return math.log(best) if best > 0 else 0.0


def enumerate_transcripts(
    adversary: DeterministicAdversary, k: int, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of every truncated k-success transcript under both bits.

    Walks all binary transcripts that either halt with k ones within ``cap``
    rounds or survive to the cap, treating each surviving prefix as its own
    outcome.  Returns aligned (P, Q) probability arrays; both sum to one.
    Exponential in ``cap``: the divergence oracles use the recurrence, and
    this walk is kept as the independent reference they are tested against.
    """
    check_count("k", k)
    check_count("cap", cap, most=len(adversary))
    ps = _chances(adversary, 0)
    qs = _chances(adversary, 1)
    probs_p: list[float] = []
    probs_q: list[float] = []
    # Depth-first walk over (round, ones, mass under P, mass under Q).
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        round_index, ones, mass_p, mass_q = stack.pop()
        if ones == k or round_index == cap:
            probs_p.append(mass_p)
            probs_q.append(mass_q)
            continue
        p, q = ps[round_index], qs[round_index]
        stack.append((round_index + 1, ones, mass_p * (1.0 - p), mass_q * (1.0 - q)))
        stack.append((round_index + 1, ones + 1, mass_p * p, mass_q * q))
    return np.array(probs_p), np.array(probs_q)


def transcript_renyi(
    adversary: DeterministicAdversary, k: int, alpha: float, cap: int
) -> float:
    """E-value of the order-alpha divergence over full truncated transcripts."""
    check_above("alpha", alpha, 1.0)
    check_count("k", k)
    check_count("cap", cap, most=len(adversary))
    return _transcript_fold(adversary, k, cap, alpha)


def transcript_max_log_ratio(
    adversary: DeterministicAdversary, k: int, cap: int
) -> float:
    """Max divergence over full truncated transcripts of the k-success game."""
    check_count("k", k)
    check_count("cap", cap, most=len(adversary))
    best = _transcript_fold(adversary, k, cap, None)
    return math.log(best) if best > 0 else 0.0


def random_valid_schedule(
    stream: RandomStream,
    length: int,
    epsilon: float,
) -> DeterministicAdversary:
    """Sample a schedule of promise-respecting pairs, uniform within bounds.

    Each round draws q uniformly in [0.05, 0.95] and then p uniformly between
    q and the largest value both closeness inequalities allow.
    """
    check_count("length", length)
    generator = stream.generator
    grow = math.exp(epsilon)
    shrink = math.exp(-epsilon)
    pairs = []
    for _ in range(length):
        q = _Q_LOW + (_Q_HIGH - _Q_LOW) * generator.random()
        p_cap = min(grow * q, 1.0 - (1.0 - q) * shrink)
        p = q + (p_cap - q) * generator.random()
        pairs.append((p, q))
    return DeterministicAdversary.from_probabilities(pairs, epsilon)
