"""The 0-favored coin game and exact divergence oracles for it.

An adversary feeds Bernoulli pairs (p_i, q_i) with q_i <= p_i and two-sided
exp(eps) closeness of both the pair and its complements.  The game flips the
p-coin when a hidden bit is 0 and the q-coin when it is 1, revealing each
outcome, and halts once k ones have appeared.  The oracles here compute, for
round-indexed deterministic schedules, the exact Renyi and max divergences
of the truncated game's transcripts, for any k and truncation cap, by one
forward recurrence over (round, ones seen).

A schedule is two read-only float64 vectors, ``ps`` and ``qs``, checked
against the promise in one array pass; a random schedule takes all its
uniforms in one draw.  A schedule keeps one read-only table of its rounds'
factors for each of its last ``_CACHED_ORDERS`` orders.  At k = 1 the
recurrence has one live state, so it runs as array code: the running
product (cumprod) of the zero factors, then the in-order cumulative sum (or
the max) of the halting outcomes' values and the survivor's.  For k > 1 it
runs over the table's floats, one count of ones at a time, forming a
product only when both operands are nonzero.  Each float operation is the
round-by-round recurrence's own, in its order, so the doubles are the same.

Conventions: a truncation at cap m keeps each transcript still running
after m rounds as its own outcome; for k = 1 that is the single event
"no one in m rounds", so the k = 1 outcomes are the halting rounds
Pr[halt = i] = prod_{j<i} (1 - p_j) * p_i plus that tail.
Divergences are reported as E-values exp((alpha - 1) * D_alpha), i.e. the
quantity sum_x P(x) * (P(x) / Q(x)) ** (alpha - 1), so a bound D_alpha <= B
reads E <= exp((alpha - 1) * B).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError, PromiseViolation, check_above, check_count
from .noise import RandomStream

_PROMISE_TOL = 1e-12
_CACHED_ORDERS = 4
_Q_LOW = 0.05
_Q_HIGH = 0.95
# The promise's rules, in the order a pair is checked against them.
_PROMISE_RULES = (
    "probabilities must lie in [0, 1]",
    "q <= p fails",
    "p <= exp(eps) * q fails",
    "(1 - q) <= exp(eps) * (1 - p) fails",
    "(1 - p) <= exp(eps) * (1 - q) fails",
)


def _promise_violation(ps: np.ndarray, qs: np.ndarray, epsilon: float) -> tuple[int, str] | None:
    """(index, wording) of the first pair that breaks the promise, or None.

    The wording names that pair's first broken rule: the range (NaN breaks
    it), then q <= p, then the three exp(eps) closeness inequalities.
    """
    check_above("epsilon", epsilon)
    grow = math.exp(epsilon)
    rest_p, rest_q = 1.0 - ps, 1.0 - qs
    with np.errstate(invalid="ignore"):
        broken = np.array((
            ~((np.minimum(ps, qs) >= 0.0) & (np.maximum(ps, qs) <= 1.0)),
            qs > ps + _PROMISE_TOL,
            ps > grow * qs + _PROMISE_TOL,
            rest_q > grow * rest_p + _PROMISE_TOL,
            rest_p > grow * rest_q + _PROMISE_TOL,
        ))
    # Pair-major order: the first True is the first broken pair's first broken rule.
    first = int(broken.T.argmax())
    index, rule = divmod(first, len(_PROMISE_RULES))
    if not broken[rule, index]:
        return None
    return index, f"{_PROMISE_RULES[rule]}: p={float(ps[index])}, q={float(qs[index])}"


@dataclass(frozen=True)
class QueryPair:
    """One validated coin pair under the closeness promise at ``epsilon``."""

    p: float
    q: float
    epsilon: float

    def __post_init__(self):
        found = _promise_violation(np.array([self.p]), np.array([self.q]), self.epsilon)
        if found is not None:
            raise PromiseViolation(found[1])


@dataclass(frozen=True, eq=False)
class DeterministicAdversary:
    """A pre-committed schedule of query pairs, one per round.

    Round i flips a coin of chance ``ps[i]`` under bit 0 and ``qs[i]`` under
    bit 1.  Both are read-only float64 vectors, checked against the promise
    once, on construction; a broken pair is named by its 1-based position.
    """

    ps: np.ndarray
    qs: np.ndarray
    epsilon: float

    def __post_init__(self):
        ps = np.array(self.ps, dtype=np.float64)
        qs = np.array(self.qs, dtype=np.float64)
        if ps.ndim != 1 or ps.shape != qs.shape:
            raise ParameterError(
                f"ps and qs must be vectors of one length, got shapes {ps.shape}, {qs.shape}"
            )
        if not ps.size:
            raise ParameterError("schedule must contain at least one pair")
        found = _promise_violation(ps, qs, self.epsilon)
        if found is not None:
            raise PromiseViolation(f"pair {found[0] + 1}: {found[1]}")
        for name, values in (("ps", ps), ("qs", qs)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_factor_tables", {})

    @classmethod
    def from_probabilities(
        cls, pairs: Iterable[tuple[float, float]], epsilon: float
    ) -> "DeterministicAdversary":
        table = np.array([(p, q) for p, q in pairs], dtype=np.float64).reshape(-1, 2)
        return cls(table[:, 0], table[:, 1], epsilon)

    @functools.cached_property
    def pairs(self) -> tuple[QueryPair, ...]:
        """The schedule as ``QueryPair`` objects, built on first use."""
        return tuple(
            QueryPair(p, q, self.epsilon) for p, q in zip(self.ps.tolist(), self.qs.tolist())
        )

    def __len__(self) -> int:
        return self.ps.size

    def _factors(self, alpha: float | None) -> np.ndarray:
        """Read-only (2, n) factors of each round's one, then its zero.

        A factor is P (P/Q)^(alpha-1), or P/Q when alpha is None: 0 when P = 0,
        +inf when P > 0 = Q or the power overflows.  np.float_power calls the
        C library's pow, as Python's ** does; np.power may take a SIMD pow
        that differs in the last bit.  The oldest order's table goes first.
        """
        tables = self._factor_tables
        table = tables.get(alpha)
        if table is None:
            if len(tables) == _CACHED_ORDERS:
                del tables[next(iter(tables))]
            mass_p = np.array((self.ps, 1.0 - self.ps))
            mass_q = np.array((self.qs, 1.0 - self.qs))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                table = mass_p / mass_q
                if alpha is not None:
                    table = mass_p * np.float_power(table, alpha - 1.0)
            # Zero P gives 0, or NaN (0 / 0), which fmax reads as 0.
            np.fmax(table, 0.0, out=table)
            table.flags.writeable = False
            tables[alpha] = table
        return table


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
    factors = adversary._factors(alpha)[:, :cap]
    if k == 1:
        # The state's value before each round is the running product of the
        # earlier zero factors; the outcomes are that value times the round's
        # one factor (a halt there), then the survivor's.
        one, zero = factors
        with np.errstate(invalid="ignore", over="ignore"):
            values = np.cumprod(np.concatenate(([1.0], zero)))
            values[:-1] *= one
        # A NaN, from 0 * inf, marks an outcome the recurrence skips as zero-mass;
        # it spreads down the running product as its zero does; fmax reads 0.
        np.fmax(values, 0.0, out=values)
        # cumsum adds in round order, as the recurrence does; sum() would not.
        return float(values.max() if alpha is None else values.cumsum()[-1])
    # One count of ones at a time: ``column`` holds, before each round, the
    # value of the state with one fewer one.  A skipped product reads 0, which
    # leaves a nonnegative sum or max as it was: each fold is the recurrence's.
    add = alpha is not None
    ones, zeros = factors.tolist()
    column = [0.0] * (cap + 1)
    survivors = []
    for seen in range(k):
        value = 0.0 if seen else 1.0
        following = [value]
        for before, one, zero in zip(column, ones, zeros):
            arrived = before * one if before and one else 0.0
            stayed = value * zero if value and zero else 0.0
            # The max, inline: max() costs a call per round.
            value = arrived + stayed if add else arrived if arrived >= stayed else stayed
            following.append(value)
        column = following
        survivors.append(value)
    halts = [before * one for before, one in zip(column, ones) if before and one]
    return functools.reduce(operator.add if add else max, halts + survivors, 0.0)


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
    ps, qs = adversary.ps.tolist(), adversary.qs.tolist()
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
    grow = math.exp(epsilon)
    shrink = math.exp(-epsilon)
    # Column 0 is q's uniform and column 1 is p's: the order of one draw per
    # value, round by round.
    uniforms = stream.generator.random((length, 2))
    qs = _Q_LOW + (_Q_HIGH - _Q_LOW) * uniforms[:, 0]
    p_caps = np.minimum(grow * qs, 1.0 - (1.0 - qs) * shrink)
    ps = qs + (p_caps - qs) * uniforms[:, 1]
    return DeterministicAdversary(ps, qs, epsilon)
