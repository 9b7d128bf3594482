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
uniforms in one draw.  A schedule computes its P/Q ratio table once and
folds the recurrence once for each of its last ``_CACHED_ORDERS`` orders
(``_Fold``); every (k, cap) is read from that fold.  No transcript of cap
rounds sees more than cap ones, so every k > cap + 1 reads the k = cap + 1
value.  Each float operation is the round-by-round recurrence's own, in its
order, so the doubles are the same.

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


def _grown(values: np.ndarray, epsilon: float) -> np.ndarray:
    """exp(epsilon) * values, read through logs once exp(epsilon) overflows.

    Past the largest double a zero value still gives 0, so a (p > 0, q = 0)
    pair breaks the promise at every epsilon.
    """
    try:
        grow = math.exp(epsilon)
    except OverflowError:
        grow = math.inf
    if grow < math.inf:
        return grow * values
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(values > 0.0, np.exp(epsilon + np.log(values)), 0.0)


def _promise_violation(ps: np.ndarray, qs: np.ndarray, epsilon: float) -> tuple[int, str] | None:
    """(index, wording) of the first pair that breaks the promise, or None.

    The wording names that pair's first broken rule: the range (NaN breaks
    it), then q <= p, then the three exp(eps) closeness inequalities.
    """
    check_above("epsilon", epsilon)
    rest_p, rest_q = 1.0 - ps, 1.0 - qs
    rules = (
        ~((np.minimum(ps, qs) >= 0.0) & (np.maximum(ps, qs) <= 1.0)),
        qs > ps + _PROMISE_TOL,
        ps > _grown(qs, epsilon) + _PROMISE_TOL,
        rest_q > _grown(rest_p, epsilon) + _PROMISE_TOL,
        rest_p > _grown(rest_q, epsilon) + _PROMISE_TOL,
    )
    if not any(rule.any() for rule in rules):
        return None
    # Pair-major order: the first True is the first broken pair's first broken rule.
    index, rule = divmod(int(np.array(rules).T.argmax()), len(_PROMISE_RULES))
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
        object.__setattr__(self, "_folds", {})

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

    @functools.cached_property
    def _ratios(self) -> np.ndarray:
        """Read-only (2, n) P/Q ratios of each round's one, then its zero.

        A ratio is 0 when P = 0 (fmax reads the 0 / 0 NaN as 0) and +inf when
        P > 0 = Q.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.array((self.ps, 1.0 - self.ps)) / np.array((self.qs, 1.0 - self.qs))
        np.fmax(ratios, 0.0, out=ratios)
        ratios.flags.writeable = False
        return ratios

    def _fold(self, alpha: float | None) -> "_Fold":
        """The fold of order alpha, or of the max ratio when alpha is None.

        The schedule keeps its last ``_CACHED_ORDERS`` orders' folds; the
        oldest order's fold goes first.
        """
        folds = self._folds
        fold = folds.get(alpha)
        if fold is None:
            if len(folds) == _CACHED_ORDERS:
                del folds[next(iter(folds))]
            fold = folds[alpha] = _Fold(self, alpha)
        return fold


class _Fold:
    """One order's recurrence over (round, ones seen) on one schedule.

    A transcript's value, P (P/Q)^(alpha-1) or P/Q, is the product of its
    rounds' factors, so the recurrence carries the sum (``add``) or max per
    state; a state absorbs at its k-th one or at round ``cap``.  Outcomes of
    zero P mass contribute nothing, and a positive-P, zero-Q outcome makes
    the result +inf.

    At k = 1 one state is live, so array code covers the whole schedule:
    ``survivors[i]``, the running product of the zero factors, is the value
    of the state with no one after i rounds, and ``running[i]`` folds the
    halting values of rounds 0..i in order.  Both are sequential, so their
    prefixes are every cap's values bit for bit.  For k > 1 the fold keeps
    the latest ``cap``'s state: ``ones`` and ``zeros`` (the table's floats
    before it), the last grown count of ones' halting value at each round
    (``column``), each count's survivor at the cap (``tails``) and each k's
    value (``results``), so a sweep over k grows each count once.
    """

    __slots__ = ("add", "table", "survivors", "running", "cap", "ones", "zeros", "column",
                 "tails", "results")

    def __init__(self, adversary: DeterministicAdversary, alpha: float | None):
        """The read-only factor table (each round's one factor, then its zero) and k = 1 arrays.

        A factor is P (P/Q)^(alpha-1), or P/Q: 0 when P = 0, +inf when
        P > 0 = Q or the power overflows.  np.float_power calls the C
        library's pow, as Python's ** does; np.power may take a SIMD pow that
        differs in the last bit.
        """
        self.add = alpha is not None
        table = adversary._ratios
        size = len(adversary)
        prefixes = np.empty(2 * size + 1)
        survivors, halts = prefixes[:size + 1], prefixes[size + 1:]
        with np.errstate(invalid="ignore", over="ignore"):
            if alpha is not None:
                ps = adversary.ps
                table = np.array((ps, 1.0 - ps)) * np.float_power(table, alpha - 1.0)
                table.flags.writeable = False
            # A state's value before each round is the running product of the
            # earlier zero factors; a halt there is that value times the
            # round's one factor.
            survivors[0] = 1.0
            np.cumprod(table[1], out=survivors[1:])
            np.multiply(survivors[:-1], table[0], out=halts)
        # A NaN, from 0 * inf, marks an outcome the recurrence skips as zero-mass;
        # it spreads down the running product as its zero does; fmax reads 0.
        np.fmax(prefixes, 0.0, out=prefixes)
        # The accumulation adds in round order, as the recurrence does; sum() would not.
        (np.add if self.add else np.maximum).accumulate(halts, out=halts)
        self.table, self.survivors, self.running = table, survivors, halts
        self.cap = None

    def value(self, k: int, cap: int) -> float:
        """The sum (or max) over the transcripts of the k-success game truncated at cap."""
        if k == 1:
            before, survivor = self.running[cap - 1], self.survivors[cap]
            return float(before + survivor if self.add else max(before, survivor))
        if cap != self.cap:
            self._restart(cap)
        # No transcript of cap rounds sees more than cap ones: past k = cap + 1
        # the extra survivors are 0 and the last column never halts.
        k = min(k, cap + 1)
        while len(self.results) < k:
            self._grow()
        return self.results[k - 1]

    def _restart(self, cap: int) -> None:
        """The state at ``cap`` with the no-ones count grown, read from the k = 1 arrays."""
        self.cap = cap
        self.ones, self.zeros = self.table[:, :cap].tolist()
        # The no-ones column: that state's value before each round times the
        # round's one factor, formed only from nonzero operands, as _grow does.
        self.column = [
            before * one if before and one else 0.0
            for before, one in zip(self.survivors[:cap].tolist(), self.ones)
        ]
        self.tails = [float(self.survivors[cap])]
        self.results = [self.value(1, cap)]

    def _grow(self) -> None:
        """Grow the next count of ones: its halting column, its survivor, its k's value.

        What arrives at this count each round is the last column's halting
        value.  A skipped product reads 0, which leaves a nonnegative sum or
        max as it was: each fold is the recurrence's.
        """
        add = self.add
        value = 0.0
        column = []
        for arrived, one, zero in zip(self.column, self.ones, self.zeros):
            column.append(value * one if value and one else 0.0)
            stayed = value * zero if value and zero else 0.0
            # The max, inline: max() costs a call per round.
            value = arrived + stayed if add else arrived if arrived >= stayed else stayed
        self.column = column
        self.tails.append(value)
        fold = operator.add if add else max
        self.results.append(functools.reduce(fold, self.tails, functools.reduce(fold, column, 0.0)))


def exact_renyi(adversary: DeterministicAdversary, alpha: float) -> float:
    """E-value of the order-alpha divergence of the truncated k = 1 game.

    Returns sum_i P_i (P_i / Q_i)^(alpha-1) plus the matching tail term,
    i.e. exp((alpha - 1) * D_alpha(P || Q)).  A zero-q outcome with positive
    p mass makes the divergence infinite and is reported as +inf.
    """
    check_above("alpha", alpha, 1.0)
    return adversary._fold(alpha).value(1, len(adversary))


def exact_max_divergence(adversary: DeterministicAdversary) -> float:
    """Max divergence ln sup_x P(x)/Q(x) of the truncated k = 1 game."""
    best = adversary._fold(None).value(1, len(adversary))
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
    return adversary._fold(alpha).value(k, cap)


def transcript_max_log_ratio(
    adversary: DeterministicAdversary, k: int, cap: int
) -> float:
    """Max divergence over full truncated transcripts of the k-success game."""
    check_count("k", k)
    check_count("cap", cap, most=len(adversary))
    best = adversary._fold(None).value(k, cap)
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
    check_above("epsilon", epsilon)
    shrink = math.exp(-epsilon)
    # Column 0 is q's uniform and column 1 is p's: the order of one draw per
    # value, round by round.
    uniforms = stream.generator.random((length, 2))
    qs = _Q_LOW + (_Q_HIGH - _Q_LOW) * uniforms[:, 0]
    p_caps = np.minimum(_grown(qs, epsilon), 1.0 - (1.0 - qs) * shrink)
    ps = qs + (p_caps - qs) * uniforms[:, 1]
    return DeterministicAdversary(ps, qs, epsilon)
