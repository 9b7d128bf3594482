"""Reference values the benchmark checks dpselect's outputs against.

Nothing here imports dpselect: each routine is derived from the paper's
definitions, so a fault in the package cannot hide behind the same fault in
its checker.
"""

from __future__ import annotations

import math


class CheckFailed(Exception):
    """An op's output disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(actual: float, expected: float, rel: float, what: str) -> None:
    require(
        math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0),
        f"{what}: got {actual!r}, expected {expected!r} (rel {rel})",
    )


def transcript_e_value(ps, qs, k: int, cap: int, alpha: float) -> float:
    """sum over truncated k-success transcripts of P^alpha * Q^(1 - alpha).

    Forward recurrence over (round, ones seen).  A transcript's mass factors
    over its rounds, so the sum is carried per state as the product of the
    per-round factors p^a q^(1-a) (a one) and (1-p)^a (1-q)^(1-a) (a zero).
    A state absorbs when its k-th one lands or when round ``cap`` ends.
    """
    alive = [1.0] + [0.0] * (k - 1)
    absorbed = 0.0
    for p, q in zip(ps[:cap], qs[:cap]):
        one = p**alpha * q ** (1.0 - alpha)
        zero = (1.0 - p) ** alpha * (1.0 - q) ** (1.0 - alpha)
        nxt = [0.0] * k
        for ones, mass in enumerate(alive):
            nxt[ones] += mass * zero
            if ones + 1 == k:
                absorbed += mass * one
            else:
                nxt[ones + 1] += mass * one
        alive = nxt
    return absorbed + sum(alive)


def transcript_max_log_ratio(ps, qs, k: int, cap: int) -> float:
    """max over the same transcripts of ln P/Q, by the max-plus recurrence."""
    alive = [0.0] + [-math.inf] * (k - 1)
    best = -math.inf
    for p, q in zip(ps[:cap], qs[:cap]):
        one = math.log(p / q)
        zero = math.log((1.0 - p) / (1.0 - q))
        nxt = [-math.inf] * k
        for ones, ratio in enumerate(alive):
            nxt[ones] = max(nxt[ones], ratio + zero)
            if ones + 1 == k:
                best = max(best, ratio + one)
            else:
                nxt[ones + 1] = max(nxt[ones + 1], ratio + one)
        alive = nxt
    return max(best, max(alive))


def empty_rate(gamma: float, tau: int) -> float:
    """Pr[no coin of tau fires] when p has CDF x**gamma: gamma * B(gamma, tau + 1)."""
    return math.exp(
        math.log(gamma) + math.lgamma(gamma) + math.lgamma(tau + 1) - math.lgamma(gamma + tau + 1)
    )


def binomial_upper_quantile(n: int, p: float, tail: float) -> int:
    """Smallest c with Pr[Binomial(n, p) > c] <= tail, the upper tail summed from the top."""
    upper = 0.0
    for c in range(n, -1, -1):
        if upper > tail:
            return c + 1
        upper += math.exp(
            math.lgamma(n + 1) - math.lgamma(c + 1) - math.lgamma(n - c + 1)
            + c * math.log(p) + (n - c) * math.log1p(-p)
        )
    return 0
