"""Gated selection and testing over a shared pass probability, with accounting.

A framework state draws one gate probability p (CDF x**gamma) at creation
and then mediates all dataset access through two primitives:

* ``selection(tau, mechanisms)`` runs each mechanism up to tau times, each
  run gated by an independent Ber(p) coin, and returns the largest output
  collected, or EMPTY when no coin fired.
* ``test(hypothesis)`` gates a binary TOP/BOT hypothesis behind one Ber(p)
  coin and returns BOT without touching the dataset when the coin misses.

The ledger records one charged unit per selection call and per TOP response;
``pure_dp_cost`` and ``approx_dp_cost`` turn the counters into budgets.  All
mechanisms and hypotheses fed to one state must declare the same epsilon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

from .errors import LedgerError, ParameterError, check_above, check_count, check_unit_interval
from .noise import RandomStream, sample_pass_probability

_EPSILON_MATCH_TOL = 1e-12


class Verdict(enum.Enum):
    """The two answers a gated hypothesis can give."""

    TOP = "TOP"
    BOT = "BOT"


TOP = Verdict.TOP
BOT = Verdict.BOT


class _EmptySelection:
    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY"


#: Sentinel returned by ``selection`` when no gated run fired.
EMPTY = _EmptySelection()


class Dataset:
    """A finite multiset of records with an instrumented access counter.

    Mechanism and hypothesis bodies read records through ``fetch``, which
    counts accesses; tests rely on the counter to confirm that gated-out
    evaluations never touch the data.
    """

    def __init__(self, records):
        self.records = records
        self.access_count = 0

    def fetch(self, accesses: int = 1):
        self.access_count += accesses
        return self.records


@dataclass(frozen=True)
class Mechanism:
    """A randomized map from dataset to an ordered output value.

    ``run`` receives the dataset and a stream; ``epsilon``/``delta`` are the
    declared privacy parameters of one run.  ``batch``, when given, gets the
    dataset, the stream and a count of at least 1, and must return an output
    with the law of the best (by ``>``) of ``count`` independent runs of
    ``run``, in memory that does not grow with ``count``; ``selection`` then
    calls it once with the fired count instead.  The framework never
    inspects either body, only the declaration.
    """

    run: Callable[[Dataset, RandomStream], Any]
    epsilon: float
    delta: float = 0.0
    batch: Callable[[Dataset, RandomStream, int], Any] | None = None

    def __post_init__(self):
        check_above("delta", self.delta, inclusive=True)


@dataclass(frozen=True)
class Hypothesis:
    """A randomized map from dataset to a TOP/BOT verdict.

    ``top_probability``, when provided, must return the exact probability
    that one evaluation of ``run`` on this dataset answers TOP.  Batch
    helpers use it to resolve long all-BOT stretches without evaluating the
    body once per coin; it is the hypothesis author's own declaration, the
    framework still never introspects the body.
    """

    run: Callable[[Dataset, RandomStream], Verdict]
    epsilon: float
    delta: float = 0.0
    top_probability: Callable[[Dataset], float] | None = None

    def __post_init__(self):
        check_above("delta", self.delta, inclusive=True)


class PrivacyCost(NamedTuple):
    epsilon: float
    delta: float


@dataclass
class AccountantLedger:
    """Charged-event counters for one framework state.

    ``base_epsilon`` is pinned by the first mechanism or hypothesis seen;
    anything declaring a different epsilon is rejected, because the cost
    formulas assume a single per-access epsilon.

    An ungated eps-DP release (the Laplace releases of an MWU session) is
    charged as one ``top_responses`` unit.  That unit dominates it in both
    forms the ledger uses: the pure charge 2*eps is at least eps, and the
    Renyi charge 12*a*eps**2 is at least the a*eps**2/2 that eps-DP implies.
    The TOP unit also composes at the sqrt rate: with k' SVT charges and k'
    releases at the ``mwu-adaptive`` operating point, approx_cost(1e-6)
    reads 11.6 against 13.5 at the linear selection rate.
    """

    base_epsilon: float | None = None
    selection_calls: int = 0
    top_responses: int = 0
    delta_mass: float = 0.0

    def register(self, epsilon: float) -> None:
        # A pinned ledger lets its own epsilon straight through; NaN never
        # compares equal, so it still meets the range check below.
        if self.base_epsilon is not None and epsilon == self.base_epsilon:
            return
        check_above("declared epsilon", epsilon, inclusive=True)
        if self.base_epsilon is None:
            self.base_epsilon = float(epsilon)
        elif abs(epsilon - self.base_epsilon) > _EPSILON_MATCH_TOL:
            raise LedgerError(
                f"mixed epsilons: ledger is pinned to {self.base_epsilon}, got {epsilon}"
            )


def pure_dp_cost(ledger: AccountantLedger, gamma: float) -> PrivacyCost:
    """Pure budget (2*c1 + 2*c2 + gamma) * eps, paired with accrued delta."""
    eps = ledger.base_epsilon or 0.0
    total = (2 * ledger.selection_calls + 2 * ledger.top_responses + gamma) * eps
    return PrivacyCost(total, ledger.delta_mass)


def approx_dp_cost(
    ledger: AccountantLedger, gamma: float, delta_target: float
) -> PrivacyCost:
    """Approximate budget that composes TOP charges at the sqrt rate.

    Minimises 12*c2*a*eps**2 + ln(1/delta)/(a - 1) over orders a > 1 (the
    minimiser is a* = 1 + sqrt(ln(1/delta) / (12*c2*eps**2))) and adds
    gamma*eps plus 2*eps per selection call.  With no TOP charges the pure
    budget is already optimal and is returned unchanged.
    """
    check_unit_interval("delta_target", delta_target)
    c2 = ledger.top_responses
    if c2 == 0:
        return pure_dp_cost(ledger, gamma)
    eps = ledger.base_epsilon or 0.0
    log_term = math.log(1.0 / delta_target)
    total = (
        2 * ledger.selection_calls * eps
        + gamma * eps
        + 12 * c2 * eps * eps
        + 4 * math.sqrt(3 * c2 * log_term) * eps
    )
    return PrivacyCost(total, delta_target + ledger.delta_mass)


#: A pure-DP analytic batch whose total gate rate count * rho is at most
#: this mass passes with certainty and draws nothing; see ``test_batch``.
_CERTAIN_PASS_MASS = 2.0**-62


@dataclass
class FrameworkState:
    """One sampled gate probability plus everything charged against it.

    Calls are strictly sequential; a state is single-threaded and all its
    randomness comes from the one stream it was created with.  Constructing
    a state directly (rather than through ``init``) fixes p by hand, which
    tests use to force degenerate gates.
    """

    gamma: float
    p: float
    dataset: Dataset
    stream: RandomStream
    ledger: AccountantLedger = field(default_factory=AccountantLedger)

    def selection(self, tau: int, mechanisms: Sequence[Mechanism]):
        """Run each mechanism tau gated times; return the best output or EMPTY.

        Charges one selection unit and tau * sum(delta_i) regardless of how
        many coins fired.  Outputs are compared with ``>``, so mechanism
        outputs must share a total order.
        """
        check_count("tau", tau)
        if not mechanisms:
            raise ParameterError("selection needs at least one mechanism")
        for mechanism in mechanisms:
            self.ledger.register(mechanism.epsilon)
        generator = self.stream.generator
        best = None
        for mechanism in mechanisms:
            fired = int(generator.binomial(tau, self.p))  # how many of tau Ber(p) coins fire
            if mechanism.batch is not None and fired:
                value = mechanism.batch(self.dataset, self.stream, fired)
                best = value if best is None or value > best else best
                continue
            for _ in range(fired):
                value = mechanism.run(self.dataset, self.stream)
                if best is None or value > best:
                    best = value
        self.ledger.selection_calls += 1
        self.ledger.delta_mass += tau * sum(m.delta for m in mechanisms)
        return EMPTY if best is None else best

    def test(self, hypothesis: Hypothesis) -> Verdict:
        """Gate one hypothesis evaluation behind a Ber(p) coin.

        A missed coin returns BOT with zero dataset accesses and zero
        charge.  A fired coin evaluates the body (accruing its delta) and
        charges one unit only when the answer is TOP.
        """
        self.ledger.register(hypothesis.epsilon)
        if self.stream.generator.random() >= self.p:
            return BOT
        self.ledger.delta_mass += hypothesis.delta
        verdict = hypothesis.run(self.dataset, self.stream)
        if not isinstance(verdict, Verdict):
            raise ParameterError(f"hypothesis returned {verdict!r}, not a Verdict")
        if verdict is TOP:
            self.ledger.top_responses += 1
        return verdict

    def test_batch(self, hypothesis: Hypothesis, count: int) -> bool:
        """Run up to ``count`` tests, stopping at the first TOP.

        Returns True when every test answered BOT.  Distribution, charging,
        and halting match a sequential loop over ``test`` that breaks on
        TOP.  When the hypothesis declares its exact TOP probability (and
        is pure-DP), the whole stretch is resolved from at most one uniform
        draw: the all-BOT probability (1 - rho)**count is computed first,
        and a uniform is drawn only when it is below 1.0.  At exactly 1.0
        the draw could only answer "pass", so skipping it keeps the law and
        leaves the stream where it was.  Otherwise the loop runs call by
        call.

        The all-BOT probability is exactly 1.0 whenever
        count * rho <= _CERTAIN_PASS_MASS (2**-62): exp(-count*rho) first
        rounds below 1.0 near 2**-54, 256 times further out, which leaves
        room for the rounding of rho and of log1p.  Callers that know this
        holds may settle the batch themselves, provided they also register
        the hypothesis's epsilon.
        """
        check_count("count", count)
        if hypothesis.top_probability is None:
            for _ in range(count):
                if self.test(hypothesis) is TOP:
                    return False
            return True
        if hypothesis.delta != 0.0:
            raise ParameterError(
                "analytic batching needs a pure-DP hypothesis (delta accrual is per evaluation)"
            )
        self.ledger.register(hypothesis.epsilon)
        rho = self.p * float(hypothesis.top_probability(self.dataset))
        if not 0.0 <= rho <= 1.0:
            raise ParameterError(f"declared TOP probability gave gate rate {rho}")
        all_bot = math.exp(count * math.log1p(-rho)) if rho < 1.0 else 0.0
        passed = all_bot == 1.0 or self.stream.generator.random() < all_bot
        if not passed:
            self.ledger.top_responses += 1
        return passed

    def pure_cost(self) -> PrivacyCost:
        return pure_dp_cost(self.ledger, self.gamma)

    def approx_cost(self, delta_target: float) -> PrivacyCost:
        return approx_dp_cost(self.ledger, self.gamma, delta_target)


def init(gamma: float, dataset: Dataset, stream: RandomStream) -> FrameworkState:
    """Draw the gate probability once and wrap it in a fresh state."""
    p = sample_pass_probability(stream, gamma)
    return FrameworkState(gamma=float(gamma), p=p, dataset=dataset, stream=stream)
