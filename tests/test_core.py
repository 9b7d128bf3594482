import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import oracles
from conftest import CountingHypothesis, CountingMechanism, forced_state, make_dataset
from dpselect import core, svt
from dpselect.core import BOT, EMPTY, TOP, AccountantLedger, Hypothesis, Mechanism
from dpselect.errors import LedgerError, ParameterError
from dpselect.noise import RandomStream


def test_init_rejects_bad_gamma():
    for gamma in (0.0, -1.0):
        with pytest.raises(ParameterError):
            core.init(gamma, make_dataset(), RandomStream(0))


def test_init_starts_with_clean_ledger():
    state = core.init(1.0, make_dataset(), RandomStream(1))
    assert 0.0 <= state.p <= 1.0
    assert state.ledger.selection_calls == 0
    assert state.ledger.top_responses == 0
    assert state.ledger.delta_mass == 0.0
    assert state.ledger.base_epsilon is None


def test_gate_probability_follows_power_law():
    draws = np.array(
        [core.init(2.0, make_dataset(), RandomStream(i)).p for i in range(20_000)]
    )
    assert abs((draws <= 0.5).mean() - 0.25) < 0.015


def test_selection_with_certain_gate_returns_max():
    state = forced_state(p=1.0)
    mechanisms = [
        Mechanism(run=lambda d, s: 3.0, epsilon=0.1),
        Mechanism(run=lambda d, s: 7.0, epsilon=0.1),
        Mechanism(run=lambda d, s: 5.0, epsilon=0.1),
    ]
    assert state.selection(3, mechanisms) == 7.0
    assert state.ledger.selection_calls == 1


def test_selection_with_zero_gate_is_empty_but_still_charged():
    state = forced_state(p=0.0)
    counter = CountingMechanism(epsilon=0.1, delta=1e-4)
    result = state.selection(5, [counter.mechanism])
    assert result is EMPTY
    assert counter.calls == 0
    assert state.dataset.access_count == 0
    assert state.ledger.selection_calls == 1
    # delta accrues for the whole tau * sum(delta) envelope regardless of coins
    assert state.ledger.delta_mass == pytest.approx(5 * 1e-4)


def test_selection_validates_inputs():
    state = forced_state(p=0.5)
    mech = Mechanism(run=lambda d, s: 1.0, epsilon=0.1)
    with pytest.raises(ParameterError):
        state.selection(0, [mech])
    with pytest.raises(ParameterError):
        state.selection(2.5, [mech])
    with pytest.raises(ParameterError):
        state.selection(3, [])


def test_selection_rejects_mixed_epsilons():
    state = forced_state(p=0.5)
    with pytest.raises(LedgerError):
        state.selection(
            2,
            [
                Mechanism(run=lambda d, s: 1.0, epsilon=0.1),
                Mechanism(run=lambda d, s: 2.0, epsilon=0.2),
            ],
        )


def test_selection_run_counts_are_binomial():
    tau, p, trials = 50, 0.3, 2_000
    total = 0
    for i in range(trials):
        counter = CountingMechanism(epsilon=0.1)
        state = forced_state(p=p, seed=i)
        state.selection(tau, [counter.mechanism])
        assert 0 <= counter.calls <= tau
        total += counter.calls
    mean = total / trials
    sigma = math.sqrt(tau * p * (1 - p) / trials)
    assert abs(mean - tau * p) < 4 * sigma


def test_selection_memory_does_not_grow_with_tau():
    state = forced_state(p=0.0)
    counter = CountingMechanism(epsilon=0.1)
    tracemalloc.start()
    try:
        assert state.selection(10**6, [counter.mechanism]) is EMPTY
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_selection_hands_the_fired_count_to_batch():
    # On one seed, a batch body gets the count of runs the loop path makes
    # (no call when it is 0), and a run-only mechanism beside it is still
    # run once per fired coin.
    def batching(counts):
        def batch(dataset, run_stream, count):
            counts.append(count)
            return float(count)

        return Mechanism(run=lambda d, s: pytest.fail("run called"), epsilon=0.1, batch=batch)

    seen = set()
    for seed in range(60):
        looped = [CountingMechanism(epsilon=0.1) for _ in range(2)]
        forced_state(p=0.3, seed=seed).selection(3, [c.mechanism for c in looped])
        counts, beside = [], CountingMechanism(epsilon=0.1)
        best = forced_state(p=0.3, seed=seed).selection(3, [batching(counts), beside.mechanism])
        fired = looped[0].calls
        assert counts == ([fired] if fired else [])
        assert beside.calls == looped[1].calls
        assert best == (float(fired) if fired else 1.0 if beside.calls else EMPTY)
        seen.add(fired)
    assert seen == {0, 1, 2, 3}

    counts = []
    assert forced_state(p=0.0).selection(10**6, [batching(counts)]) is EMPTY
    assert counts == []


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("tau", [1, 5, 40, 1000])
def test_fired_count_pmf_sums_to_one_with_the_gate_mean(gamma, tau):
    pmf = oracles.fired_count_pmf(gamma, tau)
    assert pmf.shape == (tau + 1,) and pmf.min() > 0
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf @ np.arange(tau + 1) == pytest.approx(tau * gamma / (gamma + 1), rel=1e-10)
    if gamma == 1.0:
        np.testing.assert_allclose(pmf, 1.0 / (tau + 1), rtol=1e-12)


@pytest.mark.parametrize("gamma, seed", [(0.5, 1610), (1.0, 1611), (2.0, 1612)])
def test_package_fired_counts_follow_the_pmf(gamma, seed):
    # init draws p, selection draws the fired count of tau gated runs and
    # hands it to the batch body, which records it; no call means 0 fired.
    tau, trials = 6, 3_000
    counts = []

    def batch(dataset, stream, count):
        counts[-1] = count
        return 0.0

    mechanism = Mechanism(run=lambda d, s: pytest.fail("run called"), epsilon=0.1, batch=batch)
    root = RandomStream(seed)
    for trial in range(trials):
        counts.append(0)
        core.init(gamma, make_dataset(), root.split(trial)).selection(tau, [mechanism])
    observed = np.bincount(counts, minlength=tau + 1)
    expected = trials * oracles.fired_count_pmf(gamma, tau)
    assert expected.min() >= 5
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("tau", [1, 7, 50, 300])
def test_no_success_matches_quadrature(gamma, tau):
    # The gate density's p**(gamma - 1) is quad's algebraic weight, which
    # stays sound at the singular gamma < 1 and the steep large-tau cells; F
    # spans both sides of the series switch at (gamma + tau + 1) F = 1/2.
    switch = 0.5 / (gamma + tau + 1)
    for F in (1e-6, 0.98 * switch, 1.02 * switch, 0.01, 0.3, 0.5, 1.0):
        want = integrate.quad(
            lambda p: gamma * (1 - p * F) ** tau, 0, 1,
            weight="alg", wvar=(gamma - 1, 0), epsabs=0, epsrel=1e-13, limit=200,
        )[0]
        assert oracles.no_success(gamma, tau, F) == pytest.approx(want, rel=1e-10), F


def test_no_success_stays_finite_where_the_product_form_underflows():
    # The gamma = 1 gate at tau = ceil(20/delta), delta in {0.05, 0.01, 1e-3}:
    # the fallback cells whose one-run chance F was too small for a product
    # form.  The closed form (1 - (1 - F)**(tau+1)) / ((tau+1) F) holds there,
    # up to betaln's lgamma rounding on the product-form side of the switch.
    for tau in (400, 2_000, 20_000):
        for F in np.geomspace(1.0, 1e-12, 25).tolist() + [1e-30, 1e-300, 1e-310, 5e-324]:
            got = oracles.no_success(1.0, tau, F)
            b = tau + 1
            closed = -math.expm1(b * math.log1p(-F)) / (b * F) if F < 1 else 1 / b
            assert math.isfinite(got) and 0.0 < got <= 1.0, (tau, F, got)
            assert got == pytest.approx(closed, rel=1e-10), (tau, F)
        assert oracles.no_success(1.0, tau, 0.0) == 1.0


def test_oracles_built_on_no_success_keep_their_values():
    for alpha in (0.5, 1.0, 1.5, 3.0, 8.0):
        for tau in (1, 10, 300, 10**4, 10**7):
            b = tau + 1.0
            before = (alpha * 2.0**alpha * math.exp(special.betaln(alpha, b))
                      * special.betainc(alpha, b, 0.5))
            assert oracles.median_boost_failure(alpha, tau) == pytest.approx(before, abs=1e-12)
    for m in (1, 2, 5):
        for tau in (4, 40, 4_000, 40_000, 4 * 10**6, 4 * 10**9):
            want = 1 / (m * tau + 1)
            assert oracles.no_fire_probability(m, tau) == pytest.approx(want, abs=1e-12)


def test_selection_runs_every_mechanism_independently():
    state = forced_state(p=1.0)
    counters = [CountingMechanism(value=float(i), epsilon=0.1) for i in range(3)]
    state.selection(4, [c.mechanism for c in counters])
    assert [c.calls for c in counters] == [4, 4, 4]


def test_missed_test_never_touches_data():
    state = forced_state(p=0.0)
    hyp = CountingHypothesis(verdict=TOP, epsilon=0.1, delta=1e-3)
    for _ in range(100):
        assert state.test(hyp.hypothesis) is BOT
    assert hyp.calls == 0
    assert state.dataset.access_count == 0
    assert state.ledger.top_responses == 0
    assert state.ledger.delta_mass == 0.0
    # epsilon still gets pinned by the declaration
    assert state.ledger.base_epsilon == 0.1


def test_fired_test_charges_top_only_but_delta_always():
    state = forced_state(p=1.0)
    top = CountingHypothesis(verdict=TOP, epsilon=0.1, delta=1e-3)
    bot = CountingHypothesis(verdict=BOT, epsilon=0.1, delta=1e-3)
    assert state.test(top.hypothesis) is TOP
    assert state.test(bot.hypothesis) is BOT
    assert state.ledger.top_responses == 1
    # every evaluated hypothesis run accrues its delta, TOP or not
    assert state.ledger.delta_mass == pytest.approx(2e-3)
    assert top.calls == 1 and bot.calls == 1


def test_test_empirical_rate_matches_gate():
    state = forced_state(p=0.5, seed=9)
    hyp = Hypothesis(run=lambda d, s: TOP, epsilon=0.01)
    hits = sum(state.test(hyp) is TOP for _ in range(1_000_000))
    assert abs(hits / 1_000_000 - 0.5) < 0.002


def test_test_rejects_non_verdict():
    state = forced_state(p=1.0)
    bad = Hypothesis(run=lambda d, s: "TOP", epsilon=0.1)
    with pytest.raises(ParameterError):
        state.test(bad)


def test_ledger_pins_first_epsilon():
    ledger = AccountantLedger()
    ledger.register(0.2)
    ledger.register(0.2 + 1e-13)  # within matching tolerance
    with pytest.raises(LedgerError):
        ledger.register(0.3)
    with pytest.raises(ParameterError):
        ledger.register(-0.1)


def test_ledger_fast_path_admits_only_the_pinned_epsilon():
    # a refused first declaration leaves the ledger unpinned, so the next
    # one is still range-checked rather than compared against None
    ledger = AccountantLedger()
    for bad in (math.nan, -0.1, None):
        with pytest.raises(ParameterError):
            ledger.register(bad)
        assert ledger.base_epsilon is None
    ledger.register(0.2)
    ledger.register(0.2)
    assert ledger.base_epsilon == 0.2
    for bad, error in (
        (0.3, LedgerError), (math.nan, ParameterError), (-0.2, ParameterError),
        (None, ParameterError),
    ):
        with pytest.raises(error):
            ledger.register(bad)
    assert ledger.base_epsilon == 0.2


def analytic_hypothesis(rate, epsilon=0.1):
    return Hypothesis(run=lambda d, s: BOT, epsilon=epsilon, top_probability=lambda d: rate)


def test_certain_all_bot_batch_draws_nothing():
    # (1 - 1e-20)**1000 rounds to exactly 1.0: the batch passes without a draw
    for rate in (0.0, 1e-20):
        state = forced_state(p=1.0, seed=3)
        before = state.stream.generator.bit_generator.state
        assert state.test_batch(analytic_hypothesis(rate), 1000) is True
        assert state.stream.generator.bit_generator.state == before
        assert state.ledger.top_responses == 0
        assert state.ledger.base_epsilon == 0.1


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("p", [1e-9, 0.3, 1.0])
@pytest.mark.parametrize("tau", [1, 20, 5 * 500**2, 10**12])
def test_batches_within_the_certain_pass_mass_draw_nothing(tau, p, scale):
    # The SVT settles every shifted value up to its bound without a batch.
    # A real batch there, and one ulp past it, passes with no draw or charge.
    bound = svt._settle_bound(p, tau, scale)
    assert bound < 0.0
    for value in (bound, math.nextafter(bound, math.inf)):
        above = svt.above_hypothesis(lambda ds, v=value: v, 0.0, 1.0, scale)
        state = forced_state(p=p, seed=6)
        before = state.stream.generator.bit_generator.state
        assert state.test_batch(above, tau) is True
        assert state.stream.generator.bit_generator.state == before
        assert state.ledger.top_responses == 0


def test_uncertain_batch_draws_exactly_one_uniform():
    for rate in (1e-6, 0.3, 1.0):
        state = forced_state(p=1.0, seed=4)
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = state.stream.generator.bit_generator.state
        uniform = twin.random()
        all_bot = math.exp(10 * math.log1p(-rate)) if rate < 1 else 0.0
        passed = state.test_batch(analytic_hypothesis(rate), 10)
        assert state.stream.generator.bit_generator.state == twin.bit_generator.state
        assert passed is (uniform < all_bot)
        assert state.ledger.top_responses == (0 if passed else 1)


def test_analytic_pass_rate_matches_the_all_bot_law():
    # one stream, with a certain batch (no draw) before each uncertain one,
    # whose all-BOT chance is about 0.61
    state = forced_state(p=0.5, seed=5)
    rate, count, batches = 0.02, 50, 20_000
    certain, uncertain = analytic_hypothesis(0.0), analytic_hypothesis(rate)
    passed = 0
    for _ in range(batches):
        assert state.test_batch(certain, count)
        passed += state.test_batch(uncertain, count)
    expected = math.exp(count * math.log1p(-0.5 * rate))
    sigma = math.sqrt(expected * (1 - expected) / batches)
    assert abs(passed / batches - expected) < 5 * sigma
    assert state.ledger.top_responses == batches - passed


def test_test_batch_matches_sequential_semantics():
    # without a declared TOP probability the batch is literally a loop
    state = forced_state(p=1.0)
    hyp = CountingHypothesis(verdict=BOT, epsilon=0.1)
    assert state.test_batch(hyp.hypothesis, 7) is True
    assert hyp.calls == 7
    top = CountingHypothesis(verdict=TOP, epsilon=0.1)
    assert state.test_batch(top.hypothesis, 7) is False
    assert top.calls == 1  # stops at the first TOP
    assert state.ledger.top_responses == 1


def test_test_batch_analytic_agrees_with_loop():
    # declared TOP probability: one uniform resolves the whole stretch
    def make_hyp(rate):
        return Hypothesis(
            run=lambda d, s: TOP if s.generator.random() < rate else BOT,
            epsilon=0.05,
            top_probability=lambda d: rate,
        )

    rate, count, sessions = 0.002, 400, 4_000
    analytic = sum(
        forced_state(p=0.8, seed=i).test_batch(make_hyp(rate), count)
        for i in range(sessions)
    )
    plain = 0
    for i in range(sessions):
        state = forced_state(p=0.8, seed=10_000 + i)
        hyp = Hypothesis(
            run=lambda d, s: TOP if s.generator.random() < rate else BOT, epsilon=0.05
        )
        plain += state.test_batch(hyp, count)
    expected = (1 - 0.8 * rate) ** count
    sigma = math.sqrt(expected * (1 - expected) / sessions)
    assert abs(analytic / sessions - expected) < 4 * sigma
    assert abs(plain / sessions - expected) < 4 * sigma


def test_test_batch_analytic_requires_pure_dp():
    hyp = Hypothesis(
        run=lambda d, s: BOT,
        epsilon=0.1,
        delta=1e-6,
        top_probability=lambda d: 0.0,
    )
    with pytest.raises(ParameterError):
        forced_state(p=0.5).test_batch(hyp, 10)


def test_test_batch_rejects_bad_probability():
    hyp = Hypothesis(
        run=lambda d, s: BOT, epsilon=0.1, top_probability=lambda d: 1.5
    )
    with pytest.raises(ParameterError):
        forced_state(p=1.0).test_batch(hyp, 10)


def test_pure_cost_examples():
    ledger = AccountantLedger()
    ledger.register(0.1)
    ledger.selection_calls = 1
    assert core.pure_dp_cost(ledger, 1.0).epsilon == pytest.approx(0.3)

    ledger = AccountantLedger()
    ledger.register(0.2)
    ledger.selection_calls = 2
    ledger.top_responses = 3
    assert core.pure_dp_cost(ledger, 0.5).epsilon == pytest.approx(2.1)

    empty = AccountantLedger()
    empty.register(0.2)
    assert core.pure_dp_cost(empty, 1.5).epsilon == pytest.approx(0.3)


@given(
    c1=st.integers(0, 50),
    c2=st.integers(0, 50),
    gamma=st.floats(0.1, 5.0),
    eps=st.floats(0.001, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_pure_cost_formula(c1, c2, gamma, eps):
    ledger = AccountantLedger()
    ledger.register(eps)
    ledger.selection_calls = c1
    ledger.top_responses = c2
    cost = core.pure_dp_cost(ledger, gamma)
    assert cost.epsilon == pytest.approx((2 * c1 + 2 * c2 + gamma) * eps, rel=1e-12)


def test_approx_cost_worked_example():
    ledger = AccountantLedger()
    ledger.register(0.01)
    ledger.top_responses = 25
    cost = core.approx_dp_cost(ledger, 1.0, 1e-6)
    assert cost.epsilon == pytest.approx(oracles.APPROX_EXAMPLE_GRID, abs=1e-3)
    assert cost.epsilon <= oracles.approx_cost_grid(0, 25, 0.01, 1.0, 1e-6) + 1e-6
    assert cost.delta == pytest.approx(1e-6)


def test_approx_cost_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        c1 = int(rng.integers(0, 4))
        c2 = int(rng.integers(1, 200))
        eps = float(rng.uniform(0.01, 0.5))
        delta = float(10.0 ** rng.uniform(-9, -2))
        gamma = float(rng.uniform(0.2, 3.0))
        ledger = AccountantLedger()
        ledger.register(eps)
        ledger.selection_calls = c1
        ledger.top_responses = c2
        got = core.approx_dp_cost(ledger, gamma, delta).epsilon
        want = oracles.approx_cost_grid(c1, c2, eps, gamma, delta)
        assert got == pytest.approx(want, abs=1e-3)
        assert got <= want + 1e-6


def test_approx_cost_degenerates_without_tops():
    ledger = AccountantLedger()
    ledger.register(0.3)
    ledger.selection_calls = 2
    pure = core.pure_dp_cost(ledger, 1.0)
    approx = core.approx_dp_cost(ledger, 1.0, 1e-6)
    assert approx == pure


def test_approx_cost_at_zero_epsilon_charges_only_delta():
    ledger = AccountantLedger(top_responses=4, delta_mass=1e-7)
    ledger.register(0.0)
    ledger.selection_calls = 2
    assert core.approx_dp_cost(ledger, 1.5, 1e-6) == core.PrivacyCost(0.0, 1e-6 + 1e-7)


def test_approx_cost_validates_delta():
    ledger = AccountantLedger()
    ledger.register(0.1)
    ledger.top_responses = 1
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ParameterError):
            core.approx_dp_cost(ledger, 1.0, bad)


def test_pure_and_approx_cross_where_expected():
    # equal budgets when 2 c2 eps = 12 c2 eps^2 + 4 sqrt(3 c2 L) eps
    eps, delta = 0.05, 1e-6
    crossing = 12.0 * math.log(1.0 / delta) / (1.0 - 6.0 * eps) ** 2

    def costs(c2):
        ledger = AccountantLedger()
        ledger.register(eps)
        ledger.top_responses = c2
        return (
            core.pure_dp_cost(ledger, 1.0).epsilon,
            core.approx_dp_cost(ledger, 1.0, delta).epsilon,
        )

    below_pure, below_approx = costs(int(crossing) - 20)
    above_pure, above_approx = costs(int(crossing) + 21)
    assert below_pure < below_approx
    assert above_pure > above_approx
    at_pure, at_approx = costs(round(crossing))
    assert abs(at_pure - at_approx) / at_pure < 0.01


def test_state_cost_accessors_match_module_functions():
    state = forced_state(gamma=0.7, p=1.0)
    hyp = Hypothesis(run=lambda d, s: TOP, epsilon=0.05)
    state.test(hyp)
    state.test(hyp)
    assert state.pure_cost() == core.pure_dp_cost(state.ledger, 0.7)
    assert state.approx_cost(1e-6) == core.approx_dp_cost(state.ledger, 0.7, 1e-6)


def test_interleaved_protocol_accounts_exactly():
    state = forced_state(gamma=2.0, p=1.0)
    mech = Mechanism(run=lambda d, s: 1.0, epsilon=0.1, delta=1e-5)
    hyp_top = Hypothesis(run=lambda d, s: TOP, epsilon=0.1, delta=2e-5)
    hyp_bot = Hypothesis(run=lambda d, s: BOT, epsilon=0.1)
    state.selection(3, [mech])
    state.test(hyp_top)
    state.test(hyp_bot)
    state.selection(2, [mech])
    cost = state.pure_cost()
    assert cost.epsilon == pytest.approx((2 * 2 + 2 * 1 + 2.0) * 0.1)
    assert cost.delta == pytest.approx(3 * 1e-5 + 2e-5 + 2 * 1e-5)


@given(seed=st.integers(0, 10_000), tau=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_selection_output_is_a_mechanism_value_or_empty(seed, tau):
    state = core.init(1.0, make_dataset(), RandomStream(seed))
    values = [1.0, 4.0, 2.5]
    mechs = [Mechanism(run=lambda d, s, v=v: v, epsilon=0.1) for v in values]
    result = state.selection(tau, mechs)
    assert result is EMPTY or result in values
