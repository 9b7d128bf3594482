import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from dpselect.coingame import (
    DeterministicAdversary,
    QueryPair,
    enumerate_transcripts,
    exact_max_divergence,
    exact_renyi,
    random_valid_schedule,
    transcript_max_log_ratio,
    transcript_renyi,
)
from dpselect.errors import ParameterError, PromiseViolation
from dpselect.noise import RandomStream


def adversary(pairs, epsilon):
    return DeterministicAdversary.from_probabilities(pairs, epsilon)


def test_pair_accepts_promise_respecting_values():
    pair = QueryPair(0.5, 0.45, 0.2)
    assert (pair.p, pair.q) == (0.5, 0.45)


# The fourth promise inequality (1 - p) <= exp(eps) * (1 - q) is implied by
# q <= p, so only three messages are reachable through valid-range inputs.
@pytest.mark.parametrize(
    "p,q,fragment",
    [
        (0.4, 0.5, "q <= p"),
        (0.9, 0.2, "p <= exp(eps) * q"),
        (0.95, 0.9, "(1 - q) <= exp(eps) * (1 - p)"),
    ],
)
def test_pair_names_each_violated_inequality(p, q, fragment):
    with pytest.raises(PromiseViolation) as info:
        QueryPair(p, q, 0.1)
    assert fragment in str(info.value)


def test_pair_rejects_probabilities_outside_unit_interval():
    with pytest.raises(PromiseViolation):
        QueryPair(1.2, 0.5, 0.1)
    with pytest.raises(PromiseViolation):
        QueryPair(0.5, -0.1, 0.1)


def test_game_certain_coin_halts_immediately():
    transcript = oracles.run_coin_game(0, 0.1, 1, [(1.0, 1.0)], np.random.default_rng(0))
    assert transcript == [1]


def test_game_aborts_on_violating_pair():
    with pytest.raises(ValueError, match="promise"):
        oracles.run_coin_game(0, 0.1, 1, [(0.5, 0.45), (0.9, 0.2)], np.random.default_rng(0))


def test_game_halting_round_is_geometric():
    # constant fair coin: halting round is Geometric(1/2) truncated at 12
    pairs = [(0.5, 0.5)] * 12
    rounds = np.array(
        [
            len(oracles.run_coin_game(0, 0.1, 1, pairs, np.random.default_rng(i)))
            for i in range(20_000)
        ]
    )
    observed = np.bincount(rounds, minlength=13)[1:]
    expected = np.array([20_000 * 0.5**r for r in range(1, 12)] + [20_000 * 0.5**11])
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_game_bits_agree_when_p_equals_q():
    pairs = [(0.3, 0.3)] * 6

    def rounds(b, seed):
        return len(oracles.run_coin_game(b, 0.1, 1, pairs, np.random.default_rng(seed)))

    zeros = [rounds(0, i) for i in range(4_000)]
    ones = [rounds(1, 10_000 + i) for i in range(4_000)]
    assert stats.ks_2samp(zeros, ones).pvalue > 1e-3


def test_game_k_successes_stops_at_kth_one():
    transcript = oracles.run_coin_game(0, 0.1, 2, [(1.0, 1.0)] * 5, np.random.default_rng(0))
    assert transcript == [1, 1]


def test_exact_renyi_halting_hand_example():
    # halting laws: P = (0.5, 0.25 | tail 0.25), Q = (0.4, 0.24 | tail 0.36)
    adv = adversary([(0.5, 0.4), (0.5, 0.4)], 0.3)
    probs_p, probs_q = [0.5, 0.25, 0.25], [0.4, 0.24, 0.36]
    want = sum(a * a / b for a, b in zip(probs_p, probs_q))
    assert exact_renyi(adv, 2.0) == pytest.approx(want, abs=1e-12)
    assert exact_max_divergence(adv) == pytest.approx(math.log(0.5 / 0.4), abs=1e-12)
    # at horizon 1 the tail is everything after round one: P = (0.5 | 0.5)
    want = 0.5 * 0.5 / 0.4 + 0.5 * 0.5 / 0.6
    assert exact_renyi(adv, 2.0, 1) == pytest.approx(want, abs=1e-12)


def test_exact_renyi_matches_loop_oracle_at_each_horizon():
    rng = np.random.default_rng(4)
    for _ in range(50):
        length = int(rng.integers(1, 9))
        stream = RandomStream(int(rng.integers(0, 10_000)))
        adv = random_valid_schedule(stream, length, 0.25)
        horizon = int(rng.integers(1, length + 1))
        mass_p, tail_p = oracles.halting_law_loop([pair.p for pair in adv.pairs], horizon)
        mass_q, tail_q = oracles.halting_law_loop([pair.q for pair in adv.pairs], horizon)
        assert sum(mass_p) + tail_p == pytest.approx(1.0)
        outcomes = list(zip(mass_p + [tail_p], mass_q + [tail_q]))
        for alpha in (1.5, 2.0, 3.5):
            want = sum(a * (a / b) ** (alpha - 1.0) for a, b in outcomes)
            assert exact_renyi(adv, alpha, horizon) == pytest.approx(want, rel=1e-12)
        want = math.log(max(a / b for a, b in outcomes))
        assert exact_max_divergence(adv, horizon) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_exact_renyi_validates_horizon():
    adv = adversary([(0.5, 0.45)], 0.2)
    for horizon in (0, 2):
        with pytest.raises(ParameterError):
            exact_renyi(adv, 2.0, horizon)
        with pytest.raises(ParameterError):
            exact_max_divergence(adv, horizon)


def test_exact_renyi_is_one_when_bits_match():
    adv = adversary([(0.3, 0.3), (0.7, 0.7)], 0.2)
    assert exact_renyi(adv, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert exact_max_divergence(adv) == pytest.approx(0.0, abs=1e-12)


def test_exact_renyi_two_pair_hand_value():
    adv = adversary([(0.55, 0.5), (0.55, 0.5)], 0.2)
    assert exact_renyi(adv, 2.0) == pytest.approx(oracles.E_VALUE_TWO_PAIR, abs=1e-12)


def test_exact_renyi_single_pair_closed_form():
    p = 0.3 * math.exp(0.1)
    adv = adversary([(p, 0.3)], 0.1)
    want = p * p / 0.3 + (1 - p) ** 2 / 0.7
    assert want == pytest.approx(oracles.E_VALUE_SINGLE_PAIR, abs=1e-12)
    assert exact_renyi(adv, 2.0) == pytest.approx(want, abs=1e-12)


def test_exact_renyi_agrees_with_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        length = int(rng.integers(1, 9))
        adv = random_valid_schedule(RandomStream(int(rng.integers(0, 10**6))), length, 0.3)
        alpha = float(rng.uniform(1.1, 4.0))
        want = oracles.renyi_e_value_loop(
            [pair.p for pair in adv.pairs], [pair.q for pair in adv.pairs], alpha
        )
        assert exact_renyi(adv, alpha) == pytest.approx(want, rel=1e-12)


def test_exact_renyi_validates_alpha():
    adv = adversary([(0.5, 0.45)], 0.2)
    for alpha in (1.0, 0.5):
        with pytest.raises(ParameterError):
            exact_renyi(adv, alpha)


def test_exact_renyi_bounded_at_every_horizon():
    # the quadratic certificate holds for every truncation, not just the full game
    stream = RandomStream(77)
    for epsilon in (0.1, 0.2):
        for i in range(50):
            adv = random_valid_schedule(stream.split(i), 8, epsilon)
            for alpha in (1.5, 2.0):
                bound = 1.0 + 3.0 * alpha * (alpha - 1.0) * epsilon**2
                for horizon in range(1, 9):
                    assert exact_renyi(adv, alpha, horizon) <= bound + 1e-12


def test_max_divergence_bounded_by_epsilon():
    stream = RandomStream(78)
    for i in range(200):
        adv = random_valid_schedule(stream.split(i), 6, 0.3)
        assert exact_max_divergence(adv) <= 0.3 + 1e-12


def test_max_divergence_tight_at_small_q():
    epsilon = 0.2
    q = 1e-6
    adv = adversary([(q * math.exp(epsilon), q)], epsilon)
    assert exact_max_divergence(adv) == pytest.approx(epsilon, abs=1e-12)


def test_raising_all_q_toward_p_never_helps():
    # shrinking the gap on every coordinate at once weakens the adversary
    rng = np.random.default_rng(6)
    epsilon = 0.3
    for _ in range(200):
        length = int(rng.integers(1, 6))
        ps = rng.uniform(0.05, 0.95, size=length)
        low = np.maximum(ps * math.exp(-epsilon), 1.0 - math.exp(epsilon) * (1.0 - ps))
        qs = low + (ps - low) * rng.uniform(0.0, 0.9, size=length)
        alpha = float(rng.uniform(1.2, 3.0))
        fractions = np.sort(rng.uniform(0.0, 1.0, size=4))
        values = []
        for t in fractions:
            shifted = qs + (ps - qs) * t
            adv = adversary(list(zip(ps, shifted)), epsilon)
            values.append(exact_renyi(adv, alpha))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-10


def test_raising_one_q_alone_can_backfire():
    # counterexample kept on record: closing a single coordinate's gap can
    # increase the divergence because it also reshuffles the Q tail mass
    epsilon, alpha = 0.3, 2.6
    ps = (0.15, 0.69, 0.67)
    before = exact_renyi(adversary(list(zip(ps, (0.145, 0.60, 0.65))), epsilon), alpha)
    after = exact_renyi(adversary(list(zip(ps, (0.15, 0.60, 0.65))), epsilon), alpha)
    assert before == pytest.approx(1.059230741804526, abs=1e-12)
    assert after == pytest.approx(1.0593633803816298, abs=1e-12)
    assert after > before


def test_one_pair_renyi_examples():
    assert exact_renyi(adversary([(0.5, 0.5)], 0.1), 2.0) == pytest.approx(1.0, abs=1e-12)
    value = exact_renyi(adversary([(0.5, 0.5 * math.exp(-0.1))], 0.1), 2.0)
    assert value == pytest.approx(oracles.E_VALUE_BERNOULLI_EXAMPLE, abs=1e-12)
    assert value <= 1.0 + 2.0 * 1.0 * 0.01


def test_one_pair_renyi_refusals():
    with pytest.raises(ParameterError):
        exact_renyi(adversary([(0.5, 0.45)], 0.1), 1.0)
    # past p = 1/(1 + e^-eps) the two-sided promise itself fails
    with pytest.raises(PromiseViolation):
        adversary([(0.6, 0.6 * math.exp(-0.1))], 0.1)


def test_enumeration_masses_sum_to_one():
    adv = adversary([(0.5, 0.45), (0.6, 0.55), (0.3, 0.28)], 0.2)
    for k in (1, 2, 3):
        probs_p, probs_q = enumerate_transcripts(adv, k, 3)
        assert probs_p.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs_q.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_k1_matches_halting_law():
    # the walk over transcripts and the plain-loop halting law are two
    # independent derivations of the same k = 1 outcome masses
    stream = RandomStream(79)
    for i in range(20):
        adv = random_valid_schedule(stream.split(i), 6, 0.25)
        probs_p, probs_q = enumerate_transcripts(adv, 1, 6)
        for probs, chances in ((probs_p, [pair.p for pair in adv.pairs]),
                               (probs_q, [pair.q for pair in adv.pairs])):
            mass, tail = oracles.halting_law_loop(chances, 6)
            assert sorted(probs) == pytest.approx(sorted(mass + [tail]), rel=1e-12)


def enumerated_value(adv, k, cap, alpha=None):
    """Sum of P (P/Q)^(alpha-1), or max of P/Q, over the enumerated transcripts."""
    values = []
    for mass_p, mass_q in zip(*enumerate_transcripts(adv, k, cap)):
        if mass_p == 0.0:
            continue
        if mass_q == 0.0:
            return math.inf
        ratio = mass_p / mass_q
        values.append(ratio if alpha is None else mass_p * ratio ** (alpha - 1.0))
    return max(values) if alpha is None else sum(values)


def assert_matches_enumeration(adv, k, cap):
    for alpha in (1.5, 2.0, 3.0):
        want = enumerated_value(adv, k, cap, alpha)
        got = transcript_renyi(adv, k, alpha, cap)
        assert got == (math.inf if want == math.inf else pytest.approx(want, rel=1e-12))
    want = enumerated_value(adv, k, cap)
    got = math.exp(transcript_max_log_ratio(adv, k, cap))
    assert got == (math.inf if want == math.inf else pytest.approx(want, rel=1e-12))


def test_recurrence_matches_enumeration_on_random_schedules():
    rng = np.random.default_rng(81)
    for _ in range(40):
        length = int(rng.integers(1, 13))
        epsilon = float(rng.choice([0.05, 0.1, 0.3]))
        adv = random_valid_schedule(RandomStream(int(rng.integers(0, 10**6))), length, epsilon)
        cap = int(rng.integers(1, length + 1))
        for k in range(1, cap + 1):
            assert_matches_enumeration(adv, k, cap)


@pytest.mark.parametrize(
    "pairs",
    [
        [(0.0, 0.0), (0.5, 0.45), (1.0, 1.0), (0.3, 0.28)],
        [(1.0, 1.0), (0.0, 0.0), (0.6, 0.55)],
        [(0.5, 0.45), (1e-13, 0.0), (0.4, 0.38)],
        [(1e-13, 0.0), (1.0, 1.0), (0.0, 0.0), (0.5, 0.45)],
    ],
)
def test_recurrence_keeps_the_zero_mass_conventions(pairs):
    # zero-P outcomes are skipped; a positive-P, zero-Q outcome gives +inf
    adv = adversary(pairs, 0.2)
    for cap in range(1, len(pairs) + 1):
        for k in range(1, cap + 1):
            assert_matches_enumeration(adv, k, cap)


def test_long_schedule_multi_success_bounds():
    # far past what enumeration reaches: the paper's k-success bounds
    # D_alpha <= 3 k alpha eps^2 and D_inf <= k eps
    stream = RandomStream(82)
    for index, (length, epsilon) in enumerate([(200, 0.1), (700, 0.05), (2000, 0.02)]):
        for trial in range(2):
            adv = random_valid_schedule(stream.split(index).split(trial), length, epsilon)
            for k in (1, 7, 20, 50):
                assert transcript_max_log_ratio(adv, k, length) <= k * epsilon + 1e-12
                for alpha in (1.5, 2.0):
                    e_value = transcript_renyi(adv, k, alpha, length)
                    divergence = math.log(e_value) / (alpha - 1.0)
                    assert divergence <= 3.0 * k * alpha * epsilon**2 + 1e-9


def test_max_bound_is_attained_on_the_boundary_schedule():
    # p = e^eps q every round: k ones in a row reach exactly k eps
    epsilon = 0.1
    qs = np.linspace(0.05, 0.3, 60)
    adv = adversary([(q * math.exp(epsilon), q) for q in qs], epsilon)
    for k in (1, 2, 5, 20, 50):
        assert transcript_max_log_ratio(adv, k, len(qs)) == pytest.approx(
            k * epsilon, rel=1e-12, abs=1e-12
        )


def test_enumeration_validates_inputs():
    adv = adversary([(0.5, 0.45)], 0.2)
    with pytest.raises(ParameterError):
        enumerate_transcripts(adv, 0, 1)
    with pytest.raises(ParameterError):
        enumerate_transcripts(adv, 1, 2)


def test_k_success_divergence_bounds():
    stream = RandomStream(80)
    epsilon = 0.2
    for i in range(30):
        adv = random_valid_schedule(stream.split(i), 8, epsilon)
        for k in (1, 2, 3):
            assert transcript_max_log_ratio(adv, k, 8) <= k * epsilon + 1e-12
            for alpha in (1.5, 2.0):
                e_value = transcript_renyi(adv, k, alpha, 8)
                bound = math.exp((alpha - 1.0) * 3.0 * k * alpha * epsilon**2)
                assert e_value <= bound + 1e-9


@given(seed=st.integers(0, 10**6), length=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_random_schedule_respects_promise(seed, length):
    adv = random_valid_schedule(RandomStream(seed), length, 0.3)
    for pair in adv.pairs:
        assert oracles.pair_is_valid(pair.p, pair.q, 0.3)


def test_random_schedule_validates_inputs():
    with pytest.raises(ParameterError):
        random_valid_schedule(RandomStream(0), 0, 0.3)
    with pytest.raises(ParameterError):
        random_valid_schedule(RandomStream(0), 3, 0.3, q_low=0.0)
