import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from dpselect.coingame import (
    _CACHED_ORDERS,
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
# A pair breaking several rules is named by the first: (0.3, 0.9) breaks
# q <= p and the fourth.
@pytest.mark.parametrize(
    "p,q,fragment",
    [
        (0.4, 0.5, "q <= p"),
        (0.3, 0.9, "q <= p"),
        (0.9, 0.2, "p <= exp(eps) * q"),
        (0.95, 0.9, "(1 - q) <= exp(eps) * (1 - p)"),
    ],
)
def test_pair_names_each_violated_inequality(p, q, fragment):
    with pytest.raises(PromiseViolation) as info:
        QueryPair(p, q, 0.1)
    assert fragment in str(info.value)


def test_schedule_names_its_first_broken_pair():
    pairs = [(0.5, 0.45), (0.6, 0.55), (0.4, 0.5), (1.2, 0.5)]
    with pytest.raises(PromiseViolation, match=r"^pair 3: q <= p fails: p=0.4, q=0.5$"):
        adversary(pairs, 0.2)
    with pytest.raises(ParameterError, match="at least one pair"):
        adversary([], 0.2)


def test_schedule_holds_read_only_float_vectors():
    pairs = [[0.5, 0.45], [0.6, 0.55]]
    adv = adversary(pairs, 0.2)
    pairs[0][0] = 0.9
    assert adv.ps.tolist() == [0.5, 0.6] and adv.qs.tolist() == [0.45, 0.55]
    assert adv.ps.dtype == adv.qs.dtype == np.float64
    with pytest.raises(ValueError):
        adv.ps[0] = 0.4
    with pytest.raises(ParameterError):
        DeterministicAdversary(np.array([0.5, 0.6]), np.array([0.45]), 0.2)
    assert adv.pairs == (QueryPair(0.5, 0.45, 0.2), QueryPair(0.6, 0.55, 0.2))


def test_pair_rejects_probabilities_outside_unit_interval():
    with pytest.raises(PromiseViolation):
        QueryPair(1.2, 0.5, 0.1)
    with pytest.raises(PromiseViolation):
        QueryPair(0.5, -0.1, 0.1)
    with pytest.raises(PromiseViolation, match=r"^probabilities must lie in \[0, 1\]"):
        QueryPair(float("nan"), 0.5, 0.1)


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
    # at horizon (cap) 1 the tail is everything after round one: P = (0.5 | 0.5)
    want = 0.5 * 0.5 / 0.4 + 0.5 * 0.5 / 0.6
    assert transcript_renyi(adv, 1, 2.0, 1) == pytest.approx(want, abs=1e-12)


def test_exact_renyi_matches_loop_oracle_at_each_horizon():
    rng = np.random.default_rng(4)
    for _ in range(50):
        length = int(rng.integers(1, 9))
        stream = RandomStream(int(rng.integers(0, 10_000)))
        adv = random_valid_schedule(stream, length, 0.25)
        horizon = int(rng.integers(1, length + 1))
        mass_p, tail_p = oracles.halting_law_loop(adv.ps.tolist(), horizon)
        mass_q, tail_q = oracles.halting_law_loop(adv.qs.tolist(), horizon)
        assert sum(mass_p) + tail_p == pytest.approx(1.0)
        outcomes = list(zip(mass_p + [tail_p], mass_q + [tail_q]))
        for alpha in (1.5, 2.0, 3.5):
            want = sum(a * (a / b) ** (alpha - 1.0) for a, b in outcomes)
            assert transcript_renyi(adv, 1, alpha, horizon) == pytest.approx(want, rel=1e-12)
        want = math.log(max(a / b for a, b in outcomes))
        want_max = pytest.approx(want, rel=1e-12, abs=1e-15)
        assert transcript_max_log_ratio(adv, 1, horizon) == want_max


def test_exact_renyi_validates_horizon():
    # a horizon is the k = 1 game's truncation cap
    adv = adversary([(0.5, 0.45)], 0.2)
    for horizon in (0, 2):
        with pytest.raises(ParameterError):
            transcript_renyi(adv, 1, 2.0, horizon)
        with pytest.raises(ParameterError):
            transcript_max_log_ratio(adv, 1, horizon)


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
        want = oracles.renyi_e_value_loop(adv.ps.tolist(), adv.qs.tolist(), alpha)
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
                    assert transcript_renyi(adv, 1, alpha, horizon) <= bound + 1e-12


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
        for probs, chances in ((probs_p, adv.ps.tolist()), (probs_q, adv.qs.tolist())):
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


def fold_reference(adv, k, cap, alpha):
    """The scalar recurrence's value, read as transcript_renyi or _max_log_ratio."""
    value = oracles.transcript_fold_loop(adv.ps.tolist(), adv.qs.tolist(), k, cap, alpha)
    if alpha is None:
        return math.log(value) if value > 0 else 0.0
    return value


def test_recurrence_matches_enumeration_on_random_schedules():
    rng = np.random.default_rng(81)
    for _ in range(40):
        length = int(rng.integers(1, 13))
        epsilon = float(rng.choice([0.05, 0.1, 0.3]))
        adv = random_valid_schedule(RandomStream(int(rng.integers(0, 10**6))), length, epsilon)
        cap = int(rng.integers(1, length + 1))
        for k in range(1, cap + 1):
            assert_matches_enumeration(adv, k, cap)


# Schedules with zero-mass outcomes: a certain or impossible coin, a
# positive-P, zero-Q one (an infinite one factor) and a 1 - p > 0 = 1 - q one
# (an infinite zero factor).  The last two meet an infinite factor with a
# zero-mass state and a zero factor with an infinite-value state.
ZERO_MASS_SCHEDULES = [
    [(0.0, 0.0), (0.5, 0.45), (1.0, 1.0), (0.3, 0.28)],
    [(1.0, 1.0), (0.0, 0.0), (0.6, 0.55)],
    [(0.5, 0.45), (1e-13, 0.0), (0.4, 0.38)],
    [(1e-13, 0.0), (1.0, 1.0), (0.0, 0.0), (0.5, 0.45)],
    [(1.0 - 1e-13, 1.0), (0.5, 0.45), (1e-13, 0.0), (0.3, 0.29)],
    [(1.0, 1.0), (1e-13, 0.0), (1.0 - 1e-13, 1.0), (0.5, 0.45)],
    [(1.0 - 1e-13, 1.0), (1.0, 1.0), (0.5, 0.45)],
]


@pytest.mark.parametrize("pairs", ZERO_MASS_SCHEDULES)
def test_recurrence_keeps_the_zero_mass_conventions(pairs):
    # zero-P outcomes are skipped; a positive-P, zero-Q outcome gives +inf
    adv = adversary(pairs, 0.2)
    for cap in range(1, len(pairs) + 1):
        for k in range(1, cap + 1):
            assert_matches_enumeration(adv, k, cap)


# (1e-12, 1e-300) keeps the promise within its 1e-12 tolerance, and its ratio
# 1e288 squared is past the largest double.
OVERFLOW_SCHEDULE = [(1e-12, 1e-300), (0.5, 0.45)]


def test_overflowing_power_reads_inf_at_every_k():
    # every k reads +inf, while the max divergence stays finite
    adv = adversary(OVERFLOW_SCHEDULE, 0.2)
    for k in (1, 2, 3):
        assert transcript_renyi(adv, k, 3.0, 2) == math.inf
        assert math.isfinite(transcript_max_log_ratio(adv, k, 2))


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
    for p, q in zip(adv.ps.tolist(), adv.qs.tolist()):
        assert oracles.pair_is_valid(p, q, 0.3)


def test_random_schedule_validates_inputs():
    with pytest.raises(ParameterError):
        random_valid_schedule(RandomStream(0), 0, 0.3)


@pytest.mark.parametrize("epsilon", [0.02, 0.1, 0.3])
def test_schedules_and_folds_equal_the_scalar_code(epsilon):
    # One (length, 2) draw gives the per-round draw's doubles, and the array
    # k = 1 fold gives the recurrence's: compared with ==, not approx.
    root = RandomStream(83).split(round(epsilon * 100))
    for length in range(1, 301):
        adv = random_valid_schedule(root.split(length), length, epsilon)
        ps, qs = oracles.random_schedule_loop(root.split(length).generator, length, epsilon)
        assert adv.ps.tolist() == ps
        assert adv.qs.tolist() == qs
        for alpha in (1.5, 2.0, 1.0 / (3.0 * epsilon)):
            assert exact_renyi(adv, alpha) == fold_reference(adv, 1, length, alpha)
        assert exact_max_divergence(adv) == fold_reference(adv, 1, length, None)
        if length % 25 == 0:
            for k in (1, 2, 3, 4):
                for alpha in (1.5, 2.0):
                    assert transcript_renyi(adv, k, alpha, 18) == fold_reference(adv, k, 18, alpha)
                assert transcript_max_log_ratio(adv, k, 18) == fold_reference(adv, k, 18, None)


FOLD_ORDERS = (1.5, 2.0, 3.0, None)


def fold_grid_schedules():
    root = RandomStream(84)
    schedules = [adversary(pairs, 0.2) for pairs in ZERO_MASS_SCHEDULES + [OVERFLOW_SCHEDULE]]
    for index in range(12):
        epsilon = (0.05, 0.1, 0.3)[index % 3]
        schedules.append(random_valid_schedule(root.split(index), 1 + index, epsilon))
    return schedules


def oracle_value(adv, k, cap, alpha):
    if alpha is None:
        return transcript_max_log_ratio(adv, k, cap)
    return transcript_renyi(adv, k, alpha, cap)


@pytest.mark.parametrize("adv", fold_grid_schedules())
def test_oracles_equal_the_loop_oracle_bit_for_bit(adv):
    # Every oracle against the independent scalar recurrence, with ==: each
    # k from 1 to 6, every cap and each order, asked in turn on one schedule.
    length = len(adv)
    for cap in range(1, length + 1):
        for k in range(1, 7):
            for alpha in FOLD_ORDERS:
                assert oracle_value(adv, k, cap, alpha) == fold_reference(adv, k, cap, alpha)
    for alpha in FOLD_ORDERS[:-1]:
        assert exact_renyi(adv, alpha) == fold_reference(adv, 1, length, alpha)
    assert exact_max_divergence(adv) == fold_reference(adv, 1, length, None)


@pytest.mark.parametrize("pairs", [ZERO_MASS_SCHEDULES[0], OVERFLOW_SCHEDULE, None])
def test_any_order_of_asks_gives_a_fresh_schedules_doubles(pairs):
    # Orders, caps and k in a shuffled interleaving, with more orders than a
    # schedule keeps tables for: each answer equals a fresh schedule's, and
    # the schedule never holds more than its bound.
    if pairs is None:
        adv = random_valid_schedule(RandomStream(85), 10, 0.1)
    else:
        adv = adversary(pairs, 0.2)
    orders = (1.5, 2.0, None, 3.0, 1.25, 7.0, 2.5)
    assert len(orders) > _CACHED_ORDERS
    asks = [
        (alpha, cap, k)
        for alpha in orders
        for cap in range(1, len(adv) + 1)
        for k in (1, 2, 3)
    ]
    rng = np.random.default_rng(86)
    for index in rng.permutation(len(asks)).tolist() * 2:
        alpha, cap, k = asks[index]
        fresh = DeterministicAdversary(adv.ps, adv.qs, adv.epsilon)
        assert oracle_value(adv, k, cap, alpha) == oracle_value(fresh, k, cap, alpha)
        assert 1 <= len(adv._folds) <= _CACHED_ORDERS


def test_factor_table_is_read_only_and_built_once_per_order():
    adv = adversary([(0.5, 0.45), (1e-13, 0.0), (0.0, 0.0)], 0.2)
    table = adv._fold(2.0).table
    assert table.shape == (2, 3) and table.dtype == np.float64
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # one factors, then zero factors; zero P reads 0 and P > 0 = Q reads +inf
    assert table.tolist() == [
        [0.5 * (0.5 / 0.45), math.inf, 0.0],
        [0.5 * (0.5 / 0.55), (1.0 - 1e-13) * ((1.0 - 1e-13) / 1.0), 1.0],
    ]
    assert adv._fold(2.0).table is table
    # the max order's table is the schedule's one ratio table, the base of every order's
    ratios = adv._fold(None).table
    assert ratios is adv._ratios and not ratios.flags.writeable
    assert ratios.tolist() == [[0.5 / 0.45, math.inf, 0.0], [0.5 / 0.55, 1.0 - 1e-13, 1.0]]
    # past the bound the oldest order's fold is dropped first
    for alpha in range(3, 2 + _CACHED_ORDERS):
        adv._fold(float(alpha))
    assert list(adv._folds) == [None] + [float(a) for a in range(3, 2 + _CACHED_ORDERS)]
    assert adv._fold(2.0).table is not table
    assert adv._fold(2.0).table.tolist() == table.tolist()


def test_interleaved_asks_read_one_grown_fold_per_order():
    # One 200-round schedule asked as no sweep asks: k descending, caps that
    # shrink and grow back, then more orders than it keeps folds for, so
    # folds are evicted and rebuilt while others hold a grown cap.  Every
    # answer equals a fresh schedule's and the scalar recurrence's, with ==.
    adv = random_valid_schedule(RandomStream(87), 200, 0.1)
    orders = (1.5, 2.0, None, 3.0, 1.25, 7.0)
    assert len(orders) > _CACHED_ORDERS
    asks = [
        (alpha, cap, k)
        for cap in (18, 5, 18, 200)
        for alpha in orders[:_CACHED_ORDERS]
        for k in (4, 3, 2, 1)
    ]
    asks += [(alpha, 18, k) for alpha in orders for k in (4, 2, 1)]
    for alpha, cap, k in asks:
        fresh = DeterministicAdversary(adv.ps, adv.qs, adv.epsilon)
        want = fold_reference(adv, k, cap, alpha)
        assert oracle_value(adv, k, cap, alpha) == oracle_value(fresh, k, cap, alpha) == want
        assert len(adv._folds) <= _CACHED_ORDERS


def test_counts_past_the_cap_read_the_cap_plus_one_value():
    # No transcript of cap rounds sees more than cap ones, so every k past
    # cap + 1 gives the k = cap + 1 double, folded in O(cap) memory: a loop
    # over every count of ones up to k = 10**6 held about 40 MB.
    adv = random_valid_schedule(RandomStream(1), 10, 0.1)
    for alpha in (2.0, None):
        want = fold_reference(adv, 11, 10, alpha)
        assert want == fold_reference(adv, 13, 10, alpha)
        for k in (11, 12, 10**6):
            fresh = DeterministicAdversary(adv.ps, adv.qs, adv.epsilon)
            tracemalloc.start()
            try:
                got = oracle_value(fresh, k, 10, alpha)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 100_000, f"k={k}: peak {peak} bytes"
    assert transcript_renyi(adv, 10**6, 2.0, 10) == 1.0178278349151744


@pytest.mark.parametrize("epsilon", [709.0, 709.79, 720.0, 1000.0, math.inf])
def test_a_huge_epsilon_runs_and_keeps_the_zero_mass_rules(epsilon):
    # Past exp's overflow the closeness rules are read through logs: a zero
    # q or 1 - p still breaks them against a positive p or 1 - q.
    adv = random_valid_schedule(RandomStream(1), 5, epsilon)
    assert np.all((adv.qs <= adv.ps) & (adv.ps <= 1.0))
    assert 1.0 <= exact_renyi(adv, 2.0) < math.inf
    assert 0.0 <= exact_max_divergence(adv) <= epsilon
    assert QueryPair(0.5, 0.4, epsilon).q == 0.4
    assert len(adversary([(0.5, 0.4), (0.0, 0.0), (1.0, 1.0)], epsilon)) == 3
    with pytest.raises(PromiseViolation, match=r"^p <= exp\(eps\) \* q fails: p=0.5, q=0.0$"):
        QueryPair(0.5, 0.0, epsilon)
    with pytest.raises(PromiseViolation, match=r"^\(1 - q\) <= exp\(eps\) \* \(1 - p\) fails"):
        QueryPair(1.0, 0.5, epsilon)


def test_a_subnormal_q_meets_the_exact_closeness_rule_past_overflow():
    # e^710 * 1e-310 is about 0.022 and e^720 * 1e-310 about 490: the rule
    # read through logs keeps the exact verdict on each side of p = 0.5.
    with pytest.raises(PromiseViolation, match="p <= exp"):
        QueryPair(0.5, 1e-310, 710.0)
    assert QueryPair(0.5, 1e-310, 720.0).p == 0.5
    with pytest.raises(PromiseViolation, match="p <= exp"):
        QueryPair(0.5, 1e-310, 709.0)


# The supremum over every adaptive adversary, by the three-vertex backward
# recursion of tests/oracles.py.  A value is nondecreasing in the cap (the
# (0, 0) vertex stalls a round), and every cap up to CAP_SWEEP is checked.
CAP_SWEEP = 2000


def promise_grid(epsilon, points_p=61, points_q=13):
    """A points_p x points_q grid of the promise region, q from its least value to p."""
    grid = []
    for p in np.linspace(0.0, 1.0, points_p).tolist():
        low = max(p * math.exp(-epsilon), 1.0 - math.exp(epsilon) * (1.0 - p), 0.0)
        grid += [(p, q) for q in np.linspace(low, p, points_q).tolist()]
    assert all(oracles.pair_is_valid(p, q, epsilon) for p, q in grid)
    return grid


@pytest.mark.parametrize("epsilon", [0.1, 0.2])
def test_worst_case_is_at_least_a_fine_grid_recursion(epsilon):
    grid = promise_grid(epsilon)
    vertices = oracles.promise_vertices(epsilon)
    for k in (1, 2, 3):
        for alpha in (1.5, 2.0, 3.0, None):
            best = oracles.adaptive_values(vertices, k, alpha, 8)
            gridded = oracles.adaptive_values(grid, k, alpha, 8)
            for cap, (value, floor) in enumerate(zip(best, gridded), 1):
                assert value >= floor * (1.0 - 1e-12), (k, alpha, cap, value, floor)
            assert best[-1] == oracles.worst_case_e_value(epsilon, k, alpha, 8)


@pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.3])
def test_worst_case_is_randomized_response_every_round(epsilon):
    # The package's oracles on the all-randomized-response schedule reach it.
    p, q = oracles.promise_vertices(epsilon)[2]
    for cap in (1, 5, 12, 40):
        rr = adversary([(p, q)] * cap, epsilon)
        for k in (1, 2, 3, 4):
            for alpha in (1.5, 2.0, 1.0 / (3.0 * epsilon)):
                want = transcript_renyi(rr, k, alpha, cap)
                assert oracles.worst_case_e_value(epsilon, k, alpha, cap) == pytest.approx(
                    want, rel=1e-12
                )
            want = math.exp(transcript_max_log_ratio(rr, k, cap))
            assert oracles.worst_case_e_value(epsilon, k, None, cap) == pytest.approx(
                want, rel=1e-12
            )


def test_criterion_03_bound_holds_at_the_adaptive_supremum():
    # E <= 1 + 3 alpha (alpha - 1) eps^2 for k = 1, over criterion 03's grid.
    for epsilon in (0.05, 0.1, 0.2, 0.3):
        vertices = oracles.promise_vertices(epsilon)
        for alpha in (1.5, 2.0, 1.0 / (3.0 * epsilon)):
            values = oracles.adaptive_values(vertices, 1, alpha, CAP_SWEEP)
            bound = 1.0 + 3.0 * alpha * (alpha - 1.0) * epsilon**2
            assert 1.0 < values[0] and max(values) <= bound, (epsilon, alpha, max(values))


def test_criterion_04_bounds_hold_at_the_adaptive_supremum():
    # D_inf <= k eps, reached exactly, and D_alpha <= 3 k alpha eps^2, over
    # criterion 04's grid.
    for epsilon in (0.05, 0.1, 0.2):
        vertices = oracles.promise_vertices(epsilon)
        for k in (1, 2, 3):
            ratios = oracles.adaptive_values(vertices, k, None, CAP_SWEEP)
            assert math.log(max(ratios)) == pytest.approx(k * epsilon, rel=1e-12)
            assert math.log(max(ratios)) <= k * epsilon + 1e-12
            for alpha in (1.5, 2.0):
                values = oracles.adaptive_values(vertices, k, alpha, CAP_SWEEP)
                divergence = math.log(max(values)) / (alpha - 1.0)
                assert 0.0 < divergence <= 3.0 * k * alpha * epsilon**2, (epsilon, k, alpha)


def test_criterion_05_bound_holds_at_the_adaptive_supremum():
    # E <= 1 + alpha (alpha - 1) eps^2 at alpha = 1 / (3 eps) holds for the
    # one-pair game of criterion 05 and for every adaptive k = 1 game too.
    for epsilon in (0.05, 0.1, 0.2):
        alpha = 1.0 / (3.0 * epsilon)
        values = oracles.adaptive_values(oracles.promise_vertices(epsilon), 1, alpha, CAP_SWEEP)
        bound = 1.0 + alpha * (alpha - 1.0) * epsilon**2
        assert 1.0 < values[0] and max(values) <= bound, (epsilon, max(values))
