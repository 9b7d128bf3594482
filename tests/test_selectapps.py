import math

import numpy as np
import pytest

import oracles
from conftest import forced_state, make_dataset
from dpselect import core, selectapps
from dpselect.core import EMPTY, Dataset, Mechanism
from dpselect.errors import ParameterError
from dpselect.noise import RandomStream, TruncatedLaplaceParams
from dpselect.selectapps import (
    BtmConfig,
    ScoreFamily,
    ScoredCandidate,
    better_than_median,
    choosing_mechanism,
    gap,
    query_release_amplified,
    stability_pivot,
    stable_select,
    tlap_release_baseline,
    topk_select,
)


def uniform_score_base(epsilon=0.05):
    return Mechanism(
        run=lambda d, s: ScoredCandidate(None, s.generator.random()), epsilon=epsilon
    )


def test_budget_cases():
    assert BtmConfig(1.0, 0.01).budget == 200
    assert BtmConfig(2.0, 0.5).budget == 7
    assert BtmConfig(2.0, 0.05).budget == 95
    assert BtmConfig(1.0, 0.1).budget == 20


def test_budget_matches_formula_on_grid():
    for alpha in (1.0, 1.5, 2.0, 3.0, 5.0):
        for beta in (0.01, 0.05, 0.1, 0.3, 0.5):
            assert BtmConfig(alpha, beta).budget == oracles.median_boost_budget(
                alpha, beta
            )


def test_budget_cap_truncates():
    assert BtmConfig(1.0, 0.01, budget_cap=50).budget == 50
    assert BtmConfig(1.0, 0.01, budget_cap=10_000).budget == 200


def test_config_validation():
    with pytest.raises(ParameterError):
        BtmConfig(0.5, 0.1)
    with pytest.raises(ParameterError):
        BtmConfig(1.0, 0.0)
    with pytest.raises(ParameterError):
        BtmConfig(1.0, 0.1, budget_cap=0)


def test_median_boost_requires_matching_gamma_and_small_epsilon():
    state = forced_state(gamma=1.0, p=0.5)
    with pytest.raises(ParameterError):
        better_than_median(uniform_score_base(), BtmConfig(2.0, 0.5), state)
    state = forced_state(gamma=2.0, p=0.5)
    with pytest.raises(ParameterError):
        better_than_median(uniform_score_base(epsilon=1.0), BtmConfig(2.0, 0.5), state)


def test_median_boost_constant_base_never_fails():
    base = Mechanism(run=lambda d, s: ScoredCandidate("x", 5.0), epsilon=0.1)
    state = forced_state(gamma=1.0, p=1.0)
    result = better_than_median(base, BtmConfig(1.0, 0.1), state)
    # a tie with the median counts as clearing it
    assert result.score == 5.0


def test_median_boost_empty_when_gate_never_fires():
    state = forced_state(gamma=2.0, p=0.0)
    assert better_than_median(uniform_score_base(), BtmConfig(2.0, 0.5), state) is EMPTY


def test_median_boost_failure_rate():
    alpha, beta, trials = 2.0, 0.5, 2_000
    config = BtmConfig(alpha, beta)
    failures = 0
    for i in range(trials):
        state = core.init(alpha, make_dataset(), RandomStream(i))
        result = better_than_median(uniform_score_base(), config, state)
        if result is EMPTY or result.score < 0.5:
            failures += 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


def test_median_boost_accounts_two_plus_alpha():
    alpha = 2.0
    state = forced_state(gamma=alpha, p=1.0)
    better_than_median(uniform_score_base(epsilon=0.05), BtmConfig(alpha, 0.5), state)
    assert state.pure_cost().epsilon == pytest.approx((2 + alpha) * 0.05)


def test_gap_hand_values():
    scores = [5.0, 4.0, 3.0, 2.0]
    assert gap([0, 1], scores) == pytest.approx(-1.0)
    assert gap([0, 3], scores) == pytest.approx(2.0)
    assert gap([0], [1.0, 1.0, 1.0]) == pytest.approx(0.0)


def test_gap_identities():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(3, 10))
        scores = rng.normal(size=m)
        size = int(rng.integers(1, m))
        selected = list(rng.choice(m, size=size, replace=False))
        base = gap(selected, scores)
        assert gap(selected, scores + 3.7) == pytest.approx(base, abs=1e-9)
        complement = [i for i in range(m) if i not in selected]
        assert gap(complement, -scores) == pytest.approx(base, abs=1e-9)
        # the exact top-|S| set minimises the gap
        top = list(np.argsort(-scores)[:size])
        assert gap(top, scores) <= base + 1e-12


def test_gap_validation():
    with pytest.raises(ParameterError):
        gap([], [1.0, 2.0])
    with pytest.raises(ParameterError):
        gap([0, 1], [1.0, 2.0])
    with pytest.raises(ParameterError):
        gap([5], [1.0, 2.0])


def test_stability_pivot_order_statistic():
    assert stability_pivot(np.array([9.0, 7.0, 7.0, 3.0, 1.0]), 2) == 7.0
    assert stability_pivot(np.array([1.0, 2.0, 3.0]), 1) == 2.0
    with pytest.raises(ParameterError):
        stability_pivot(np.array([1.0, 2.0]), 2)


def test_score_family_validation_and_table():
    with pytest.raises(ParameterError):
        ScoreFamily(())
    with pytest.raises(ParameterError):
        ScoreFamily((lambda d: 0.0,), sensitivity=0.0)
    family = ScoreFamily.from_table(3)
    ds = make_dataset([4.0, 5.0, 6.0])
    assert family.evaluate_all(ds) == pytest.approx([4.0, 5.0, 6.0])
    assert len(family) == 3


def test_topk_validates_epsilon_range():
    family = ScoreFamily.from_table(4)
    ds = make_dataset([1.0, 2.0, 3.0, 4.0])
    for epsilon in (0.0, 1.0, 2.0):
        with pytest.raises(ParameterError):
            topk_select(family, 2, epsilon, 1e-3, 0.1, ds, RandomStream(0))
    with pytest.raises(ParameterError):
        topk_select(family, 0, 0.5, 1e-3, 0.1, ds, RandomStream(0))
    with pytest.raises(ParameterError):
        topk_select(family, 4, 0.5, 1e-3, 0.1, ds, RandomStream(0))


def test_topk_finds_dominating_candidates():
    m, k, epsilon, delta, beta = 16, 2, 0.9, 1e-3, 0.1
    margin = 400.0 * k * math.log(1.0 / delta) * math.log(m) / epsilon
    records = np.zeros(m)
    records[3] = margin
    records[11] = margin
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    hits = 0
    trials = 100
    for i in range(trials):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        assert len(result.indices) == k
        assert result.cost.epsilon == pytest.approx(epsilon)
        hits += result.indices == frozenset({3, 11})
    assert hits / trials >= 1 - beta


def test_topk_certificate_prices_the_gap_at_small_beta():
    # per-run undershoot odds are beta**(13/6)/2, so at beta = 1e-3 even a
    # few hundred fired runs cannot break the certificate
    m, k, epsilon, delta, beta = 12, 3, 0.9, 1e-4, 1e-3
    records = np.arange(m, dtype=float)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    for i in range(50):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        if not result.fallback:
            assert result.certificate >= gap(sorted(result.indices), records)


def test_topk_certificate_is_loose_at_large_beta():
    # keeping the minimum certificate across many runs defeats a margin
    # sized for one run; at beta = 0.1 undershoots are routine, which is
    # why the hard claim above is only made for small beta
    m, k = 12, 3
    records = np.arange(m, dtype=float)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    undershoots = 0
    for i in range(200):
        result = topk_select(
            family, k, 0.9, 1e-3, 0.1, ds, RandomStream(i), budget_cap=300
        )
        if not result.fallback:
            undershoots += result.certificate < gap(sorted(result.indices), records)
    assert undershoots >= 1


def test_topk_reads_the_scores_once(monkeypatch):
    # Every fired run and the fallback share one read of the m scores; a
    # budget of one often fires nothing, a zero correction constant makes
    # the correcting run (beta < delta) fall back after its fired runs.
    m = 10
    records = np.arange(m, dtype=float)
    family = ScoreFamily.from_table(m)
    outcomes = set()
    for i in range(40):
        cap, beta, constant = [(1, 0.1, 30.0), (50, 0.1, 30.0), (50, 1e-4, 0.0)][i % 3]
        monkeypatch.setattr(selectapps, "_CORRECTION_CONSTANT", constant)
        ds = Dataset(records)
        result = topk_select(
            family, 2, 0.9, 0.05, beta, ds, RandomStream(i), budget_cap=cap
        )
        assert ds.access_count == m
        outcomes.add((cap, result.fallback))
    assert outcomes == {(1, False), (1, True), (50, False), (50, True)}


def test_topk_refuses_non_finite_scores():
    # a NaN is refused where the scores are read, whether or not a coin
    # fires, instead of reaching the fallback's exact top-k and certificate
    records = np.array([1.0, np.nan, 3.0, 2.0])
    family = ScoreFamily.from_table(4)
    for i in range(10):
        with pytest.raises(ParameterError, match="scores must be finite"):
            topk_select(
                family, 2, 0.9, 0.05, 0.1, Dataset(records), RandomStream(i), budget_cap=1
            )


def test_topk_correction_mode_caps_the_certificate():
    # beta < delta retargets the run and repairs oversized certificates
    m, k, epsilon, delta, beta = 16, 2, 0.9, 0.05, 1e-4
    delta_run = delta / 10.0
    threshold = (
        30.0
        * (math.sqrt(k * math.log(1.0 / delta_run)) * math.log(m) + math.log(1.0 / delta_run))
        / epsilon
    )
    records = np.linspace(0.0, 5.0, m)
    ds = Dataset(records)
    family = ScoreFamily.from_table(m)
    for i in range(200):
        result = topk_select(
            family, k, epsilon, delta, beta, ds, RandomStream(i), budget_cap=300
        )
        if result.fallback:
            assert result.indices == frozenset(np.argsort(-records)[:k].tolist())
        else:
            assert result.certificate <= threshold


def test_choosing_requires_k_bound():
    family = ScoreFamily.from_table(3)
    with pytest.raises(ParameterError):
        choosing_mechanism(family, 0.5, 1e-3, 0.5, forced_state(p=1.0))


def test_choosing_separation_beats_any_noise():
    # separation past the noise diameter makes the argmax deterministic, so
    # whenever the better index contributes a fired run at all it wins; with
    # the gate pinned open it wins every time
    epsilon, delta, beta = 0.5, 1e-3, 0.5
    k_bound = 2
    noise_delta = delta * beta / (5.0 * k_bound)
    radius = TruncatedLaplaceParams(epsilon, noise_delta).support_radius
    family = ScoreFamily.from_table(2, k_bound=k_bound)
    ds = Dataset(np.array([0.0, 6.0 * radius]))
    for i in range(300):
        state = core.init(1.0, ds, RandomStream(i))
        state.p = 1.0
        assert choosing_mechanism(family, epsilon, delta, beta, state) == 1


def test_choosing_failure_rate_within_beta():
    # with the real gate the better index can miss every one of its coins,
    # which is the beta-probability failure the guarantee budgets for
    epsilon, delta, beta = 0.5, 1e-3, 0.5
    family = ScoreFamily.from_table(2, k_bound=2)
    noise_delta = delta * beta / (5.0 * 2)
    radius = TruncatedLaplaceParams(epsilon, noise_delta).support_radius
    ds = Dataset(np.array([0.0, 6.0 * radius]))
    trials, failures = 400, 0
    for i in range(trials):
        state = core.init(1.0, ds, RandomStream(i))
        picked = choosing_mechanism(family, epsilon, delta, beta, state)
        failures += picked != 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


def test_choosing_accounts_three_epsilon():
    family = ScoreFamily.from_table(2, k_bound=1)
    ds = Dataset(np.array([0.0, 1.0]))
    state = core.init(1.0, ds, RandomStream(3))
    state.p = 1.0
    choosing_mechanism(family, 0.4, 1e-3, 0.5, state)
    assert state.pure_cost().epsilon == pytest.approx(3 * 0.4)


def test_choosing_none_when_gate_never_fires():
    family = ScoreFamily.from_table(2, k_bound=1)
    state = forced_state(p=0.0, records=[0.0, 1.0])
    assert choosing_mechanism(family, 0.4, 1e-3, 0.5, state) is None


def test_stable_validates_and_accounts():
    family = ScoreFamily.from_table(4)
    state = forced_state(p=1.0, records=[5.0, 1.0, 0.5, 0.2])
    picked = stable_select(family, 1, 0.6, 1e-3, 0.5, state)
    assert picked is not None
    assert state.pure_cost().epsilon == pytest.approx(0.6)
    with pytest.raises(ParameterError):
        stable_select(family, 0, 0.6, 1e-3, 0.5, forced_state(p=1.0))
    with pytest.raises(ParameterError):
        stable_select(family, 1, 0.6, 1e-3, 0.5, forced_state(gamma=2.0, p=1.0))


def test_stable_reads_nothing_when_no_coin_fires():
    gated_out = forced_state(p=0.0, records=[5.0, 1.0, 0.5, 0.2])
    assert stable_select(ScoreFamily.from_table(4), 1, 0.6, 1e-3, 0.5, gated_out) is None
    assert gated_out.dataset.access_count == 0


def test_stable_prefers_far_above_candidate():
    m, k, epsilon, delta, beta = 8, 1, 0.6, 1e-3, 0.5
    noise = TruncatedLaplaceParams(epsilon / 3.0, beta * delta / (10.0 * k))
    records = np.zeros(m)
    records[5] = 3.0 * 2.0 * noise.support_radius
    family = ScoreFamily.from_table(m)
    failures = 0
    trials = 300
    for i in range(trials):
        state = core.init(1.0, Dataset(records), RandomStream(i))
        picked = stable_select(family, k, epsilon, delta, beta, state)
        if picked != 5:
            failures += 1
    sigma = math.sqrt(beta * (1 - beta) / trials)
    assert failures / trials <= beta + 3 * sigma


def test_stable_handles_all_equal_scores():
    family = ScoreFamily.from_table(4)
    state = forced_state(p=1.0, records=[2.0, 2.0, 2.0, 2.0])
    picked = stable_select(family, 2, 0.6, 1e-3, 0.5, state)
    assert picked in {0, 1, 2, 3}
    assert state.pure_cost().epsilon == pytest.approx(0.6)


def test_release_baseline_certificate_never_undershoots():
    queries = [lambda d: float(d.fetch()[0]), lambda d: float(d.fetch()[1])]
    base = tlap_release_baseline(queries, 0.4, 1e-4)
    ds = Dataset(np.array([2.0, -1.0]))
    truth = np.array([2.0, -1.0])
    worst = -1.0
    for i in range(20_000):
        answers, certificate = base.run(ds, RandomStream(i))
        error = float(np.abs(answers - truth).max())
        assert certificate >= error
        worst = max(worst, certificate - error)
    assert worst >= 0.0


def test_release_baseline_validation():
    with pytest.raises(ParameterError):
        tlap_release_baseline([], 0.4, 1e-4)


def test_release_rejects_overdeclared_base():
    queries = [lambda d: 0.0]
    base = tlap_release_baseline(queries, 0.4, 1e-4)
    state = forced_state(p=1.0)
    with pytest.raises(ParameterError):
        query_release_amplified(base, queries, 0.4, 0.05, state)  # eps > eps/3
    small = tlap_release_baseline(queries, 0.1, 1.0e-2)
    with pytest.raises(ParameterError):
        query_release_amplified(small, queries, 0.4, 0.05, state)  # delta too big


def test_release_error_stays_certified_and_fallback_is_rare():
    epsilon, delta = 0.5, 0.05
    queries = [lambda d: float(d.fetch()[0]), lambda d: float(d.fetch()[1])]
    truth = np.array([1.0, -2.0])
    base = tlap_release_baseline(queries, epsilon / 3.0, delta**2 / 10.0)
    threshold = (
        30.0
        * (math.sqrt(2 * math.log(1.0 / delta)) + math.log(1.0 / delta))
        / epsilon
    )
    fallbacks = 0
    trials = 1_500
    for i in range(trials):
        state = core.init(1.0, Dataset(truth.copy()), RandomStream(i))
        result = query_release_amplified(base, queries, epsilon, delta, state)
        error = float(np.abs(result.answers - truth).max())
        if result.fallback:
            fallbacks += 1
            assert error == 0.0
        else:
            assert error <= result.certificate
            assert result.certificate <= threshold
        assert result.cost.epsilon == pytest.approx(
            state.pure_cost().epsilon
        )
    assert fallbacks / trials <= delta / 5.0
