import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import oracles
from dpselect import mwu
from dpselect.core import AccountantLedger, Dataset, approx_dp_cost
from dpselect.errors import HaltedError, InfeasibleParameters, ParameterError
from dpselect.mwu import (
    FixedPoolAdversary,
    LinearQuery,
    MwuSession,
    OverfittingAdversary,
    RandomSubsetAdversary,
    adaptive_harness,
    as_query_values,
    make_mwu_config,
    mwu_update,
    sample_size_for_accuracy,
    solve_alpha,
)
from dpselect.noise import RandomStream
from dpselect.svt import RepetitiveSvt, svt_params

EXAMPLE = dict(universe_size=64, n=100_000, m=500, epsilon=1.0, delta=1e-6, beta=1e-3)


def test_update_hand_example():
    updated = mwu_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0, math.log(2.0))
    assert updated == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-12)


def test_update_constant_query_is_identity():
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    updated = mwu_update(weights, np.full(4, 0.7), -1.0, 0.5)
    assert updated == pytest.approx(weights, rel=1e-12)


def test_update_zero_rate_is_identity():
    weights = np.array([0.25, 0.75])
    assert mwu_update(weights, np.array([1.0, 0.0]), 1.0, 0.0) == pytest.approx(
        weights, rel=1e-15
    )


def test_update_validation():
    weights = np.array([0.5, 0.5])
    values = np.array([1.0, 0.0])
    with pytest.raises(ParameterError):
        mwu_update(weights, values, 0.5, 1.0)
    with pytest.raises(ParameterError):
        mwu_update(weights, values, 1.0, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    raw=hnp.arrays(np.float64, 6, elements=st.floats(1e-3, 1.0)),
    values=hnp.arrays(np.float64, 6, elements=st.floats(0.0, 1.0)),
    direction=st.sampled_from([-1.0, 1.0]),
    eta=st.floats(0.0, 5.0),
)
def test_update_keeps_normalization(raw, values, direction, eta):
    weights = raw / raw.sum()
    updated = mwu_update(weights, values, direction, eta)
    assert abs(updated.sum() - 1.0) <= 1e-12
    assert updated.min() > 0


def test_alpha_example_against_independent_solvers():
    alpha = solve_alpha(**EXAMPLE)
    assert alpha == pytest.approx(oracles.ALPHA_EXAMPLE_CLOSED, abs=2e-9)
    scanned = oracles.accuracy_grid_scan(
        EXAMPLE["universe_size"],
        EXAMPLE["n"],
        EXAMPLE["m"],
        EXAMPLE["epsilon"],
        EXAMPLE["delta"],
        EXAMPLE["beta"],
    )
    assert abs(alpha - scanned) <= 1e-6


def test_alpha_confidence_dominant_regime():
    # ln(1/beta) dwarfs the update-budget term, so alpha -> C * B
    alpha = solve_alpha(2, 1000, 500, 1.0, 0.99999, math.exp(-12.5))
    target = 40.0 * 12.5 / 1000.0
    assert abs(alpha - target) / target < 0.01


def test_alpha_budget_dominant_regime():
    # negligible confidence term, so alpha**2 -> C * A
    alpha = solve_alpha(64, 1_000_000, 500, 1.0, 1e-6, 0.99)
    budget = (
        math.sqrt(math.log(64) * math.log(1e6)) * math.log(500) / 1_000_000.0
    )
    target = math.sqrt(40.0 * budget)
    assert abs(alpha - target) / target < 0.01


@pytest.mark.parametrize(
    "problem",
    [
        tuple(EXAMPLE.values()),
        (64, 48_029, 500, 1.0, 1e-6, 1e-2),
        (2, 1000, 500, 1.0, 0.99999, math.exp(-12.5)),
        (64, 1_000_000, 500, 1.0, 1e-6, 0.99),
    ],
)
def test_alpha_is_the_fixed_point(problem):
    universe, n, m, epsilon, delta, beta = problem
    alpha = solve_alpha(*problem)
    budget = (
        math.sqrt(math.log(universe) * math.log(1.0 / delta)) * math.log(m) / (n * epsilon)
    )
    confidence = math.log(1.0 / beta) / (n * epsilon)
    assert abs(alpha - 40.0 * (budget / alpha + confidence)) <= 1e-12 * alpha


def test_alpha_infeasible_and_validation():
    with pytest.raises(InfeasibleParameters):
        solve_alpha(64, 10, 500, 0.01, 1e-6, 1e-3)
    with pytest.raises(ParameterError):
        solve_alpha(1, 1000, 500, 1.0, 1e-6, 1e-3)
    with pytest.raises(ParameterError):
        solve_alpha(64, 0, 500, 1.0, 1e-6, 1e-3)
    with pytest.raises(ParameterError):
        solve_alpha(64, 1000, 500, 1.0, 2.0, 1e-3)


def test_sample_size_brackets_the_target():
    n = sample_size_for_accuracy(0.2, 64, 500, 1.0, 1e-6, 1e-2)
    assert n == 48_029
    assert solve_alpha(64, n, 500, 1.0, 1e-6, 1e-2) <= 0.2
    assert solve_alpha(64, n - 1, 500, 1.0, 1e-6, 1e-2) > 0.2
    for bad in [
        (0.2, 64, 500, 1.0, 0.0, 1e-2),
        (0.2, 64, 500, 0.0, 1e-6, 1e-2),
        (0.2, 1, 500, 1.0, 1e-6, 1e-2),
        (0.2, 64, 500, 1.0, 1e-6, 2.0),
    ]:
        with pytest.raises(ParameterError):
            sample_size_for_accuracy(*bad)


def test_config_derivations():
    config = make_mwu_config(16, 5000, 40, 1.0, 1e-6, 0.05, alpha_override=0.25)
    assert config.alpha == 0.25
    assert config.k == math.ceil(math.log(16) / 0.25**2)
    assert config.eta == 0.125
    want = svt_params(1.0, 1e-6, config.k, 160, min(0.05, 0.9 / 160), sensitivity=1 / 5000)
    assert config.svt == want
    with pytest.raises(ParameterError):
        make_mwu_config(16, 5000, 40, 1.0, 1e-6, 0.05, alpha_override=1.0)


@pytest.mark.parametrize("n", [0, -5, 2.5])
@pytest.mark.parametrize("alpha_override", [None, 0.3])
def test_config_refuses_a_bad_sample_size(n, alpha_override):
    with pytest.raises(ParameterError, match="n must be a positive integer"):
        make_mwu_config(16, n, 40, 1.0, 1e-6, 0.05, alpha_override=alpha_override)


@pytest.mark.parametrize(
    "records",
    [np.array([0.5, 1.7, 2.2, 3.9]), np.array([0, 1, 9]), np.array([0, -1, 2]),
     np.array([], dtype=int), np.zeros((2, 2), dtype=int)],
)
def test_answerers_refuse_records_that_are_not_universe_indices(records):
    config = make_mwu_config(4, max(records.size, 1), 10, 1.0, 1e-6, 0.05, alpha_override=0.3)
    with pytest.raises(ParameterError, match="records must be"):
        MwuSession(config, Dataset(records), RandomStream(0))


@pytest.mark.parametrize(
    "records, universe",
    [
        (np.repeat(np.arange(8), [5, 0, 3, 1, 0, 7, 2, 0]), 8),  # sorted, some indices missed
        (np.random.default_rng(4).permutation(np.repeat(np.arange(8), [5, 0, 3, 1, 0, 7, 2, 4])), 8),
        (np.array([3]), 8),
        (np.array([0]), 2),
        (np.array([7, 7, 7]), 8),
        (np.array([0, 0, 1, 1, 1]), 5),
        (np.array([2, 2, 1, 0, 0], dtype=np.int32), 4),
        (np.array([0, 1, 1, 3], dtype=np.uint8), 4),
        (np.array([0, 1, 1, 200], dtype=np.uint8), 1000),  # a universe past the dtype
        (np.array([0, 5, 100], dtype=np.int8), 300),
    ],
)
def test_record_counts_equal_bincount(records, universe):
    counts = mwu._record_counts(records, universe)
    expected = np.bincount(records, minlength=universe)
    assert counts.dtype == expected.dtype
    assert counts.tolist() == expected.tolist()


@pytest.mark.parametrize("universe", [2, 64, 256, 257])
def test_harness_records_are_narrow_and_counted_without_a_copy(universe):
    # The harness lays its records out in the narrowest dtype that holds
    # every index; checking and counting them must not widen them into a
    # copy, as searching them with int64 values would (8 bytes a record).
    seen = []

    def answerer(dataset, stream):
        seen.append(dataset.records)
        return oracles.EmpiricalAnswerer(dataset, universe)

    probabilities = np.full(universe, 1.0 / universe)
    adaptive_harness(
        probabilities, 100_000, 1, lambda u, s: RandomSubsetAdversary(u, s), answerer,
        trials=1, stream=RandomStream(universe),
    )
    (records,) = seen
    assert records.dtype == np.min_scalar_type(universe - 1)
    expected = np.bincount(records, minlength=universe)
    tracemalloc.start()
    try:
        checked = mwu._check_records(records, universe)
        counts = mwu._record_counts(checked, universe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked is records
    assert counts.dtype == expected.dtype
    assert counts.tolist() == expected.tolist()
    # The sorted check's one-byte mask is the largest temporary.
    assert peak < 4 * records.size


def test_query_value_validation():
    for bad in ([0.5, 1.2], [2.0, 0.5], [-0.1, 0.5], [0.5, np.nan], [0.2, np.inf], [-np.inf, 0.3]):
        with pytest.raises(ParameterError) as single:
            LinearQuery(np.array(bad))
        # A table holding the row is refused in the same words.
        with pytest.raises(ParameterError, match=f"^{re.escape(str(single.value))}$"):
            LinearQuery.rows(np.array([[0.0, 1.0], bad]))
    with pytest.raises(ParameterError):
        LinearQuery(np.zeros((2, 2)))
    for shape in [(4,), (0, 4), (2, 0), (1, 2, 2)]:
        with pytest.raises(ParameterError, match="nonempty table"):
            LinearQuery.rows(np.zeros(shape))
    with pytest.raises(ParameterError):
        as_query_values(np.zeros(3), 4)
    assert as_query_values(LinearQuery(np.zeros(4)), 4).size == 4


def test_linear_query_keeps_its_own_read_only_copy():
    values = np.full(16, 0.5)
    query = LinearQuery(values)
    values[0] = 1e6
    assert np.array_equal(query.values, np.full(16, 0.5))
    with pytest.raises(ValueError):
        query.values[0] = 5.0
    # A session and the baseline answer as if the caller had never written.
    mutated, _ = uniform_session(seed=3)
    untouched, _ = uniform_session(seed=3)
    assert mutated.answer(query) == untouched.answer(LinearQuery(np.full(16, 0.5)))
    assert np.isfinite(mutated.weights).all()
    answerer = oracles.EmpiricalAnswerer(Dataset(np.arange(16)), 16)
    assert answerer.answer(query) == pytest.approx(0.5, rel=1e-15)


def uniform_session(seed=0, universe=16, copies=200, alpha=0.3):
    records = np.tile(np.arange(universe), copies)
    config = make_mwu_config(
        universe, records.size, 50, 1.0, 1e-6, 0.05, alpha_override=alpha
    )
    return MwuSession(config, Dataset(records), RandomStream(seed)), config


def test_session_rejects_mismatched_data():
    config = make_mwu_config(16, 100, 10, 1.0, 1e-6, 0.05, alpha_override=0.3)
    with pytest.raises(ParameterError):
        MwuSession(config, Dataset(np.zeros(50, dtype=int)), RandomStream(0))
    with pytest.raises(ParameterError):
        MwuSession(config, Dataset(np.full(100, 16)), RandomStream(0))
    # an integer cast would truncate these to valid indices
    fractional = np.resize([0.5, 1.7, 2.2, 3.9], 100)
    with_nan = np.append(np.zeros(99), np.nan)
    for records in (fractional, np.zeros(100), with_nan):
        with pytest.raises(ParameterError, match="universe indices"):
            MwuSession(config, Dataset(records), RandomStream(0))


def test_exact_histogram_answers_by_guessing():
    # empirical distribution == public histogram, so every check double-BOTs
    session, config = uniform_session(seed=21)
    generator = np.random.default_rng(5)
    for _ in range(100):
        values = generator.random(16)
        assert session.answer(values) == pytest.approx(values.mean(), rel=1e-12)
    assert session.update_rounds == 0
    assert session.release_count == 0
    cost = session.state.pure_cost()
    assert cost.epsilon == pytest.approx(
        config.svt.gamma * config.svt.epsilon_prime, rel=1e-12
    )


def test_a_guessed_answer_is_the_clamped_first_row_of_one_product():
    # The guess and the sample mean are the two rows of one product of the
    # stacked (histogram, frequencies) table.  With OpenBLAS the histogram row
    # alone, ``weights @ values`` (a dot product), rounds differently from
    # the product's first row in about half of these cases.
    universe = 64
    zipf = 1.0 / np.arange(1, universe + 1)
    counts = np.random.default_rng(31).multinomial(48_029, zipf / zipf.sum())
    records = np.repeat(np.arange(universe), counts)
    config = make_mwu_config(universe, records.size, 500, 1.0, 1e-6, 0.05, alpha_override=0.15)
    session = MwuSession(config, Dataset(records), RandomStream(32))
    frequencies = counts / records.size
    wide = np.random.default_rng(33).random((90, 2 * universe))
    queries = [
        *LinearQuery.rows(wide[:30, :universe].copy()),  # contiguous rows
        *wide[30:60, ::2],  # strided views
        *(wide[60:, :universe] > 0.5).astype(int),  # integer arrays
    ]
    guessed = [0, 0, 0]
    for index, query in enumerate(queries):
        values = np.asarray(query, dtype=float)
        guess = (np.stack([session.weights, frequencies]) @ values)[0]
        releases = session.release_count
        answer = session.answer(query)
        if session.release_count == releases:
            guessed[index // 30] += 1
            assert answer == min(max(float(guess), 0.0), 1.0)
    assert min(guessed) >= 10
    assert session.update_rounds >= 5


def test_constant_query_is_answered_exactly():
    session, _ = uniform_session(seed=22)
    assert session.answer(np.full(16, 0.5)) == 0.5


def skewed_session(seed, alpha=0.3):
    records = np.full(3200, 7)
    config = make_mwu_config(8, 3200, 50, 1.0, 1e-6, 0.05, alpha_override=alpha)
    return MwuSession(config, Dataset(records), RandomStream(seed)), config


def test_update_moves_mass_toward_the_release():
    session, _ = skewed_session(seed=23)
    spike = np.zeros(8)
    spike[7] = 1.0
    answer = session.answer(spike)
    assert session.update_rounds == 1
    assert 1 <= session.release_count <= 4
    assert session.weights[7] > 1.0 / 8.0
    assert 0.9 <= answer <= 1.0
    assert abs(session.weights.sum() - 1.0) <= 1e-12


def test_a_guess_above_the_sample_mean_moves_the_histogram_down():
    records = np.zeros(3200, dtype=int)
    config = make_mwu_config(8, 3200, 50, 1.0, 1e-6, 0.05, alpha_override=0.3)
    session = MwuSession(config, Dataset(records), RandomStream(27))
    rest = np.ones(8)
    rest[0] = 0.0
    # The guess is 7/8, the sample mean 0.
    answer = session.answer(rest)
    assert session.update_rounds == 1
    assert 1 <= session.release_count <= 4
    assert 0.0 <= answer <= 0.1
    assert session.weights[0] > 1.0 / 8.0
    assert session.weights @ rest < 7.0 / 8.0


def test_each_comparison_is_one_svt_query(monkeypatch):
    # Every comparison hands the SVT one value, |mean - center| - radius bit
    # for bit, with the radius for its kind: alpha for the guess, alpha/2
    # per release.
    values, expected, radii = [], [], []
    process, within = RepetitiveSvt.process, MwuSession._within

    def counted(self, value):
        values.append(value)
        return process(self, value)

    def spied(self, mean, center, radius):
        expected.append(abs(mean - center) - radius)
        radii.append(radius)
        return within(self, mean, center, radius)

    monkeypatch.setattr(RepetitiveSvt, "process", counted)
    monkeypatch.setattr(MwuSession, "_within", spied)
    session, config = uniform_session(seed=21)
    generator = np.random.default_rng(5)
    for _ in range(20):
        session.answer(generator.random(16))
    assert session.update_rounds == 0
    assert radii == [config.alpha] * 20
    assert [float(v).hex() for v in values] == [v.hex() for v in expected]

    session, config = skewed_session(seed=24)
    spike = np.zeros(8)
    spike[7] = 1.0
    paths = set()
    for _ in range(40):
        values.clear()
        expected.clear()
        radii.clear()
        rounds, releases = session.update_rounds, session.release_count
        session.answer(spike)
        released = session.release_count - releases
        paths.add(session.update_rounds - rounds)
        assert radii == [config.alpha] + [config.alpha / 2.0] * released
        assert [float(v).hex() for v in values] == [v.hex() for v in expected]
    assert paths == {0, 1}


def test_a_session_reads_its_records_once():
    # The records are read at construction; answers, releases and updates
    # read none.
    session, _ = skewed_session(seed=24)
    spike = np.zeros(8)
    spike[7] = 1.0
    for _ in range(40):
        session.answer(spike)
    assert session.update_rounds >= 1
    assert session.release_count >= 1
    assert session.dataset.access_count == 1


def test_repeated_query_settles_without_oscillation():
    session, config = skewed_session(seed=24)
    spike = np.zeros(8)
    spike[7] = 1.0
    answers = [session.answer(spike) for _ in range(40)]
    assert 10 <= session.update_rounds < 40
    assert session.update_rounds <= config.svt.k_prime
    # after the histogram catches up the guess path takes over for good
    assert len(set(answers[-5:])) == 1
    assert answers[-1] >= 1.0 - config.alpha - 0.05


def test_noise_dominated_session_halts_on_budget():
    # at n = 4 the test noise dwarfs alpha, so every query burns budget
    records = np.array([0, 1, 2, 3])
    config = make_mwu_config(16, 4, 3, 0.05, 1e-6, 0.05, alpha_override=0.45)
    session = MwuSession(config, Dataset(records), RandomStream(25))
    spike = np.zeros(16)
    spike[0] = 1.0
    for _ in range(60):
        try:
            session.answer(spike)
        except HaltedError:
            break
        finally:
            # every update follows a failed check, which charged a batch
            assert session.update_rounds <= session._svt.charged
    assert session.halted
    assert session._svt.charged == config.svt.k_prime
    with pytest.raises(HaltedError):
        session.answer(spike)
    # each Laplace release is one TOP unit on the session's own ledger
    charged = session._svt.charged + session.release_count
    assert session.release_count >= session.update_rounds >= 1
    cost = session.state.pure_cost()
    expected = (2 * charged + config.svt.gamma) * config.svt.epsilon_prime
    assert cost.epsilon == pytest.approx(expected, rel=1e-12)
    assert cost.delta == 0.0
    ledger = AccountantLedger(
        base_epsilon=config.svt.epsilon_prime, top_responses=charged
    )
    assert session.state.approx_cost(1e-6) == pytest.approx(
        approx_dp_cost(ledger, config.svt.gamma, 1e-6), rel=1e-12
    )


def test_a_halted_answer_charges_counts_and_reads_nothing():
    records = np.array([0, 1, 2, 3])
    config = make_mwu_config(16, 4, 3, 0.05, 1e-6, 0.05, alpha_override=0.45)
    dataset = Dataset(records)
    session = MwuSession(config, dataset, RandomStream(25))
    spike = np.zeros(16)
    spike[0] = 1.0
    with pytest.raises(HaltedError):
        for _ in range(60):
            session.answer(spike)
    assert session.halted

    def snapshot():
        ledger = session.state.ledger
        return (ledger.base_epsilon, ledger.selection_calls, ledger.top_responses,
                ledger.delta_mass, session.release_count, session.update_rounds,
                session._svt.charged, dataset.access_count)

    before = snapshot()
    for _ in range(3):
        with pytest.raises(HaltedError):
            session.answer(spike)
    assert snapshot() == before


def test_releases_are_redrawn_at_a_borderline_recheck():
    # A batch of tau tests settles all-BOT only when the value sits about
    # scale * ln(tau) below the threshold, scale = sensitivity / epsilon'.
    # epsilon' does not depend on n, so n = 2 ln(tau) / (alpha epsilon')
    # puts alpha / 2 at that margin: the re-check of a release, whose own
    # noise has the same scale, then fails often but not always.
    universe, alpha = 16, 0.3
    probe = make_mwu_config(universe, 100, 10, 1.0, 1e-6, 0.05, alpha_override=alpha)
    margin = math.log(probe.svt.tau)
    n = round(2.0 * margin / (alpha * probe.svt.epsilon_prime))
    config = make_mwu_config(universe, n, 10, 1.0, 1e-6, 0.05, alpha_override=alpha)
    scale = config.svt.sensitivity / config.svt.epsilon_prime
    assert scale * margin == pytest.approx(alpha / 2.0, rel=1e-2)
    # Every record is element 0, so the spike query sits far from the guess.
    spike = np.zeros(universe)
    spike[0] = 1.0
    cap = 1 + mwu._REDRAW_LIMIT
    redrawn = capped = 0
    for seed in range(40):
        session = MwuSession(config, Dataset(np.zeros(n, dtype=int)), RandomStream(9150 + seed))
        for _ in range(10):
            try:
                session.answer(spike)
            except HaltedError:
                break
            finally:
                assert session.update_rounds <= session.release_count
                assert session.release_count <= cap * session.update_rounds
        redrawn += session.release_count > session.update_rounds
        capped += session.release_count == cap * session.update_rounds
    assert redrawn >= 1
    # Some session also accepted a release before the redraw cap.
    assert capped < 40


def test_finished_session_is_freed_without_the_cyclic_collector():
    # A reference cycle through a session would keep its dataset alive until
    # the cyclic collector runs.
    gc.disable()
    try:
        session, _ = skewed_session(seed=26)
        spike = np.zeros(8)
        spike[7] = 1.0
        for _ in range(5):
            session.answer(spike)
        assert session.update_rounds >= 1
        refs = [weakref.ref(session), weakref.ref(session._svt), weakref.ref(session.state)]
        del session
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_empirical_answerer_reports_sample_means():
    answerer = oracles.EmpiricalAnswerer(Dataset(np.array([0, 0, 1, 3])), 4)
    values = np.array([1.0, 0.5, 0.0, 0.25])
    assert answerer.answer(values) == pytest.approx(
        (2 * 1.0 + 0.5 + 0.25) / 4.0, rel=1e-15
    )
    assert answerer.answer(LinearQuery(values)) == answerer.answer(values)


def test_fixed_pool_cycles_and_ignores_answers():
    checked = LinearQuery(np.ones(4))
    pool = FixedPoolAdversary([np.zeros(4), checked])
    first = pool.next_query()
    assert isinstance(first, LinearQuery)
    pool.observe(0.5)
    assert pool.next_query() is checked
    assert pool.next_query() is first
    # The pool is checked once, when it is built.
    with pytest.raises(ParameterError, match=r"\[0, 1\]"):
        FixedPoolAdversary([np.zeros(4), np.full(4, 1.5)])


def test_fixed_pool_refuses_an_empty_pool():
    # refused when built, not by a ZeroDivisionError on the first query
    with pytest.raises(ParameterError, match="pool must not be empty"):
        FixedPoolAdversary([])


def test_half_subsets_are_uniform_and_independent_across_blocks():
    size = 4
    rows = 3 * (mwu._BLOCK_ENTRIES // size) + 7
    subsets = mwu._half_subsets(np.random.default_rng(9140), size)
    drawn = np.array([next(subsets) for _ in range(rows)])
    assert set(np.unique(drawn)) == {0.0, 1.0}
    assert (drawn.sum(axis=1) == size // 2).all()
    # Label each row by its subset: the 6 two-element subsets of 4.
    codes = drawn @ (2.0 ** np.arange(size))
    labels = np.searchsorted([3, 5, 6, 9, 10, 12], codes)
    assert stats.chisquare(np.bincount(labels, minlength=6)).pvalue > 1e-3
    # Consecutive rows, within a block and across its boundary, are independent.
    pairs = 6 * labels[:-1] + labels[1:]
    assert stats.chisquare(np.bincount(pairs, minlength=36)).pvalue > 1e-3


def test_half_subset_block_is_one_row_at_a_large_universe():
    size = 2**20
    tracemalloc.start()
    try:
        query = RandomSubsetAdversary(size, RandomStream(9141)).next_query()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert query.values.sum() == size // 2
    # The kept template and the shuffled block, one row of 8 MiB each.
    assert peak < 3 * 8 * size


def test_random_adversaries_draw_from_one_helper():
    # 64 is the benchmark's universe; at 2**12 a block holds two rows.
    for size in (64, 2**12):
        block_rows = max(1, mwu._BLOCK_ENTRIES // size)
        for seed in range(3):
            expected = oracles.half_subsets_loop(RandomStream(seed).generator, size, block_rows)
            overfitting = OverfittingAdversary(size, RandomStream(seed), probes=block_rows + 3)
            subsets = RandomSubsetAdversary(size, RandomStream(seed))
            issued = []
            for _ in range(block_rows + 3):  # across a block boundary
                row = next(expected)
                for query in (overfitting.next_query(), subsets.next_query()):
                    assert isinstance(query, LinearQuery)
                    assert not query.values.flags.writeable
                    assert np.array_equal(query.values, row)
                overfitting.observe(0.7)
                issued.append(query)
            # The benchmark's own read of the issued queries: one stacked table.
            stacked = np.asarray(issued, dtype=float)
            assert stacked.shape == (len(issued), size)
            assert all(np.array_equal(line, q.values) for line, q in zip(stacked, issued))
            final = overfitting.next_query()
            assert isinstance(final, LinearQuery)
            assert np.array_equal(final.values, (overfitting._scores > 0).astype(float))
            assert overfitting.next_query() is final


def test_overfitting_final_query_falls_back_to_the_argmax():
    # Every probe answers at most 1/2, so each probe's elements lose a point
    # and the rest gain one.  Two probes that split a two-element universe
    # leave no score positive, and the final query keeps the argmax element
    # alone rather than no element; two equal probes keep the element both left out.
    splits = 0
    for seed in range(20):
        adversary = OverfittingAdversary(2, RandomStream(seed), probes=2)
        probes = []
        for answer in (0.5, 0.0):
            probes.append(adversary.next_query().values.tolist())
            adversary.observe(answer)
        final = adversary.next_query().values.tolist()
        if probes[0] != probes[1]:
            splits += 1
            assert adversary._scores.tolist() == [0.0, 0.0]
            assert final == [1.0, 0.0]
        else:
            assert final == [1.0 - v for v in probes[0]]
    assert 0 < splits < 20


def test_query_table_rows_are_read_only_views_in_order():
    table = np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 1.0]])
    queries = list(LinearQuery.rows(table))
    assert not table.flags.writeable
    assert [query.values.tolist() for query in queries] == table.tolist()
    assert all(np.shares_memory(query.values, table) for query in queries)
    with pytest.raises(ValueError):
        queries[0].values[0] = 0.5
    assert np.asarray(queries[1]) is queries[1].values
    copied = np.array(queries[1], dtype=np.float32)
    assert copied.dtype == np.float32 and copied.tolist() == [0.25, 0.5]


def empirical_harness(probabilities, n=10, m=5, trials=1):
    universe = len(probabilities)
    return adaptive_harness(
        np.asarray(probabilities),
        n,
        m,
        lambda u, s: RandomSubsetAdversary(u, s),
        lambda ds, s: oracles.EmpiricalAnswerer(ds, universe),
        trials=trials,
        stream=RandomStream(0),
    )


def test_harness_validates_distribution():
    for bad in ([0.5, 0.6], [0.5, np.nan], [1.5, -0.5], [np.inf, 0.0]):
        with pytest.raises(ParameterError):
            empirical_harness(bad)


def test_harness_refuses_a_bad_sample_size():
    for name in ("n", "m", "trials"):
        for bad in (0, -1, 2.5, 10.0):
            with pytest.raises(ParameterError, match=f"{name} must be a positive integer"):
                empirical_harness([0.5, 0.5], **{name: bad})


class _ScriptedAnswerer:
    def __init__(self, answers):
        self._answers = iter(answers)

    def answer(self, query) -> float:
        return next(self._answers)


def test_harness_counts_a_nan_answer_as_unbounded():
    # max(worst, nan) keeps the old worst, which would report a NaN as no error
    for script in ([math.nan] * 3, [0.5, math.nan, 0.5]):
        report = adaptive_harness(
            np.array([0.5, 0.5]), 10, 3, lambda u, s: RandomSubsetAdversary(u, s),
            lambda ds, s: _ScriptedAnswerer(script), trials=2, stream=RandomStream(0),
        )
        assert report.empirical_errors.tolist() == [math.inf] * 2
        assert report.population_errors.tolist() == [math.inf] * 2
        assert report.failure_fraction(0.5) == 1.0


def test_harness_draws_within_the_sum_tolerance():
    # sum(p[:-1]) exceeds 1 by 8e-10: inside the harness's 1e-9 tolerance,
    # outside the 1e-12 that numpy's multinomial allows unnormalised
    report = empirical_harness([0.5 + 4e-10, 0.5 + 4e-10, 0.0], n=50, trials=3)
    assert report.empirical_errors.max() <= 1e-12


class _ConstantAnswerer:
    def answer(self, query) -> float:
        return 0.5


class _HaltingAnswerer:
    """Answers 0.25 to its first ``limit`` queries, then halts."""

    def __init__(self, limit):
        self._left = limit

    def answer(self, query) -> float:
        if self._left == 0:
            raise HaltedError("halted")
        self._left -= 1
        return 0.25


class _RewritingAdversary:
    """Issues one array, rewritten in place with fresh values for each query."""

    def __init__(self, size, stream):
        self._generator = stream.generator
        self._values = np.empty(size)

    def next_query(self):
        self._values[:] = self._generator.random(self._values.size)
        return self._values

    def observe(self, answer: float) -> None:
        pass


def _zipf(universe):
    weights = 1.0 / np.arange(1, universe + 1)
    return weights / weights.sum()


def _session_factory(universe, n, m):
    config = make_mwu_config(universe, n, m, 1.0, 1e-6, 0.05, alpha_override=0.3)
    return lambda ds, s: MwuSession(config, ds, s)


HARNESS_UNIVERSE, HARNESS_N, HARNESS_M, HARNESS_TRIALS = 8, 2000, 12, 3
HARNESS_CASES = {
    "constant": (RandomSubsetAdversary, lambda ds, s: _ConstantAnswerer()),
    "session": (RandomSubsetAdversary, _session_factory(HARNESS_UNIVERSE, HARNESS_N, HARNESS_M)),
    "nan": (RandomSubsetAdversary,
            lambda ds, s: _ScriptedAnswerer([0.3, math.nan] + [0.6] * (HARNESS_M - 2))),
    "halt": (RandomSubsetAdversary, lambda ds, s: _HaltingAnswerer(7)),
    "rewrite": (_RewritingAdversary, lambda ds, s: _ConstantAnswerer()),
}


@pytest.mark.parametrize("block_queries", [None, 3])
@pytest.mark.parametrize("case", sorted(HARNESS_CASES))
def test_harness_scores_each_answer_as_a_query_loop_does(case, block_queries, monkeypatch):
    if block_queries is not None:  # several scored blocks per trial
        monkeypatch.setattr(mwu, "_SCORED_ENTRIES", block_queries * HARNESS_UNIVERSE)
    adversary_factory, answerer_factory = HARNESS_CASES[case]
    seen = []  # per trial: records, queries as issued, answers

    class Recorder:
        def __init__(self, inner):
            self.inner = inner

        def next_query(self):
            query = self.inner.next_query()
            seen[-1][1].append(np.array(query, dtype=float))
            return query

        def observe(self, answer):
            seen[-1][2].append(answer)
            self.inner.observe(answer)

    def answerer(dataset, stream):
        seen.append((np.asarray(dataset.records), [], []))
        return answerer_factory(dataset, stream)

    probabilities = _zipf(HARNESS_UNIVERSE)
    report = adaptive_harness(
        probabilities, HARNESS_N, HARNESS_M, lambda u, s: Recorder(adversary_factory(u, s)),
        answerer, HARNESS_TRIALS, RandomStream(9160), keep_rows=True,
    )
    worst, rows = oracles.harness_scores_loop(probabilities.tolist(), seen)
    for trial, (population, empirical) in enumerate(worst):
        assert math.isclose(report.population_errors[trial], population, rel_tol=1e-12)
        assert math.isclose(report.empirical_errors[trial], empirical, rel_tol=1e-12)
    assert len(report.rows) == len(rows)
    for got, want in zip(report.rows, rows):
        assert got[:2] == want[:2]
        assert got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2]))
        assert math.isclose(got[3], want[3], rel_tol=1e-12)
        assert math.isclose(got[4], want[4], rel_tol=1e-12)
    answered = 7 if case == "halt" else HARNESS_M
    assert len(rows) == HARNESS_TRIALS * answered
    assert report.halted.tolist() == [case == "halt"] * HARNESS_TRIALS
    if case == "nan":
        assert report.empirical_errors.tolist() == [math.inf] * HARNESS_TRIALS
        assert report.population_errors.tolist() == [math.inf] * HARNESS_TRIALS
    if case == "rewrite":  # every query was a fresh draw into the same array
        assert len({query.tobytes() for _, queries, _ in seen for query in queries}) == len(rows)
    if case == "session":
        assert report.update_rounds.max() >= 1


def test_harness_records_have_the_sampling_law():
    probabilities = np.array([0.1, 0.2, 0.3, 0.4])
    queries = [np.array([1.0, 0.0, 0.5, 0.25]), np.array([0.0, 1.0, 1.0, 0.0])]
    n = 20
    m = len(queries)
    datasets = []

    def answerer(dataset, stream):
        datasets.append(dataset)
        return _ConstantAnswerer()

    trials = 4000
    report = adaptive_harness(
        probabilities,
        n,
        m,
        lambda u, s: FixedPoolAdversary(queries),
        answerer,
        trials=trials,
        stream=RandomStream(9130),
        keep_rows=True,
    )
    assert len(datasets) == trials
    assert len(report.rows) == trials * m
    element_counts = []
    for trial, dataset in enumerate(datasets):
        records = np.asarray(dataset.records)
        assert records.size == n
        assert records.min() >= 0 and records.max() < probabilities.size
        frequencies = np.bincount(records, minlength=probabilities.size) / n
        rows = report.rows[trial * m : (trial + 1) * m]
        assert [row[:2] for row in rows] == [(trial, index) for index in range(m)]
        empirical = [abs(answer - frequencies @ queries[index]) for _, index, answer, *_ in rows]
        population = [abs(answer - probabilities @ queries[index]) for _, index, answer, *_ in rows]
        assert abs(max(empirical) - report.empirical_errors[trial]) <= 1e-12
        assert abs(max(population) - report.population_errors[trial]) <= 1e-12
        element_counts.append(int(np.sum(records == 1)))

    # element 1's count in a trial is Binomial(n, 0.2); pool the sparse tails
    observed = np.bincount(element_counts, minlength=n + 1).astype(float)
    expected = trials * stats.binom.pmf(np.arange(n + 1), n, probabilities[1])
    low, high = 1, 8
    observed = np.concatenate(
        [[observed[: low + 1].sum()], observed[low + 1 : high], [observed[high:].sum()]]
    )
    expected = np.concatenate(
        [[expected[: low + 1].sum()], expected[low + 1 : high], [expected[high:].sum()]]
    )
    assert expected.min() >= 5
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_session_updates_and_releases_on_a_skewed_population(monkeypatch):
    # Criterion 10's operating point on a Zipf(1) population, which sits far
    # from the uniform starting histogram, so the release loop and the
    # multiplicative update both run.
    universe = 64
    n = 48_029
    m = 500
    config = make_mwu_config(universe, n, m, 1.0, 1e-6, 1e-2)
    zipf = 1.0 / np.arange(1, universe + 1)
    sessions = []
    svt_queries = {}
    process = RepetitiveSvt.process

    def counted(self, query):
        svt_queries[self] = svt_queries.get(self, 0) + 1
        return process(self, query)

    monkeypatch.setattr(RepetitiveSvt, "process", counted)

    def answerer(dataset, stream):
        sessions.append(MwuSession(config, dataset, stream))
        return sessions[-1]

    report = adaptive_harness(
        zipf / zipf.sum(),
        n,
        m,
        lambda u, s: RandomSubsetAdversary(u, s),
        answerer,
        trials=20,
        stream=RandomStream(9120),
    )
    for session in sessions:
        assert 1 <= session.update_rounds <= config.svt.k_prime
        assert session.release_count >= session.update_rounds
        # One SVT query per answer and one per release, at most four
        # releases per update round: m + 4 * update rounds in all.
        assert svt_queries[session._svt] == m + session.release_count
        assert svt_queries[session._svt] <= m + 4 * session.update_rounds
    assert not report.halted.any()
    assert report.empirical_errors.max() <= config.alpha


def test_fixed_queries_sit_at_the_chernoff_scale():
    universe = 64
    generator = np.random.default_rng(9)
    pool = []
    for _ in range(100):
        values = np.zeros(universe)
        values[generator.permutation(universe)[: universe // 2]] = 1.0
        pool.append(values)
    report = adaptive_harness(
        np.full(universe, 1.0 / universe),
        10_000,
        100,
        lambda u, s: FixedPoolAdversary(pool),
        lambda ds, s: oracles.EmpiricalAnswerer(ds, universe),
        trials=200,
        stream=RandomStream(31),
    )
    bound = oracles.chernoff_uniform_bound(10_000, 100, 0.01)
    assert np.mean(report.population_errors > bound) <= 0.05
    median = float(np.median(report.population_errors))
    assert 0.2 * bound <= median <= bound


def test_overfitting_attack_separates_naive_from_private():
    universe = 64
    n = 48_029
    probabilities = np.full(universe, 1.0 / universe)

    def naive(probes, seed, trials=12):
        report = adaptive_harness(
            probabilities,
            n,
            probes + 1,
            lambda u, s: OverfittingAdversary(u, s, probes=probes),
            lambda ds, s: oracles.EmpiricalAnswerer(ds, universe),
            trials=trials,
            stream=RandomStream(seed),
        )
        return float(np.median(report.population_errors))

    deep = naive(200, 41)
    shallow = naive(25, 42)
    assert deep >= 0.006
    assert deep >= 1.5 * shallow

    config = make_mwu_config(universe, n, 201, 1.0, 1e-6, 1e-2)
    private = adaptive_harness(
        probabilities,
        n,
        201,
        lambda u, s: OverfittingAdversary(u, s, probes=200),
        lambda ds, s: MwuSession(config, ds, s),
        trials=12,
        stream=RandomStream(43),
    )
    assert private.population_errors.max() <= config.alpha
    assert deep >= 2.0 * max(float(np.median(private.population_errors)), 1e-4)
    assert private.update_rounds.max() <= config.svt.k_prime
    assert not private.halted.any()
