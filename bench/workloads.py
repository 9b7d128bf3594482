"""The four benchmark workloads: inputs, the timed op, and its checks.

Each workload builds its inputs from the seed in ``__init__`` (that is part
of set-up), runs one op in ``op(index)`` (the only code the benchmark
times), checks the op's output in ``check`` (untimed, raising
``CheckFailed``), and checks what needs the whole run in ``finish``, which returns (passed,
description) pairs.  Op
``index`` draws its randomness from ``RandomStream(seed).split(index)``, so
a seed fixes every op's input.  ``check`` returns a plain record of the
op's outputs; the benchmark hashes the records of its first ops into a
digest.
"""

from __future__ import annotations

import math

import numpy as np

from dpselect import coingame, core, mwu, selectapps
from dpselect.noise import RandomStream

from checks import (
    binomial_upper_quantile,
    empty_rate,
    require,
    require_close,
    transcript_e_value,
    transcript_max_log_ratio,
)


class GateSessions:
    """Many cheap gated sessions: init, one selection, four tests, one batch."""

    name = "gate-sessions"
    GAMMAS = (0.5, 1.0, 2.0)
    EPSILON = 0.1
    TAU = 20
    SCALAR_TESTS = 4
    BATCH = 50
    BATCH_TOP = 0.02
    SCALAR_TOP = 0.25
    DELTA_TARGET = 1e-6

    def __init__(self, seed: int, sessions: int = 100):
        self.root = RandomStream(seed)
        self.sessions = sessions
        self.records = self.root.generator.random(8)
        self.evaluations = 0
        self.mechanism = core.Mechanism(run=self._mechanism_body, epsilon=self.EPSILON)
        self.scalar = core.Hypothesis(run=self._hypothesis_body, epsilon=self.EPSILON)
        self.batch = core.Hypothesis(
            run=self._hypothesis_body,
            epsilon=self.EPSILON,
            top_probability=lambda dataset: self.BATCH_TOP,
        )
        self.empties = {gamma: 0 for gamma in self.GAMMAS}
        self.drawn = {gamma: 0 for gamma in self.GAMMAS}

    def _mechanism_body(self, dataset, stream):
        self.evaluations += 1
        return float(dataset.fetch()[0]) + stream.generator.random()

    def _hypothesis_body(self, dataset, stream):
        self.evaluations += 1
        dataset.fetch()
        return core.TOP if stream.generator.random() < self.SCALAR_TOP else core.BOT

    def op(self, index: int):
        sessions = []
        for s in range(self.sessions):
            gamma = self.GAMMAS[s % len(self.GAMMAS)]
            dataset = core.Dataset(self.records)
            before = self.evaluations
            state = core.init(gamma, dataset, self.root.split(index, s))
            best = state.selection(self.TAU, [self.mechanism])
            verdicts = [state.test(self.scalar) for _ in range(self.SCALAR_TESTS)]
            passed = state.test_batch(self.batch, self.BATCH)
            sessions.append((
                gamma, state, dataset, best, verdicts, passed,
                state.pure_cost(), state.approx_cost(self.DELTA_TARGET),
                self.evaluations - before,
            ))
        return sessions

    def check(self, index: int, sessions):
        record = []
        low = float(self.records[0])
        for gamma, state, dataset, best, verdicts, passed, pure, approx, bodies in sessions:
            require(all(v in (core.TOP, core.BOT) for v in verdicts), f"verdicts {verdicts}")
            tops = sum(v is core.TOP for v in verdicts) + (0 if passed else 1)
            ledger = state.ledger
            require(ledger.selection_calls == 1, f"selection_calls {ledger.selection_calls} != 1")
            require(ledger.top_responses == tops, f"top_responses {ledger.top_responses} != {tops}")
            require(ledger.delta_mass == 0.0, f"delta_mass {ledger.delta_mass} != 0")
            require(dataset.access_count == bodies,
                    f"dataset accesses {dataset.access_count} != body runs {bodies}")
            require_close(pure.epsilon, (2 + 2 * tops + gamma) * self.EPSILON, 1e-12, "pure_cost")
            require(pure.delta == 0.0, f"pure_cost delta {pure.delta} != 0")
            empty = best is core.EMPTY
            require(empty or low <= best < low + 1.0, f"selection returned {best!r}")
            record.append((gamma, None if empty else best, [v.value for v in verdicts],
                           passed, pure.epsilon, approx.epsilon, approx.delta))
        # The EMPTY rate is tallied over the sessions of ops that passed.
        for gamma, _, _, best, *_ in sessions:
            self.drawn[gamma] += 1
            self.empties[gamma] += best is core.EMPTY
        return record

    def finish(self):
        verdicts = []
        for gamma in self.GAMMAS:
            drawn = self.drawn[gamma]
            if drawn == 0:
                continue
            expected = empty_rate(gamma, self.TAU)
            error = 5.0 * math.sqrt(expected * (1.0 - expected) / drawn)
            observed = self.empties[gamma] / drawn
            verdicts.append((
                abs(observed - expected) <= error,
                f"EMPTY rate at gamma={gamma}: {observed:.5f} over {drawn} sessions, "
                f"expected {expected:.5f} +- {error:.5f} (5 s.e.)",
            ))
        return verdicts


class _RecordingAdversary:
    """A RandomSubsetAdversary whose queries and observed answers are kept."""

    def __init__(self, universe_size: int, stream: RandomStream):
        self.inner = mwu.RandomSubsetAdversary(universe_size, stream)
        self.queries = []
        self.answers = []

    def next_query(self):
        query = self.inner.next_query()
        self.queries.append(query)
        return query

    def observe(self, answer: float) -> None:
        self.answers.append(answer)
        self.inner.observe(answer)


class MwuAdaptive:
    """One analyst session per op at criterion 10's solved operating point."""

    name = "mwu-adaptive"
    UNIVERSE = 64
    EPSILON = 1.0
    DELTA = 1e-6
    BETA = 1e-2
    ALLOWANCE_TAIL = 1e-6

    def __init__(self, seed: int, n: int = 48029, m: int = 500):
        self.root = RandomStream(seed)
        self.n = n
        self.m = m
        self.config = mwu.make_mwu_config(self.UNIVERSE, n, m, self.EPSILON, self.DELTA, self.BETA)
        zipf = 1.0 / np.arange(1, self.UNIVERSE + 1)
        self.probabilities = zipf / zipf.sum()
        self.sessions = 0
        self.inaccurate = 0

    def op(self, index: int):
        made = []

        def adversary(size, stream):
            made.append(_RecordingAdversary(size, stream))
            return made[-1]

        def answerer(dataset, stream):
            made.append(mwu.MwuSession(self.config, dataset, stream))
            return made[-1]

        report = mwu.adaptive_harness(
            self.probabilities, self.n, self.m, adversary, answerer, 1, self.root.split(index)
        )
        session, recorder = made
        return report, session, recorder

    def check(self, index: int, output):
        report, session, recorder = output
        records = np.asarray(session.dataset.records)
        require(records.size == self.n, f"{records.size} records, expected {self.n}")
        means = np.bincount(records, minlength=self.UNIVERSE) / self.n
        answers = np.asarray(recorder.answers, dtype=float)
        queries = np.asarray(recorder.queries[: answers.size], dtype=float)
        halted = bool(report.halted[0])
        require(halted or answers.size == self.m, f"{answers.size} answers of {self.m} queries")
        require(bool(np.all((answers >= 0.0) & (answers <= 1.0))), "answer outside [0, 1]")
        worst = float(np.max(np.abs(answers - queries @ means))) if answers.size else 0.0
        require(abs(worst - float(report.empirical_errors[0])) <= 1e-12,
                f"harness empirical error {report.empirical_errors[0]} != own {worst}")
        rounds = int(report.update_rounds[0])
        require(rounds == session.update_rounds, "report and session disagree on update rounds")
        require(1 <= rounds <= self.config.svt.k_prime,
                f"update_rounds {rounds} outside [1, {self.config.svt.k_prime}]")
        self.sessions += 1
        self.inaccurate += worst > self.config.alpha
        return (answers.tolist(), worst, rounds, session.release_count, halted)

    def allowed_inaccurate(self, sessions: int) -> int:
        return binomial_upper_quantile(sessions, self.BETA, self.ALLOWANCE_TAIL)

    def finish(self):
        allowed = self.allowed_inaccurate(self.sessions)
        return [(self.inaccurate <= allowed,
                 f"{self.inaccurate} of {self.sessions} sessions erred above "
                 f"alpha={self.config.alpha:.6f}; at most {allowed} allowed")]


class TopkBoost:
    """One boosted top-k selection per op, at the topk-bench defaults."""

    name = "topk-boost"
    M = 40
    K = 5
    EPSILON = 0.9
    DELTA = 1e-4
    BETA = 0.2
    LIFT = 1e4

    def __init__(self, seed: int, budget_cap: int = 1000):
        self.root = RandomStream(seed)
        self.budget_cap = budget_cap
        generator = self.root.generator
        scores = generator.permutation(self.M).astype(float)
        top = generator.choice(self.M, self.K, replace=False)
        scores[top] += self.LIFT
        self.scores = scores
        self.top = frozenset(int(i) for i in top)
        self.family = selectapps.ScoreFamily.from_table(self.M)
        self.ops = 0
        self.exact = 0

    def op(self, index: int):
        return selectapps.topk_select(
            self.family, self.K, self.EPSILON, self.DELTA, self.BETA,
            core.Dataset(self.scores), self.root.split(index), budget_cap=self.budget_cap,
        )

    def check(self, index: int, result):
        indices = sorted(result.indices)
        require(len(indices) == self.K and len(set(indices)) == self.K,
                f"{indices} are not {self.K} distinct indices")
        require(all(isinstance(i, int) and 0 <= i < self.M for i in indices),
                f"{indices} out of range")
        require_close(result.cost.epsilon, self.EPSILON, 1e-12, "cost.epsilon")
        require(math.isfinite(result.certificate), f"certificate {result.certificate}")
        self.ops += 1
        self.exact += frozenset(indices) == self.top
        return (indices, result.certificate, result.fallback, result.cost.epsilon, result.cost.delta)

    def finish(self):
        return [(self.exact >= (1.0 - self.BETA) * self.ops,
                 f"exact top {self.K} on {self.exact} of {self.ops} ops; "
                 f"a 1 - beta = {1.0 - self.BETA} share is needed")]


class CoinAudit:
    """Exact coin-game divergences of one random promise-respecting schedule per op."""

    name = "coin-audit"
    EPSILON = 0.1
    ALPHAS = (1.5, 2.0)
    KS = (1, 2, 3, 4)
    REL = 1e-9

    def __init__(self, seed: int, length: int = 200, cap: int = 18):
        self.root = RandomStream(seed)
        self.length = length
        self.cap = cap

    def op(self, index: int):
        adversary = coingame.random_valid_schedule(self.root.split(index), self.length, self.EPSILON)
        full = {alpha: coingame.exact_renyi(adversary, alpha) for alpha in self.ALPHAS}
        full["max"] = coingame.exact_max_divergence(adversary)
        capped = {}
        for k in self.KS:
            for alpha in self.ALPHAS:
                capped[k, alpha] = coingame.transcript_renyi(adversary, k, alpha, self.cap)
            capped[k, "max"] = coingame.transcript_max_log_ratio(adversary, k, self.cap)
        return adversary, full, capped

    def _check_game(self, ps, qs, k, cap, values, what):
        eps = self.EPSILON
        for alpha in self.ALPHAS:
            e_value = values[alpha]
            require_close(e_value, transcript_e_value(ps, qs, k, cap, alpha), self.REL,
                          f"{what} E-value alpha={alpha}")
            divergence = math.log(e_value) / (alpha - 1.0)
            require(divergence <= 3.0 * k * alpha * eps**2 + 1e-9,
                    f"{what} D_{alpha} = {divergence} > 3 k alpha eps^2")
        require_close(values["max"], transcript_max_log_ratio(ps, qs, k, cap), self.REL,
                      f"{what} max log-ratio")
        require(values["max"] <= k * eps + 1e-12, f"{what} D_inf = {values['max']} > k eps")

    def check(self, index: int, output):
        adversary, full, capped = output
        require(len(adversary) == self.length, f"schedule length {len(adversary)}")
        ps = [pair.p for pair in adversary.pairs]
        qs = [pair.q for pair in adversary.pairs]
        self._check_game(ps, qs, 1, self.length, full, "k=1 full length")
        for k in self.KS:
            values = {key: capped[k, key] for key in (*self.ALPHAS, "max")}
            self._check_game(ps, qs, k, self.cap, values, f"k={k} cap={self.cap}")
        return [(str(key), value) for key, value in (*full.items(), *capped.items())]

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (GateSessions, MwuAdaptive, TopkBoost, CoinAudit)}
