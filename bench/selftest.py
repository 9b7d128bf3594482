"""Self-tests of the benchmark: tiny workloads pass, corrupted outputs fail.

    python3 bench/selftest.py

Each workload runs a few ops at a tiny size and must pass every check; each
checker is then fed one corrupted value and must raise.  The digest and the
traced counts must repeat for a seed and change with it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    binomial_upper_quantile,
    empty_rate,
    transcript_e_value,
    transcript_max_log_ratio,
)
from tracing import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, CoinAudit, GateSessions, MwuAdaptive, TopkBoost  # noqa: E402

from dpselect import coingame  # noqa: E402
from dpselect.noise import RandomStream  # noqa: E402

TINY = {
    GateSessions: {"sessions": 6},
    MwuAdaptive: {"m": 100},
    TopkBoost: {"budget_cap": 40},
    CoinAudit: {"length": 20, "cap": 8},
}
OPS = 3


def tiny(cls, seed: int = 7):
    return cls(seed, **TINY[cls])


def passes(workload) -> bool:
    return all(passed for passed, _ in workload.finish())


def outputs(workload, ops: int = OPS):
    return [workload.op(index) for index in range(ops)]


class TinyWorkloadsPass(unittest.TestCase):
    def test_every_check_passes(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                workload = tiny(cls)
                for index, output in enumerate(outputs(workload)):
                    workload.check(index, output)
                self.assertTrue(passes(workload))


class CheckersCatchCorruption(unittest.TestCase):
    def test_coin_e_value_off_by_1e6(self):
        workload = tiny(CoinAudit)
        adversary, full, capped = workload.op(0)
        workload.check(0, (adversary, full, capped))
        for key in capped:
            with self.subTest(key=key):
                bad = dict(capped)
                bad[key] = capped[key] * (1.0 + 1e-6)
                with self.assertRaises(CheckFailed):
                    workload.check(0, (adversary, full, bad))
        bad = dict(full)
        bad[2.0] = full[2.0] * (1.0 + 1e-6)
        with self.assertRaises(CheckFailed):
            workload.check(0, (adversary, bad, capped))

    def test_coin_divergence_bounds(self):
        # A schedule breaking the closeness promise breaks the k * eps bound.
        workload = tiny(CoinAudit)
        adversary, full, capped = workload.op(0)
        loose = coingame.DeterministicAdversary.from_probabilities(
            [(0.5, 0.4)] * workload.length, 0.5
        )
        full = {alpha: coingame.exact_renyi(loose, alpha) for alpha in workload.ALPHAS}
        full["max"] = coingame.exact_max_divergence(loose)
        with self.assertRaises(CheckFailed):
            workload.check(0, (loose, full, capped))

    def test_topk_one_swapped_index(self):
        workload = tiny(TopkBoost)
        results = outputs(workload)
        outside = min(set(range(workload.M)) - workload.top)
        for index, result in enumerate(results):
            swapped = sorted(result.indices)[1:] + [outside]
            workload.check(index, dataclasses.replace(result, indices=frozenset(swapped)))
        self.assertFalse(passes(workload))

    def test_topk_duplicate_or_missing_index_and_cost(self):
        workload = tiny(TopkBoost)
        result = workload.op(0)
        short = frozenset(sorted(result.indices)[1:])
        with self.assertRaises(CheckFailed):
            workload.check(0, dataclasses.replace(result, indices=short))
        cost = result.cost._replace(epsilon=result.cost.epsilon * (1 + 1e-9))
        with self.assertRaises(CheckFailed):
            workload.check(0, dataclasses.replace(result, cost=cost))

    def test_gate_one_extra_ledger_charge(self):
        for field in ("top_responses", "selection_calls"):
            with self.subTest(field=field):
                workload = tiny(GateSessions)
                sessions = workload.op(0)
                ledger = sessions[-1][1].ledger
                setattr(ledger, field, getattr(ledger, field) + 1)
                with self.assertRaises(CheckFailed):
                    workload.check(0, sessions)

    def test_gate_pure_cost_and_access_count(self):
        workload = tiny(GateSessions)
        sessions = workload.op(0)
        entry = list(sessions[0])
        entry[6] = entry[6]._replace(epsilon=entry[6].epsilon + 1e-9)
        with self.assertRaises(CheckFailed):
            workload.check(0, [tuple(entry)])
        sessions[0][2].fetch()
        with self.assertRaises(CheckFailed):
            workload.check(0, sessions[:1])

    def test_gate_empty_rate(self):
        workload = tiny(GateSessions)
        for gamma in workload.GAMMAS:
            workload.drawn[gamma] = 3000
            workload.empties[gamma] = round(3000 * empty_rate(gamma, workload.TAU))
        self.assertTrue(passes(workload))
        workload.empties[1.0] += 60
        self.assertFalse(passes(workload))

    def test_mwu_corrupted_answer_and_rounds(self):
        workload = tiny(MwuAdaptive)
        report, session, recorder = workload.op(0)
        workload.check(0, (report, session, recorder))
        # Move one answer further from its sample mean than the worst one was.
        means = np.bincount(session.dataset.records, minlength=workload.UNIVERSE) / workload.n
        truth = float(recorder.queries[3] @ means)
        worst = float(report.empirical_errors[0]) + 0.05
        recorder.answers[3] = truth + worst if truth + worst <= 1.0 else truth - worst
        with self.assertRaises(CheckFailed):
            workload.check(0, (report, session, recorder))
        report, session, recorder = workload.op(1)
        report.update_rounds[0] = session.update_rounds = 0
        with self.assertRaises(CheckFailed):
            workload.check(1, (report, session, recorder))

    def test_mwu_inaccurate_share(self):
        workload = tiny(MwuAdaptive)
        workload.sessions = 1000
        workload.inaccurate = workload.allowed_inaccurate(1000)
        self.assertTrue(passes(workload))
        workload.inaccurate += 1
        self.assertFalse(passes(workload))


class ReferenceValues(unittest.TestCase):
    def test_recurrence_matches_brute_force(self):
        schedule = coingame.random_valid_schedule(RandomStream(3), 9, 0.2)
        ps = [pair.p for pair in schedule.pairs]
        qs = [pair.q for pair in schedule.pairs]

        def transcripts(k, cap, t=0, ones=0, mass_p=1.0, mass_q=1.0):
            if ones == k or t == cap:
                yield mass_p, mass_q
                return
            yield from transcripts(k, cap, t + 1, ones + 1, mass_p * ps[t], mass_q * qs[t])
            yield from transcripts(
                k, cap, t + 1, ones, mass_p * (1 - ps[t]), mass_q * (1 - qs[t])
            )

        for k in (1, 2, 3):
            masses = list(transcripts(k, 9))
            self.assertAlmostEqual(sum(p for p, _ in masses), 1.0, places=12)
            e_value = sum(p**1.5 * q**-0.5 for p, q in masses)
            self.assertAlmostEqual(transcript_e_value(ps, qs, k, 9, 1.5), e_value, places=12)
            worst = max(math.log(p / q) for p, q in masses)
            self.assertAlmostEqual(transcript_max_log_ratio(ps, qs, k, 9), worst, places=12)

    def test_binomial_quantile(self):
        self.assertEqual(binomial_upper_quantile(10, 0.5, 1 / 1024 + 1e-15), 9)
        self.assertEqual(binomial_upper_quantile(10, 0.5, 1 / 1024 - 1e-15), 10)

    def test_empty_rate_at_gamma_one(self):
        self.assertAlmostEqual(empty_rate(1.0, 20), 1 / 21, places=15)


class Determinism(unittest.TestCase):
    def digest(self, cls, seed, tracer=None):
        workload = tiny(cls, seed)
        if tracer is not None:
            tracer.install()
        try:
            _, failed, _, digest, counts = run.loop(workload, 0, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.assertEqual(failed, 0)
        return digest, counts

    def test_digest_repeats_for_a_seed_and_changes_with_it(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                first, _ = self.digest(cls, 1)
                self.assertEqual(first, self.digest(cls, 1)[0])
                self.assertNotEqual(first, self.digest(cls, 2)[0])

    def test_traced_counts_repeat_and_tracing_changes_no_output(self):
        for cls in TINY:
            with self.subTest(workload=cls.name):
                plain, _ = self.digest(cls, 1)
                traced, counts = self.digest(cls, 1, Tracer())
                again, counts_again = self.digest(cls, 1, Tracer())
                self.assertEqual(plain, traced)
                self.assertEqual(traced, again)
                self.assertEqual(counts, counts_again)
                tracer = Tracer()
                names = set(tracer.metrics(counts, run.WINDOW, 1.0))
                self.assertEqual(names, {name for name, _ in METRICS})


class CommandLine(unittest.TestCase):
    def test_names_agree_with_benchmark_json(self):
        benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in benchmark["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(set(names), set(WORKLOADS))
        layers = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]
        self.assertEqual(layers, METRICS)

    def test_result_line(self):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "coin-audit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(completed.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in benchmark["end_to_end"]})

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=HERE.parent) as temp:
            root = Path(temp)
            shutil.copytree(HERE, root / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", root)
            completed = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "coin-audit",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertEqual(completed.stdout, "")


if __name__ == "__main__":
    unittest.main()
