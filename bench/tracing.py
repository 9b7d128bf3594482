"""Run-time wrappers that time calls into dpselect's layers.

``Tracer.install`` replaces each traced function in every loaded dpselect
module namespace that binds it, and each traced method or property on its
class; ``uninstall`` puts the originals back.  A span's self time is its
duration minus the time of the traced spans it encloses.  Besides spans the
wrappers keep counts (gate draws, fired runs, ledger charges, dataset
accesses, update rounds, releases, transcripts enumerated) read from public
results and state.  Nothing records the gate probability p, a coin outcome
or a record value.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from collections import Counter, defaultdict

from dpselect import coingame, core, mwu, noise, selectapps, svt

_clock = time.perf_counter_ns

# (owner, attribute, span name).  Functions are replaced wherever a dpselect
# module binds them; methods are replaced on their class.
FUNCTIONS = [
    (noise, "exponential_mechanism", "noise.exponential_mechanism"),
    (noise, "sample_laplace", "noise.sample_laplace"),
    (selectapps, "gap", "selectapps.gap"),
    (selectapps, "topk_select", "selectapps.topk_select"),
    (svt, "above_hypothesis", "svt.hypothesis_build"),
    (svt, "below_hypothesis", "svt.hypothesis_build"),
    (mwu, "as_query_values", "mwu.as_query_values"),
    (mwu, "mwu_update", "mwu.mwu_update"),
    (mwu, "adaptive_harness", "mwu.adaptive_harness"),
    (coingame, "exact_renyi", "coingame.exact_renyi"),
    (coingame, "exact_max_divergence", "coingame.exact_max_divergence"),
    (coingame, "transcript_renyi", "coingame.transcript_renyi"),
    (coingame, "transcript_max_log_ratio", "coingame.transcript_max_log_ratio"),
    (coingame, "random_valid_schedule", "coingame.random_valid_schedule"),
]
METHODS = [
    (core.FrameworkState, "test", "core.test"),
    (core.FrameworkState, "test_batch", "core.test_batch"),
    (selectapps.ScoreFamily, "evaluate_all", "selectapps.evaluate_all"),
]

# The per-layer metrics, in BENCHMARK.json order, with their units.  Counts
# are totals over the run's count window; a self_ms is the mean self time per
# op over the whole run.
METRICS = [
    ("noise.stream_derive.calls", "count"), ("noise.stream_derive.self_ms", "ms"),
    ("noise.exponential_mechanism.calls", "count"), ("noise.exponential_mechanism.self_ms", "ms"),
    ("noise.sample_laplace.calls", "count"), ("noise.sample_laplace.self_ms", "ms"),
    ("core.init.calls", "count"), ("core.init.self_ms", "ms"),
    ("core.test.calls", "count"), ("core.test.self_ms", "ms"),
    ("core.selection.calls", "count"), ("core.selection.self_ms", "ms"),
    ("core.mechanism_body.self_ms", "ms"),
    ("core.gate_draws", "count"), ("core.fired_runs", "count"), ("core.fired_per_draw", "ratio"),
    ("core.test_batch.calls", "count"), ("core.test_batch.self_ms", "ms"),
    ("core.ledger.selection_calls", "count"), ("core.ledger.top_responses", "count"),
    ("core.dataset.accesses", "count"),
    ("selectapps.evaluate_all.calls", "count"), ("selectapps.evaluate_all.self_ms", "ms"),
    ("selectapps.gap.calls", "count"), ("selectapps.gap.self_ms", "ms"),
    ("selectapps.topk_select.calls", "count"), ("selectapps.topk_select.self_ms", "ms"),
    ("svt.process.calls", "count"), ("svt.process.self_ms", "ms"),
    ("svt.hypothesis_build.calls", "count"), ("svt.hypothesis_build.self_ms", "ms"),
    ("svt.failed_batches", "count"),
    ("mwu.answer.calls", "count"), ("mwu.answer.self_ms", "ms"), ("mwu.answer.p50_us", "us"),
    ("mwu.as_query_values.calls", "count"), ("mwu.as_query_values.self_ms", "ms"),
    ("mwu.mwu_update.calls", "count"), ("mwu.update_rounds", "count"), ("mwu.releases", "count"),
    ("mwu.releases_per_update", "ratio"), ("mwu.adaptive_harness.self_ms", "ms"),
    ("coingame.random_valid_schedule.self_ms", "ms"),
    ("coingame.exact_renyi.self_ms", "ms"), ("coingame.exact_max_divergence.self_ms", "ms"),
    ("coingame.transcript_renyi.calls", "count"), ("coingame.transcript_renyi.self_ms", "ms"),
    ("coingame.transcript_max_log_ratio.calls", "count"),
    ("coingame.transcript_max_log_ratio.self_ms", "ms"),
    ("coingame.enumerate_transcripts.calls", "count"),
    ("coingame.enumerate_transcripts.self_ms", "ms"),
    ("coingame.transcripts", "count"),
    ("bench.op.self_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
]


class Tracer:
    """Span self times over a run, and counts over its first ops."""

    def __init__(self):
        self._stack: list[list[int]] = []
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.answer_ns: list[int] = []
        self._states: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list[int]:
        frame = [0]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list[int], elapsed: int) -> None:
        self._stack.pop()
        self.self_ns[name] += elapsed - frame[0]
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed

    def span(self, name: str, function, durations: list[int] | None = None):
        """``function`` wrapped as span ``name``; ``durations`` gets each call's time."""

        def traced(*args, **kwargs):
            frame = self._enter()
            start = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._leave(name, frame, elapsed)
                if durations is not None:
                    durations.append(elapsed)

        traced.__wrapped__ = function
        return traced

    def op(self, function, index: int):
        """Run one op as the root span; the ledgers of states it made are counted."""
        frame = self._enter()
        start = _clock()
        try:
            return function(index)
        finally:
            elapsed = _clock() - start
            self._leave("bench.op", frame, elapsed)
            for state in self._states:
                self.counts["core.ledger.selection_calls"] += state.ledger.selection_calls
                self.counts["core.ledger.top_responses"] += state.ledger.top_responses
            self._states.clear()

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "dpselect" and not module_name.startswith("dpselect."):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attribute, replacement)

    def install(self) -> None:
        for module, attribute, name in FUNCTIONS:
            original = getattr(module, attribute)
            self._replace_everywhere(original, self.span(name, original))
        for cls, attribute, name in METHODS:
            self._replace(cls, attribute, self.span(name, getattr(cls, attribute)))
        self._replace_everywhere(core.init, self._init(core.init))
        self._replace_everywhere(coingame.enumerate_transcripts,
                                 self._enumerate(coingame.enumerate_transcripts))
        self._replace(core.FrameworkState, "selection", self._selection(core.FrameworkState.selection))
        self._replace(core.Dataset, "fetch", self._fetch(core.Dataset.fetch))
        self._replace(noise.RandomStream, "generator", self._generator(noise.RandomStream.generator))
        self._replace(svt.RepetitiveSvt, "process", self._process(svt.RepetitiveSvt.process))
        self._replace(mwu.MwuSession, "answer", self._answer(mwu.MwuSession.answer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- wrappers with counts ------------------------------------------------

    def _enumerate(self, original):
        traced = self.span("coingame.enumerate_transcripts", original)

        def enumerate_transcripts(*args, **kwargs):
            probs_p, probs_q = traced(*args, **kwargs)
            self.counts["coingame.transcripts"] += len(probs_p)
            return probs_p, probs_q

        return enumerate_transcripts

    def _init(self, original):
        traced = self.span("core.init", original)

        def init(*args, **kwargs):
            state = traced(*args, **kwargs)
            self._states.append(state)
            return state

        return init

    def _selection(self, original):
        traced = self.span("core.selection", original)
        body = "core.mechanism_body"

        def selection(state, tau, mechanisms):
            self.counts["core.gate_draws"] += tau * len(mechanisms)
            wrapped = [
                dataclasses.replace(m, run=self.span(body, m.run)) for m in mechanisms
            ]
            return traced(state, tau, wrapped)

        return selection

    def _fetch(self, original):
        def fetch(dataset, accesses: int = 1):
            self.counts["core.dataset.accesses"] += accesses
            return original(dataset, accesses)

        return fetch

    def _generator(self, original: property):
        derive = self.span("noise.stream_derive", original.fget)

        def generator(stream):
            # Only the first access builds the generator; later ones are a read.
            if stream.__dict__.get("_generator") is None:
                return derive(stream)
            return stream._generator

        return property(generator)

    def _process(self, original):
        traced = self.span("svt.process", original)

        def process(session, query):
            before = session.charged
            try:
                return traced(session, query)
            finally:
                self.counts["svt.failed_batches"] += session.charged - before

        return process

    def _answer(self, original):
        traced = self.span("mwu.answer", original, self.answer_ns)

        def answer(session, query):
            rounds, releases = session.update_rounds, session.release_count
            try:
                return traced(session, query)
            finally:
                self.counts["mwu.update_rounds"] += session.update_rounds - rounds
                self.counts["mwu.releases"] += session.release_count - releases

        return answer

    # -- report --------------------------------------------------------------

    def snapshot_counts(self) -> dict[str, int]:
        """Totals so far of every call count and kept count."""
        totals = {f"{name}.calls": calls for name, calls in self.calls.items()}
        totals.update(self.counts)
        return totals

    def metrics(self, window_counts: dict[str, int], ops: int, ops_per_s: float) -> dict:
        """Every per-layer metric: counts from the window, self times per op."""
        fired = window_counts.get("core.mechanism_body.calls", 0)
        draws = window_counts.get("core.gate_draws", 0)
        updates = window_counts.get("mwu.update_rounds", 0)
        releases = window_counts.get("mwu.releases", 0)
        derived = {
            "core.fired_runs": fired,
            "core.fired_per_draw": fired / draws if draws else 0.0,
            "mwu.releases_per_update": releases / updates if updates else 0.0,
            "mwu.answer.p50_us": statistics.median(self.answer_ns) / 1e3 if self.answer_ns else 0.0,
            "trace.ops_per_s": ops_per_s,
        }
        values = {}
        for name, unit in METRICS:
            if name in derived:
                value = derived[name]
            elif name.endswith(".self_ms"):
                value = self.self_ns.get(name[: -len(".self_ms")], 0) / 1e6 / max(ops, 1)
            else:
                value = window_counts.get(name, 0)
            values[name] = {"value": value, "unit": unit}
        return values
