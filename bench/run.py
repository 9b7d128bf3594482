#!/usr/bin/env python3
"""Benchmark of dpselect: one workload per run, results as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src`` directory next
to ``bench``.  With ``--trace 0`` the run prints the end-to-end metrics:
it starts a few set-up probes, each a fresh process that sets the workload
up and exits, then one loop process that sets up, runs ops back to back
(a closed loop, one thread) for S seconds, checks every op, and reports.
With ``--trace 1`` only the loop process runs, with the layer wrappers of
``tracing.py`` installed, and the run prints the per-layer metrics.  Lines
before the last start with ``#`` and say how the figures were made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("gate-sessions", "mwu-adaptive", "topk-boost", "coin-audit")
SETUP_PROBES = 4
# The digest and the per-layer counts cover the first WINDOW ops, so they
# repeat exactly for a seed however many ops a run completes.
WINDOW = 16
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SHOWN_FAILURES = 5
TAIL_WINDOW = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--child", choices=("probe", "loop"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- the parent: set-up probes, the loop process, the result line -------------

def run_child(args, role: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--child", role,
    ]
    t0 = time.monotonic()
    completed = subprocess.run(
        command + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited {completed.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def parent_main(args) -> int:
    if not (SRC / "dpselect" / "__init__.py").is_file():
        print(f"run.py: no dpselect package under {SRC}", file=sys.stderr)
        return 2
    try:
        setups = [run_child(args, "probe")["setup_s"] for _ in range(0 if args.trace else SETUP_PROBES)]
        result = run_child(args, "loop")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(result.pop("setup_s"))
    if not args.trace:
        print(f"# setup_s: median of {len(setups)} set-ups "
              f"({', '.join(f'{s:.4f}' for s in setups)})")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


# -- the children --------------------------------------------------------------

def tail(latencies_ms: list[float]) -> tuple[float, str]:
    """The median over consecutive TAIL_WINDOW-op windows of each window's p95.

    p95 of 200 samples is the highest percentile with ten samples beyond
    it.  One window's tail moves with every burst of load on a shared
    machine; the median over windows does not.
    """
    count = len(latencies_ms)
    windows = count // TAIL_WINDOW
    if windows:
        tails = [
            sorted(latencies_ms[w * TAIL_WINDOW:(w + 1) * TAIL_WINDOW])[TAIL_WINDOW - 11]
            for w in range(windows)
        ]
        return statistics.median(tails), (
            f"the median over {windows} windows of {TAIL_WINDOW} consecutive ops of each "
            f"window's p95 (its 11th largest); the last {count - windows * TAIL_WINDOW} ops "
            f"of {count} are in no window"
        )
    ordered = sorted(latencies_ms)
    if count >= 40:
        return ordered[count - 11], f"p{100.0 * (count - 10) / count:.2f} of {count} samples"
    return ordered[-1], f"the maximum of {count} samples (too few for a tail)"


def loop(workload, seconds: float, tracer=None):
    """Run ops until ``seconds`` have passed and WINDOW ops are done."""
    run_op = workload.op if tracer is None else (lambda index: tracer.op(workload.op, index))
    digest = hashlib.sha256()
    latencies_ns = []
    failed = 0
    window_counts = {}
    deadline = time.monotonic() + seconds
    index = 0
    while index < WINDOW or time.monotonic() < deadline:
        try:
            start = time.perf_counter_ns()
            output = run_op(index)
            latencies_ns.append(time.perf_counter_ns() - start)
            record = workload.check(index, output)
        except Exception as exc:  # any raise fails the op; the run goes on
            failed += 1
            record = ("failed", type(exc).__name__)
            if failed <= SHOWN_FAILURES:
                print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        index += 1
        if index <= WINDOW:
            digest.update(repr(record).encode())
        if index == WINDOW and tracer is not None:
            window_counts = tracer.snapshot_counts()
    return index, failed, latencies_ns, digest.hexdigest(), window_counts


def child_main(args) -> int:
    import resource

    import dpselect

    package = Path(dpselect.__file__).resolve().parent
    if package != SRC / "dpselect":
        print(f"run.py: imported dpselect from {package}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    if args.child == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted, failed, latencies_ns, digest, window_counts = loop(workload, args.seconds, tracer)
    verdicts = workload.finish()
    latencies_ms = [ns / 1e6 for ns in latencies_ns]
    ops_per_s = len(latencies_ns) / (sum(latencies_ns) / 1e9) if latencies_ns else 0.0
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
          f"{failed} failed; the digest and counts cover the first {WINDOW}")
    print(f"# digest sha256={digest}")
    for passed, text in verdicts:
        print(f"# run check {'passed' if passed else 'FAILED'}: {text}")
        if not passed:
            print(f"run check failed: {text}", file=sys.stderr)
    if tracer is None:
        tail_ms, tail_text = tail(latencies_ms) if latencies_ms else (0.0, "no samples")
        print(f"# op_tail_ms is {tail_text}")
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies_ms) if latencies_ms else 0.0,
                          "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    else:
        tracer.uninstall()
        metrics = tracer.metrics(window_counts, len(latencies_ns), ops_per_s)
    print(json.dumps({
        "correct": all(passed for passed, _ in verdicts), "attempted": attempted, "failed": failed,
        "metrics": metrics, "setup_s": setup_s,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return parent_main(args) if args.child is None else child_main(args)


if __name__ == "__main__":
    sys.exit(main())
