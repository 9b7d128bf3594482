"""The benchmark's own self-test, run as part of the test suite.

The benchmark under ``bench/`` imports dpselect by name, so a package change
that renames or breaks something it binds should fail here as well.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
