"""The benchmark's own self-tests, run as part of the test suite.

They are the only check that every name the span tracer patches still
exists: the tracer skips a missing name silently, so its layer would
read 0 instead of failing.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
