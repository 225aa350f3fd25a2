"""The benchmark's own self-test runs as part of the suite.

A rename under ``src/`` that unbinds a traced boundary makes
``bench/selftest.py`` fail, so it fails here too instead of the benchmark
silently reading 0 calls.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:]
