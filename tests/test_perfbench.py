"""The benchmark harness's self-test passes against the package sources.

The harness's tracer replaces ``certify.ThreadPoolExecutor`` and wraps the
functions and methods it names, so renaming or removing one of them breaks
traced benchmark runs; this test makes that a test failure.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    pytest.importorskip("scipy")  # the harness records its version
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("self-test passed")
