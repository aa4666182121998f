"""The benchmark harness's self-test, run against the library in this tree.

``perfbench/selftest.py`` runs every benchmark workload at tiny size, plain,
rerun and traced.  The harness imports library names and patches some of
them by name, so a renamed or deleted one fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert "selftest passed" in r.stdout
