"""Smoke test of the benchmark harness: its own tiny-size self-check.

The self-check runs the three benchmark command lines on 600-row cohorts,
untraced and traced, checks outputs, repeats and metric names, and feeds
each output check damaged outputs. It keeps its files under
``.perfbench/`` at the repository root.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
