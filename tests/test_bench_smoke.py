"""The benchmark harness still runs: every workload at tiny size, all checks."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
