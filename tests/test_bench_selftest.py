"""The benchmark's self-test passes on the current source.

``bench/selftest.py`` runs small ops of every workload through the calls
the benchmark makes (``parse_diagram``, ``evaluate``, ``compose``,
``adjoint``, ``normalize`` and the rest), so a change that breaks one of
them fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "PASS", proc.stdout
