"""The benchmark's own test: ``python -m pytest perfbench``.

Runs ``run.py --smoke``: every workload at its smallest sizes through the
correctness gate (recorded smoke reference and invariants) and the traced
run, so a broken generator, check, tracer or reference fails in seconds.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_passes_every_workload():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 4, proc.stdout
