"""The benchmark's own test: its self-check passes.

Run with ``python3 -m pytest perfbench``; it takes about 20 seconds.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_self_check_prints_every_metric_and_runs_the_checks():
    done = subprocess.run(
        [sys.executable, str(RUN), "--self-check"], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-check: ok"
