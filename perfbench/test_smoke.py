"""The benchmark's own test: its smoke mode runs every workload at tiny
size, traced and untraced, with all of its checks.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          cwd=RUN.parent.parent, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": True}
