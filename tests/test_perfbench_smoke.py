import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    # the tracing wrappers find functions by name: a rename must fail here
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke ok" in proc.stdout
