"""The benchmark's layer tracer must still find every function it wraps."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_tracer_installs_in_a_fresh_interpreter():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        # -B: write no bytecode under perfbench/
        [sys.executable, "-B", "-c", "import layertrace; layertrace.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
