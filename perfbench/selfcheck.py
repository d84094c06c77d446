"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/selfcheck.py

Breaks one product rule (`eqsym.product_M` drops one term of every product
of two nonempty labels) inside the benchmark's child processes only, runs
one pass of each workload, and checks that every workload reports failed
checks and `correct: false`.  Exits 0 when the gate caught the broken rule
in all workloads, 1 otherwise.  Nothing in `src/` is modified.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, WORKLOADS

BROKEN_RULE = "eqsym.product_M"


def main() -> int:
    caught = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "0",
             "--break-rule", BROKEN_RULE],
            capture_output=True, text=True, timeout=300,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["failed"] > 0 and not result["correct"]
        caught = caught and ok
        print(f"{workload}: {result['failed']} of {result['attempted']} checks failed "
              f"with {BROKEN_RULE} broken -> {'gate works' if ok else 'GATE MISSED IT'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
