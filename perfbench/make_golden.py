"""Record the expected outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Writes, from the code in `src/`:
- golden/sweep.json: exit code and output lines of `hopfcomb verify` for
  every verifiable algebra at the default degree;
- golden/query.json: exit code and SHA-256 of stdout of every request in
  the query pool (queries.py);
- golden/coverage.json: the exact number of distinct arguments each rule
  layer sees in a traced sweep.

Run it only on a commit whose outputs are known to be right, and only when
the workloads themselves change: the files are the benchmark's notion of a
correct answer.
"""
from __future__ import annotations

import json
import os
import sys
import time

import queries
import run
import workloads


def _write(name: str, data) -> None:
    with open(workloads.GOLDEN / name, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main() -> int:
    os.environ.pop("HOPFCOMB_MAX_DEGREE", None)
    sys.path.insert(0, str(run.ROOT / "src"))
    import hopfcomb.cli as cli

    workloads.GOLDEN.mkdir(exist_ok=True)
    sweep = {}
    for algebra in cli.VERIFIABLE:
        _, code, text = workloads.call_cli(cli, ["verify", "--algebra", algebra])
        sweep[algebra] = {"code": code, "lines": text.splitlines()}
    _write("sweep.json", sweep)  # the sweep runs the algebras in this order

    golden = {}
    for entries in queries.build_pool().values():
        for argv in entries:
            _, code, text = workloads.call_cli(cli, argv)
            golden[queries.key(argv)] = {"code": code, "sha256": workloads.digest(text)}
    _write("query.json", golden)

    deadline = time.monotonic() + 600
    traced = run.run_child(["pass", "--workload", "sweep", "--trace"], deadline)
    _write("coverage.json", {"sweep": traced["coverage"]})
    print(f"{len(sweep)} algebras, {len(golden)} query requests, "
          f"coverage {traced['coverage']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
