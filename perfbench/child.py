"""One measurement in a fresh interpreter.

    python3 perfbench/child.py import
    python3 perfbench/child.py pass --workload NAME --seed N
                              [--trace] [--break-rule MODULE.FUNCTION]

`import` times `import hopfcomb.cli` and nothing else.  `pass` runs one
pass of a workload.  Both print one JSON object as the last line of stdout.
run.py starts this script with `src/` on PYTHONPATH, so every measurement
starts with the library's module-level caches empty, as a CLI user does.
"""
from __future__ import annotations

import sys
import time


def _break_rule(target: str) -> None:
    """Make one product rule drop a term, in this process only.

    Used by selfcheck.py to show that the correctness gate can fail."""
    import hopfcomb
    import layertrace

    modname, fname = target.split(".")
    orig = getattr(getattr(hopfcomb, modname), fname)

    def broken(x, y):
        out = orig(x, y)
        if x and y and len(out.terms) > 1:
            victim = max(out.terms, key=repr)
            out = type(out)(out.kind, {k: c for k, c in out.terms.items() if k != victim})
        return out

    layertrace.replace_everywhere(orig, broken)


def main() -> int:
    # Time the import before anything else is loaded, so that the standard
    # modules the CLI needs (argparse, json, ...) are part of setup_s.
    t0 = time.perf_counter()
    import hopfcomb.cli  # noqa: F401
    setup_s = time.perf_counter() - t0

    import argparse
    import json
    import resource

    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["import", "pass"])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--break-rule", default=None)
    args = parser.parse_args()
    if args.mode == "import":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.break_rule:
        _break_rule(args.break_rule)
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.install()

    result = workloads.WORKLOADS[args.workload](args.seed)
    report = {
        "wall_s": sum(seconds for _, seconds in result.requests),
        "requests": result.requests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:  # read before the checks, which call traced code too
        report["layers"] = tracer.metrics()
        report["coverage"] = tracer.coverage()
        report["spans"] = [s for s in tracer.spans if s is not None]
    result.verify()
    report["attempted"] = result.attempted
    report["failures"] = result.failures
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
