"""hopfcomb benchmark: `sweep`, `crosscheck` and `query` workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
library is imported from its `src/`.  Every pass runs in a fresh interpreter
(child.py), one at a time, so the library's caches start empty and nothing
else competes for the core.

With `--trace 0` the run sets up (imports the CLI) several times, then runs
passes until `--seconds` have elapsed (at least one), and reports the
end-to-end metrics.  With `--trace 1` it runs one untraced and one traced
pass of identical work and reports the per-layer metrics from the traced
one, plus `trace.overhead_s`.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment.  The full report, spans included, goes to
`perfbench/out/`.  See README.md for the metrics and what moves them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "crosscheck", "query")
SETUP_REPEATS = 11
RUN_BUDGET_S = 170        # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "HOPFCOMB_MAX_DEGREE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} ran past the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], p: float) -> float:
    """Percentile as `statistics.quantiles` gives it (exclusive method).

    It interpolates between neighbouring samples, which matters for the ten
    `verify` calls of a sweep: p50 averages two calls, not one."""
    return statistics.quantiles(values, n=100)[round(100 * p) - 1]


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hopfcomb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "src_sha256": src.hexdigest(), "seed": seed}


def _pass_args(workload: str, seed: int, trace: bool, break_rule) -> list[str]:
    args = ["pass", "--workload", workload, "--seed", str(seed)]
    if trace:
        args.append("--trace")
    if break_rule:
        args += ["--break-rule", break_rule]
    return args


def measure(workload: str, seed: int, seconds: float, break_rule, deadline) -> dict:
    run_child(["import"], deadline)  # compiles bytecode; not timed
    setups = [run_child(["import"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_child(_pass_args(workload, seed, False, break_rule), deadline))
    latencies = [dt for p in passes for _, dt in p["requests"]]
    # every pass sends the same requests; a request's time is its median
    # over the passes, which keeps a burst of load on the machine out of it
    per_request = zip(*([dt for _, dt in p["requests"]] for p in passes))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(times) for times in per_request), "s"),
        "p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "p90_ms": (1000 * percentile(latencies, 0.90), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {"metrics": metrics, "passes": passes, "setups": setups}


def measure_traced(workload: str, seed: int, break_rule, deadline) -> dict:
    plain = run_child(_pass_args(workload, seed, False, break_rule), deadline)
    traced = run_child(_pass_args(workload, seed, True, break_rule), deadline)
    metrics = {name: (value, _layer_unit(name)) for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    if workload == "sweep":
        with open(HERE / "golden" / "coverage.json") as fh:
            expected = json.load(fh)["sweep"]
        traced["attempted"] += len(expected)
        for layer, count in expected.items():
            got = traced["coverage"][layer]
            if got < count:
                traced["failures"].append(
                    f"coverage: {layer}.distinct fell from {count} to {got}")
    return {"metrics": metrics, "passes": [plain, traced]}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--break-rule", default=None,
                        help="MODULE.FUNCTION product rule to break (selfcheck.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hopfcomb" / "cli.py").is_file():
        print(f"error: no hopfcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            run = measure_traced(args.workload, args.seed, args.break_rule, deadline)
        else:
            run = measure(args.workload, args.seed, args.seconds, args.break_rule, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in run["passes"])
    failures = [f for p in run["passes"] for f in p["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    env = environment(args.seed)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    report = dict(run, workload=args.workload, trace=args.trace, environment=env)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh)

    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
