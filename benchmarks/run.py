"""flowinv benchmark: seeded workloads, one fresh process per repetition.

    python3 benchmarks/run.py --workload enum|corpus|symmetric|realize|all
                              --seed N --seconds S --trace 0|1
                              [--scale full|smoke]

Repetitions run one at a time, each in a fresh single-threaded Python
process (``worker.py``): a closed loop with one client.  A fresh process
starts with flowinv's module-level caches empty, as every ``flowinv``
command does.  Repetitions continue until ``--seconds`` have passed, at
least ``MIN_REPS`` have run and the pooled op latencies hold at least
``MIN_TAIL`` samples beyond p95.  Timings are medians over repetitions;
op percentiles are taken over the pooled latencies.  Untraced times are
in reference-speed seconds (``speed.py``), so host drift cancels.

With ``--trace 0`` the result carries the ``end_to_end`` metrics of
BENCHMARK.json; with ``--trace 1`` traced and untraced repetitions
alternate and the result carries its ``per_layer`` metrics, including
the tracing overhead.  A readable report with sample counts and the
error ratio comes first; the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Exits 2 without a result when flowinv's sources or BENCHMARK.json are
missing, and 1 when a repetition crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("enum", "corpus", "symmetric", "realize")

RUN_LIMIT_S = 170.0  # a whole run, repetitions and checks included
MIN_REPS = 3
MIN_TAIL = 10        # samples beyond the highest reported percentile
P95_SHARE = 0.05
# A fixed hash seed makes a workload seed fix every iteration order too.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(RuntimeError):
    """A repetition crashed or overran; no result can be reported."""


def run_rep(workload: str, seed: int, traced: bool, scale: str,
            timeout: float) -> dict:
    """Run one repetition in a fresh process and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--scale", scale]
    started = time.perf_counter()   # the clock the worker reports on
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=WORKER_ENV, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a repetition overran {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n"
                         + proc.stderr.strip()[-2000:])
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["setup_raw_s"] = rep["t_first"] - started - rep["setup_probe_s"]
    rep["setup_s"] = rep["setup_raw_s"] * rep["setup_factor"]
    rep["rep_s"] = time.perf_counter() - started
    rep["traced"] = traced
    return rep


def _enough(plain: list, traced: list, trace: bool) -> bool:
    if trace:
        return len(plain) >= 2 and len(traced) >= 2
    ops = sum(len(r["latencies_ms"]) for r in plain)
    return len(plain) >= MIN_REPS and ops * P95_SHARE >= MIN_TAIL


def collect(workload: str, seed: int, seconds: float, trace: bool,
            scale: str) -> list:
    """Repetitions of one workload; traced and untraced alternate if tracing."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        now = time.monotonic()
        if now - start >= seconds and _enough(plain, traced, trace):
            break
        if now + max((r["rep_s"] for r in reps), default=0.0) > deadline:
            break  # no room for another repetition
        reps.append(run_rep(workload, seed, trace and len(traced) < len(plain),
                            scale, deadline - now))
    return reps


def end_to_end(reps: list) -> tuple:
    """(values, sample counts) of the end-to-end metrics."""
    plain = [r for r in reps if not r["traced"]]
    lat = sorted(x for r in plain for x in r["latencies_ms"])

    def med(key):
        return statistics.median(r[key] for r in plain)

    values = {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "ops_per_s": statistics.median(
            len(r["latencies_ms"]) / r["wall_s"] for r in plain),
        "op_p50_ms": statistics.median(lat),
        "op_p95_ms": statistics.quantiles(lat, n=20)[18],
        "peak_rss_mb": med("peak_rss_mb"),
    }
    samples = {name: len(plain) for name in values}
    samples["op_p50_ms"] = samples["op_p95_ms"] = len(lat)
    return values, samples


def per_layer(reps: list) -> tuple:
    """(values, names of count metrics that differ between repetitions)."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not traced:
        raise BenchError("no traced repetition finished in time")
    values, unstable = {}, []
    for name in traced[0]["layers"]:
        vals = [r["layers"][name] for r in traced]
        if any(v is None for v in vals):
            continue  # a traced function is absent
        values[name] = statistics.median(vals)
        if isinstance(vals[0], int) and len(set(vals)) > 1:
            unstable.append(name)
    for name in traced[0]["counts"]:
        vals = [r["counts"][name] for r in reps]
        values[name] = vals[0]
        if len(set(vals)) > 1:
            unstable.append(name)
    # raw seconds on both sides: traced workers run no speed probe
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_raw_s"] for r in traced)
        / statistics.median(r["wall_raw_s"] for r in plain))
    return values, unstable


def report(workload: str, seed: int, trace: bool, scale: str, reps: list,
           spec: dict) -> dict:
    """Print the readable report of one workload; return its JSON result."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"workload {workload}  seed {seed}  scale {scale}  trace {int(trace)}"
          f"  repetitions {len(reps)} (fresh process each, one at a time)")
    if trace:
        values, unstable = per_layer(reps)
        samples = {name: sum(r["traced"] for r in reps) for name in values}
        wanted = spec["per_layer"]
    else:
        (values, samples), unstable = end_to_end(reps), []
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in values:
            print(f"  {name:42} absent: a traced function no longer exists")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:42} {values[name]:>14.6g} {unit:10} n={samples[name]}")
    print(f"  {'error_ratio':42} {failed / max(attempted, 1):>14.6g} {'ratio':10}"
          f" {failed} failed / {attempted} attempted")
    if not trace:
        plain = [r for r in reps if not r["traced"]]
        print(f"  raw wall_s (host speed) median "
              f"{statistics.median(r['wall_raw_s'] for r in plain):.6g} s;"
              f" reference s per raw s median "
              f"{statistics.median(r['factor'] for r in plain):.4g}")
    for r in reps:
        for problem in r["problems"]:
            print(f"  FAILED {problem}")
    for name in unstable:
        print(f"  UNSTABLE count {name} differs between repetitions")
    return {"correct": failed == 0 and not unstable, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flowinv" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} holds no flowinv sources or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            reps = collect(name, args.seed, args.seconds, bool(args.trace),
                           args.scale)
            results[name] = report(name, args.seed, bool(args.trace),
                                   args.scale, reps, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
