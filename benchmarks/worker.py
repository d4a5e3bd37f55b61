"""One repetition of one workload, in a fresh single-threaded process.

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1
                                 [--scale full|smoke]

Imports flowinv from the ``src`` directory next to this one, builds the
inputs, runs the timed phase, checks the answers outside it and prints
one JSON line.  ``t_first`` is ``time.perf_counter()`` (on Linux the
monotonic clock, shared by all processes) at the first timed call, so
the parent can measure set-up from the moment it started this process.

An untraced worker runs ``speed.SpeedProbe`` from its start to the end of
the timed phase and reports its times in reference-speed seconds, with
the raw seconds beside them.  With ``--trace 1`` there is no probe, and
the line carries the per-layer metrics of ``tracer.layer_metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _no_region(name):
    return nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    probe = None
    if not args.trace:
        from speed import SpeedProbe
        probe = SpeedProbe()
        probe.start()
    t_probe = time.perf_counter()

    if not (SRC / "flowinv" / "__init__.py").is_file():
        print(f"error: no flowinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowinv
    if Path(flowinv.__file__).resolve().parent != SRC / "flowinv":
        print(f"error: imported flowinv from {flowinv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    region = _no_region
    if args.trace:
        tracer = Tracer()
        tracer.install(workloads)
        region = tracer.region

    inputs = workload.setup(args.seed, args.scale)
    if tracer is not None:
        tracer.reset()
    workloads.op_spans = []
    t_first = time.perf_counter()
    cpu0 = time.process_time()
    answers, _ = workload.run(inputs, region)
    t_end = time.perf_counter()
    cpu_raw = time.process_time() - cpu0
    if tracer is not None:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spans, workloads.op_spans = workloads.op_spans, None
    wall_raw = t_end - t_first
    if probe is None:
        wall_s, cpu_s = wall_raw, cpu_raw
        latencies = [(b - a) * 1e3 for a, b in spans]
        setup_probe_s, setup_factor, factor = 0.0, 1.0, 1.0
    else:
        probe.stop()
        probing = probe.probe_seconds(t_first, t_end)
        wall_raw -= probing
        factor = probe.factor(t_first, t_end)
        wall_s = wall_raw * factor
        cpu_s = (cpu_raw - probing) * factor
        latencies = [probe.seconds(a, b) * 1e3 for a, b in spans]
        setup_probe_s = probe.probe_seconds(t_probe, t_first)
        setup_factor = probe.factor(t_probe, t_first)

    outcome = workload.check(inputs, answers)
    result = {
        "t_first": t_first,
        "setup_probe_s": setup_probe_s,
        "setup_factor": setup_factor,
        "factor": factor,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counts": outcome.counts,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, len(latencies))
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
