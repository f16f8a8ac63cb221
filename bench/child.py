"""One workload run in a fresh interpreter; started by ``run.py``.

Generates the inputs from the seed, then repeats the workload's fixed
work (a pass) for about ``--seconds`` seconds and prints one JSON object
on stdout.  With ``--trace 0`` it reports the end-to-end timings; with
``--trace 1`` it makes one untraced pass under a GC watch, one traced
pass, then untraced passes for the reference wall time, and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import diskflows

from layers import instrument, layer_metrics
from spans import Tracer
from workloads import WORKLOADS, Failures


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_passes(workload, seconds: float, failures: Failures, walls: list[float],
               latencies: list[int]) -> None:
    """Repeat passes until the next one would end after ``seconds``; at
    least one pass."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        lat: list[int] = []
        workload.run_pass(lat, failures)
        walls.append(sum(lat) / 1e9)
        latencies.extend(lat)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def timed(workload, seconds: float) -> dict:
    failures = Failures()
    walls: list[float] = []
    latencies: list[int] = []
    run_passes(workload, seconds, failures, walls, latencies)
    us = [x / 1e3 for x in latencies]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_us": statistics.median(us),
        "op_p99_us": percentile(us, 99),
    }
    return {
        "attempted": len(latencies),
        "failed": failures.count,
        "failures": failures.messages,
        "passes": len(walls),
        "pass_walls_s": walls,
        "samples": len(latencies),
        "metrics": metrics,
    }


def traced(workload, seconds: float, trace_path: str, context: dict) -> dict:
    failures = Failures()
    tracer = Tracer()
    start = time.perf_counter()
    walls: list[float] = []
    latencies: list[int] = []

    lat: list[int] = []
    tracer.watch_gc()
    try:
        workload.run_pass(lat, failures)
    finally:
        tracer.unwatch_gc()
    walls.append(sum(lat) / 1e9)
    latencies.extend(lat)

    lat = []
    instrument(tracer)
    try:
        workload.run_pass(lat, failures, tracer)
    finally:
        tracer.restore()
    traced_wall = sum(lat) / 1e9
    latencies.extend(lat)

    left = seconds - (time.perf_counter() - start)
    run_passes(workload, left, failures, walls, latencies)
    untraced_wall = statistics.median(walls)
    metrics = layer_metrics(tracer, traced_wall - untraced_wall)
    tracer.dump(trace_path, dict(context, traced_wall_s=traced_wall,
                                 untraced_wall_s=untraced_wall, metrics=metrics))
    return {
        "attempted": len(latencies),
        "failed": failures.count,
        "failures": failures.messages,
        "passes": len(walls) + 1,
        "samples": len(latencies),
        "trace_file": trace_path,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    where = os.path.realpath(diskflows.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: diskflows imported from {where}, not from {args.src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.quick, args.workdir)
    if args.trace:
        path = os.path.join(args.workdir, f"trace-{args.workload}-seed{args.seed}.json")
        context = {"workload": args.workload, "seed": args.seed, "quick": args.quick}
        result = traced(workload, args.seconds, path, context)
    else:
        result = timed(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
