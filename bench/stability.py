"""Stability report: run the benchmark over several seeds and give, per
workload and end-to-end metric, the median, the quartiles and the spread
(interquartile range over the median), against the metric's bound in
``BENCHMARK.json``.

    python3 bench/stability.py --seeds 1-10 [--workloads census,render]
        [--seconds 20] [--save set1.json] [--compare set0.json]

``--compare`` reads an earlier ``--save`` file and reports, per metric,
how much worse the new median is than the old one, as a share of the
old median, against the same bound.  A spread at or above a third of the
bound is marked ``wide``; one above the bound, or a median worse by
more than the bound, is marked ``FAIL``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def worse_by(metric: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def collect(bench: dict, workloads: list[str], seeds: list[int], seconds: int) -> dict:
    runs: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        per_metric: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations",
                      file=sys.stderr)
            for name, values in per_metric.items():
                values.append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {values[-1]:.6g}" for name, values in per_metric.items()
            ), file=sys.stderr)
        runs[workload] = {name: summarize(v) for name, v in per_metric.items()}
    return runs


def report(bench: dict, runs: dict, old: dict | None) -> bool:
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':14s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'worse':>8s}")
    for workload, per_metric in runs.items():
        for name, s in per_metric.items():
            bound = metrics[name]["bound"]
            flags = []
            if name != "setup_s" and s["spread"] > bound:
                flags.append("FAIL")
            elif name != "setup_s" and s["spread"] >= bound / 3:
                flags.append("wide")
            worse = ""
            if old is not None and workload in old:
                w = worse_by(metrics[name], old[workload][name]["median"], s["median"])
                worse = f"{w:+8.3f}"
                if w > bound:
                    flags.append("FAIL")
            ok = ok and "FAIL" not in flags
            print(f"{workload:14s} {name:12s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.4f} {bound:6.3f} {worse:>8s} "
                  f"{' '.join(flags)}")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--compare", help="an earlier --save file to compare medians with")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = collect(bench, workloads, parse_seeds(args.seeds), seconds)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    return 0 if report(bench, runs, old) else 1


if __name__ == "__main__":
    sys.exit(main())
