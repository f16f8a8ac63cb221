"""Benchmark of the diskflows package, measured from outside through its
public functions and ``diskflows.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seconds S] [--quick]   # every workload, one table

Workloads (see ``workloads.py``):

  enum-n7       ``enum --n 7``: all 254,475 codes materialized, sorted, written
  census        every count for n = 0..11, ``table --max-n 9``, ``oracle --n 5``
  validate-mix  seeded code texts through parse, validation and round trip
  render        seeded realizable codes with n up to 40 drawn as SVG and DOT

Each run starts a fresh interpreter with ``src`` on the path (no
install, ``DISKFLOWS_WORKERS`` removed) that repeats the workload's fixed
work for about ``--seconds`` seconds.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics:

  setup_s      median time for a fresh interpreter to import ``diskflows``
               and ``diskflows.cli`` (measured inside it, several times)
  wall_s       median wall time of one pass of the fixed work
  peak_rss_mb  peak resident memory of the workload process (ru_maxrss)
  op_p50_us, op_p99_us
               latency of one operation: one code in validate-mix and
               render; one pass in enum-n7 and census, where p99 is close
               to the slowest pass

With ``--trace 1`` it holds the per-layer metrics of ``layers.py`` and the
tracing overhead; the spans go to ``bench/results/trace-*.json``.  Every
run also writes its full record (machine, Python, commit, failures) to
``bench/results/``.  ``failed_share`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
)
WORKLOAD_NAMES = ("enum-n7", "census", "validate-mix", "render")
SETUP_REPEATS = 7
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import diskflows, diskflows.cli\n"
    "print(time.perf_counter() - t)\n"
)
# The whole run has to end within 180 s.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DISKFLOWS_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    # Fixed string hashing, so two runs of one seed do the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, *argv], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(timeout: float) -> list[float]:
    """Import times of fresh interpreters; the first one, which may
    compile the bytecode cache, is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = run_child(["-c", SETUP_CODE], timeout)
        if i:
            times.append(float(out.strip()))
    return times


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    started = time.perf_counter()
    setup = [] if trace else measure_setup(RUN_LIMIT_S)
    argv = [
        str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(RESULTS), "--src", str(SRC),
    ]
    if quick:
        argv.append("--quick")
    out = run_child(argv, RUN_LIMIT_S - (time.perf_counter() - started))
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"child printed no result: {out[-500:]!r}")
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    result["failed_share"] = result["failed"] / result["attempted"]
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, quick=quick,
        nproc=os.cpu_count(), python=platform.python_version(),
        platform=platform.platform(), commit=git_commit(),
    )
    with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def report_line(result: dict, specs) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in specs
        },
    }


def print_table(result: dict, specs) -> None:
    print(f"{result['workload']} (seed {result['seed']}, {result['passes']} passes, "
          f"{result['samples']} samples)")
    for name, unit in specs:
        print(f"  {name:40s} {result['metrics'][name]:>16.6g} {unit}")
    print(f"  {'failed_share':40s} {result['failed_share']:>16.6g} "
          f"({result['failed']} of {result['attempted']})")
    for message in result["failures"][:5]:
        print(f"    {message}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "diskflows" / "__init__.py").is_file():
        print(f"error: no diskflows package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    specs = PER_LAYER if args.trace else END_TO_END
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, args.quick))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_table(result, specs)
    if args.workload:
        print(json.dumps(report_line(results[0], specs)))
        return 0
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
