#!/usr/bin/env python3
"""Recompute every published number and drop the artifacts in one directory.

Writes counts.csv (streamed enumeration vs closed form vs the per-tree
product formula), class_table.csv, the code lists for small n, and the
brute-force oracle reports.  Everything is deterministic, so rerunning
overwrites the files with identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from diskflows.codec import serialize_code
from diskflows.enumeration import (
    count_flows,
    iter_flows,
    table_rows,
    table_to_csv,
)
from diskflows.oracle import DEFAULT_BOUND, oracle_enumerate


@dataclass
class Job:
    out_dir: Path
    max_n: int
    list_max_n: int
    oracle_max_n: int


def parse_args(argv: list[str]) -> Job:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=Path("results"), help="output directory"
    )
    parser.add_argument(
        "--max-n", type=int, default=7, help="largest n for the count table"
    )
    parser.add_argument(
        "--list-max-n",
        type=int,
        default=4,
        help="largest n whose full code list is written out",
    )
    parser.add_argument(
        "--oracle-max-n",
        type=int,
        default=DEFAULT_BOUND,
        help="largest n cross-checked by the brute-force oracle",
    )
    args = parser.parse_args(argv)
    return Job(
        out_dir=args.out,
        max_n=args.max_n,
        list_max_n=args.list_max_n,
        oracle_max_n=args.oracle_max_n,
    )


def write_counts(job: Job) -> None:
    path = job.out_dir / "counts.csv"
    product_sums = [0] * (job.max_n + 1)
    for row in table_rows(job.max_n):
        product_sums[row.n] += row.total
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "count", "streamed", "product_sum", "seconds"])
        for n in range(job.max_n + 1):
            started = time.perf_counter()
            streamed = sum(1 for _ in iter_flows(n))
            elapsed = time.perf_counter() - started
            count = count_flows(n)
            if not streamed == count == product_sums[n]:
                raise SystemExit(
                    f"count mismatch at n={n}: streamed {streamed},"
                    f" closed form {count}, product sum {product_sums[n]}"
                )
            writer.writerow([n, count, streamed, product_sums[n], f"{elapsed:.3f}"])
            print(f"n={n}: {count} classes ({elapsed:.3f}s)")
    print(f"wrote {path}")


def write_class_table(job: Job) -> None:
    path = job.out_dir / "class_table.csv"
    path.write_text(table_to_csv(table_rows(min(job.max_n, 5))))
    print(f"wrote {path}")


def write_code_lists(job: Job) -> None:
    for n in range(job.list_max_n + 1):
        path = job.out_dir / f"codes_n{n}.txt"
        with path.open("w") as handle:
            for code in iter_flows(n):
                handle.write(serialize_code(code) + "\n")
        print(f"wrote {path}")


def write_oracle_reports(job: Job) -> None:
    for n in range(job.oracle_max_n + 1):
        codes, report = oracle_enumerate(n, bound=job.oracle_max_n)
        path = job.out_dir / f"oracle_n{n}.json"
        path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
        status = "agrees" if report.agrees else "DISAGREES"
        print(
            f"oracle n={n}: {report.oracle_count} codes, {status},"
            f" {report.admissible_only_count} admissible-only"
        )
        if report.witnesses:
            sample = ", ".join(
                serialize_code(w) for w in report.witnesses[:5]
            )
            print(f"  witnesses: {sample}" + (" ..." if len(report.witnesses) > 5 else ""))
    print(f"wrote oracle reports to {job.out_dir}")


def main(argv: list[str]) -> int:
    job = parse_args(argv)
    job.out_dir.mkdir(parents=True, exist_ok=True)
    write_counts(job)
    write_class_table(job)
    write_code_lists(job)
    write_oracle_reports(job)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
