#!/usr/bin/env python3
"""Recompute every published number and drop the artifacts in one directory.

Writes counts.csv (streamed enumeration vs closed form vs the per-tree
product formula), class_table.csv, the code lists for small n, and the
brute-force oracle reports.  Everything written is deterministic, so
rerunning overwrites the files with identical bytes; the timings of the
streamed counts go to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from diskflows.cli import DEFAULT_CAP, ENUM_CAP
from diskflows.codec import serialize_code
from diskflows.enumeration import (
    TableRow,
    count_flows,
    iter_code_blocks,
    table_rows,
    table_to_csv,
)
from diskflows.oracle import DEFAULT_BOUND, candidate_count, oracle_enumerate


def parse_args(argv: list[str]) -> argparse.Namespace:
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
    for flag in ("--max-n", "--list-max-n", "--oracle-max-n"):
        if getattr(args, flag[2:].replace("-", "_")) < 0:
            parser.error(f"{flag} must be non-negative")
    # Both stream every code up to their n, as ``diskflows enum`` does;
    # n = 10 alone has 133,767,543 codes.
    for flag in ("--max-n", "--list-max-n"):
        n = getattr(args, flag[2:].replace("-", "_"))
        if n > ENUM_CAP:
            parser.error(f"{flag} {n} exceeds the cap {ENUM_CAP}")
    # The limits of ``diskflows oracle``: n at most its cap, and no more
    # candidates than n = 7's, about 22 s on two vCPUs.
    n = args.oracle_max_n
    if n > DEFAULT_CAP:
        parser.error(f"--oracle-max-n {n} exceeds the cap {DEFAULT_CAP}")
    tries, limit = candidate_count(n), candidate_count(7)
    if tries > limit:
        parser.error(
            f"--oracle-max-n {n} would try {tries} candidates"
            f" at n={n}, more than the {limit} at n=7"
        )
    return args


def write_counts(args: argparse.Namespace, rows: list[TableRow]) -> None:
    path = args.out / "counts.csv"
    product_sums = [0] * (args.max_n + 1)
    for row in rows:
        product_sums[row.n] += row.total
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n", "count", "streamed", "product_sum"])
        for n in range(args.max_n + 1):
            started = time.perf_counter()
            streamed = sum(block.count("\n") + 1 for block in iter_code_blocks(n))
            elapsed = time.perf_counter() - started
            count = count_flows(n)
            if not streamed == count == product_sums[n]:
                raise SystemExit(
                    f"count mismatch at n={n}: streamed {streamed},"
                    f" closed form {count}, product sum {product_sums[n]}"
                )
            writer.writerow([n, count, streamed, product_sums[n]])
            print(f"n={n}: {count} classes ({elapsed:.3f}s)")
    print(f"wrote {path}")


def write_class_table(args: argparse.Namespace, rows: list[TableRow]) -> None:
    path = args.out / "class_table.csv"
    path.write_text(table_to_csv([row for row in rows if row.n <= 5]))
    print(f"wrote {path}")


def write_code_lists(args: argparse.Namespace) -> None:
    for n in range(args.list_max_n + 1):
        path = args.out / f"codes_n{n}.txt"
        with path.open("w") as handle:
            handle.writelines(f"{block}\n" for block in iter_code_blocks(n))
        print(f"wrote {path}")


def write_oracle_reports(args: argparse.Namespace) -> None:
    for n in range(args.oracle_max_n + 1):
        codes, report = oracle_enumerate(n, bound=args.oracle_max_n)
        path = args.out / f"oracle_n{n}.json"
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
    print(f"wrote oracle reports to {args.out}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = table_rows(args.max_n)  # built once, for both CSV files
    write_counts(args, rows)
    write_class_table(args, rows)
    write_code_lists(args)
    write_oracle_reports(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
