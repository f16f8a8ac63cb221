"""Command-line front end.

Subcommands: validate, decode, encode, enum, table, render, oracle.
Exit codes of ``validate``: 0 when the code is realizable, 2 when one of
the four necessary properties fails, 3 when the code is admissible but
not realizable.  Usage and IO problems exit 1 everywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from .codec import (
    PROPERTY_NAMES,
    Code,
    CodeSyntaxError,
    check_realizable,
    code_to_graph,
    graph_from_json,
    graph_to_code,
    graph_to_json,
    parse_code,
    serialize_code,
)
from .enumeration import (
    codes_to_text,
    count_flows,
    enumerate_flows,  # not called here; kept for the tracer in bench/layers.py
    iter_code_blocks,
    table_rows,
    table_to_csv,
)
from .oracle import DEFAULT_BOUND, candidate_count, oracle_report
from .oracle import oracle_enumerate  # not called here; kept for the tracer in bench/layers.py
from .render import diagram_to_svg, tree_to_dot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_UNREALIZABLE = 3

#: Safety cap on n for building the table and running the oracle.
DEFAULT_CAP = 10

#: Default cap on n for listing codes: 16,301,164 codes at n = 9, while
#: n = 10 lists 133,767,543, about 1.5 GB of text.
ENUM_CAP = 9

#: Largest n for ``enum --count-only``.  The count is a closed form, cheap
#: for any n, but its decimal text (fewer than n digits) must stay under
#: Python's default limit of 4300 digits for converting an int to text.
COUNT_MAX_N = 4000

#: Blocks of code texts written per step of ``enum``, one block per
#: folded walk state of at most 512 codes: up to n = 9, at most 2,367
#: lines and 44 KB of text per step.
ENUM_CHUNK = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path``, or stdout when it is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_or_print(text: str, path: str | None) -> None:
    with _output(path) as fh:
        fh.write(text)


def _parse_arg_code(text: str) -> Code:
    try:
        return parse_code(text)
    except CodeSyntaxError as exc:
        raise _UsageError(f"bad code: {exc}")


def _check_n(n: int, cap: int, remedy: str) -> None:
    if n < 0:
        raise _UsageError("n is non-negative")
    if n > cap:
        raise _UsageError(f"n={n} exceeds the cap {cap}; {remedy}")


# ----------------------------------------------------------------------

def _cmd_validate(args) -> int:
    code = _parse_arg_code(args.code)
    report = check_realizable(code)
    adm = report.admissible
    print(f"code: {serialize_code(code)}")
    print(f"admissible: {'PASS' if adm.passed else 'FAIL'}")
    for i, check in enumerate(adm.checks):
        line = f"  property {i + 1} ({PROPERTY_NAMES[i]}): "
        line += "PASS" if check.passed else "FAIL"
        if not check.passed:
            where = "" if check.token_index is None else f" at token {check.token_index}"
            line += f"{where}: {check.detail}"
        print(line)
    if report.realizable:
        print("realizable: PASS")
        return EXIT_OK
    if not adm.passed:
        print("realizable: FAIL (not admissible)")
        return EXIT_INADMISSIBLE
    sides = "[" + ", ".join(f"{d:+d}" for d in report.offending_boundary) + "]"
    print(f"realizable: FAIL ({report.detail}; boundary {sides})")
    return EXIT_UNREALIZABLE


def _cmd_decode(args) -> int:
    code = _parse_arg_code(args.code)
    try:
        graph = code_to_graph(code)
    except ValueError as exc:
        return _fail(str(exc))
    _write_or_print(json.dumps(graph_to_json(graph), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_encode(args) -> int:
    try:
        if args.json_file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.json_file, encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read {args.json_file}: {exc}")
    # Deep nesting exhausts the parser's recursion; an int literal past
    # Python's digit limit raises a plain ValueError.
    except (ValueError, RecursionError) as exc:
        return _fail(f"invalid JSON: {exc}")
    try:
        graph = graph_from_json(doc)
    except ValueError as exc:
        return _fail(str(exc))
    print(serialize_code(graph_to_code(graph)))
    return EXIT_OK


def _cmd_enum(args) -> int:
    if args.count_only:
        if not 0 <= args.n <= COUNT_MAX_N:
            raise _UsageError(f"--count-only takes n from 0 up to {COUNT_MAX_N}")
        _write_or_print(f"{count_flows(args.n)}\n", args.out)
        return EXIT_OK
    _check_n(args.n, args.cap, "raise it with --cap")
    blocks = iter_code_blocks(args.n)
    with _output(args.out) as fh:
        while chunk := list(itertools.islice(blocks, ENUM_CHUNK)):
            fh.write(codes_to_text(chunk))
    return EXIT_OK


def _cmd_table(args) -> int:
    _check_n(args.max_n, DEFAULT_CAP, "table stops there")
    text = table_to_csv(table_rows(args.max_n))
    _write_or_print(text, args.csv)
    return EXIT_OK


def _cmd_render(args) -> int:
    code = _parse_arg_code(args.code)
    try:
        graph = code_to_graph(code)
        if args.view == "tree":
            text = tree_to_dot(graph)
        else:
            text = diagram_to_svg(graph)
    except ValueError as exc:
        return _fail(str(exc))
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _check_n(args.n, DEFAULT_CAP, "oracle stops there")
    if args.n > args.bound:
        raise _UsageError(
            f"oracle bound exceeded: n={args.n} > {args.bound}; raise it with --bound"
        )
    # Whatever the bound, no run tries more candidates than n = 7's, about
    # 0.6 s on two vCPUs; n = 8 would try eleven times as many.
    tries, limit = candidate_count(args.n), candidate_count(7)
    if tries > limit:
        raise _UsageError(
            f"oracle at n={args.n} would try {tries} candidates, more than the {limit} at n=7"
        )
    # The JSON target opens before the run, so a bad path fails at once.
    fh = None if args.json is None else open(args.json, "w", encoding="utf-8")
    with fh or contextlib.nullcontext():
        report = oracle_report(args.n, bound=args.bound)
        sys.stdout.write(report.to_text())
        if fh is not None:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diskflows", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a code and report both validation tiers")
    p.add_argument("code")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decode", help="print the decorated tree of a code as JSON")
    p.add_argument("code")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode", help="print the canonical code of a JSON tree")
    p.add_argument("json_file", help="path to a graph document, or - for stdin")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("enum", help="list or count all codes with n separatrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.add_argument("--cap", type=int, default=ENUM_CAP)
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("table", help="emit the per-tree counting table as CSV")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--csv", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("render", help="draw a code as Graphviz or SVG")
    p.add_argument("code")
    p.add_argument("--view", choices=("tree", "diagram"), default="tree")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="brute-force cross-check of the enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    p.add_argument("--json", help="also write the report to this file")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except _UsageError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # The reader closed the output early, as ``enum --n 8 | head``
        # does: end quietly.  Standard output now writes to devnull, so
        # the flush at exit cannot fail on the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
