#!/usr/bin/env python3
"""Render flow diagrams for every class at a given separatrix count.

Produces one SVG per code (and optionally the Graphviz tree view) in the
chosen directory.  File names are the codes themselves with the two mark
characters replaced so they stay shell-friendly: '~' becomes 'r' (the
reversed loop) and the stroke becomes 'e' (the marked elliptic entry).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from diskflows.codec import code_to_graph, serialize_code
from diskflows.enumeration import iter_flows
from diskflows.render import diagram_to_svg, tree_to_dot


def file_stem(code_text: str) -> str:
    return code_text.replace("~", "r").replace("'", "e").replace(" ", "_")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="separatrix count")
    parser.add_argument(
        "--out", type=Path, default=Path("gallery"), help="output directory"
    )
    parser.add_argument(
        "--dot", action="store_true", help="also write Graphviz tree views"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="render at most this many codes"
    )
    args = parser.parse_args(argv)
    if args.n < 0:
        parser.error("--n must be non-negative")
    if args.limit is not None and args.limit < 0:
        parser.error("--limit must be non-negative")

    args.out.mkdir(parents=True, exist_ok=True)
    rendered = 0
    for code in itertools.islice(iter_flows(args.n), args.limit):
        text = serialize_code(code)
        graph = code_to_graph(code)
        stem = file_stem(text)
        (args.out / f"{stem}.svg").write_text(diagram_to_svg(graph))
        if args.dot:
            (args.out / f"{stem}.dot").write_text(tree_to_dot(graph))
        rendered += 1
    kinds = "SVG and DOT files" if args.dot else "SVG files"
    print(f"rendered {rendered} codes at n={args.n} as {kinds} in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
