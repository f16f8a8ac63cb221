"""Classification of flows on the closed 2-disk with one stationary
boundary point and no closed orbits.

Such a flow is determined up to topological equivalence by a plane
rooted tree (the nesting of its separatrix loops) whose edges carry a
color in {+1, -1} and at most one prime label per cell, and the tree in
turn by a linear code: the level-order up-degree sequence with an
overline mark for color -1 and a prime mark for the elliptic label.
This package builds, validates, enumerates, counts and draws these
codes, and ships a brute-force oracle that re-derives the enumeration
from first principles.
"""

from .codec import (
    Code,
    CodeSyntaxError,
    check_admissible,
    check_realizable,
    code_to_graph,
    graph_from_json,
    graph_to_code,
    graph_to_json,
    parse_code,
    serialize_code,
)
from .enumeration import count_flows, enumerate_flows, iter_flows, table_rows
from .oracle import oracle_enumerate, oracle_report
from .render import diagram_to_svg, tree_to_dot

__version__ = "0.1.0"

__all__ = [
    "Code",
    "CodeSyntaxError",
    "check_admissible",
    "check_realizable",
    "code_to_graph",
    "count_flows",
    "diagram_to_svg",
    "enumerate_flows",
    "graph_from_json",
    "graph_to_code",
    "graph_to_json",
    "iter_flows",
    "oracle_enumerate",
    "oracle_report",
    "parse_code",
    "serialize_code",
    "table_rows",
    "tree_to_dot",
]
