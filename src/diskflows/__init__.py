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
    AdmissibilityReport,
    Code,
    CodeSyntaxError,
    CodeToken,
    PropertyCheck,
    ValidationReport,
    are_equivalent,
    check_admissible,
    check_realizable,
    code_to_graph,
    graph_from_json,
    graph_to_code,
    graph_to_json,
    parse_code,
    serialize_code,
)
from .enumeration import (
    TableRow,
    abstract_classes,
    codes_to_text,
    count_flows,
    enumerate_flows,
    flows_per_tree,
    iter_flows,
    plane_trees,
    table_rows,
    table_to_csv,
)
from .model import (
    BLACK,
    COHERENT,
    RED,
    CellBoundary,
    CellDecoration,
    CellKind,
    CornerType,
    CyclicCell,
    DistinguishedGraph,
    PlaneRootedTree,
    PolarCell,
    boundary_directions,
    cell_config_count,
    classify_cell,
    classify_corners,
    enumerate_cell_configs,
    extract_cell_config,
)
from .oracle import DiscrepancyReport, oracle_cell_configs, oracle_enumerate
from .render import diagram_to_svg, tree_to_dot

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BLACK",
    "COHERENT",
    "CellBoundary",
    "CellDecoration",
    "CellKind",
    "Code",
    "CodeSyntaxError",
    "CodeToken",
    "CornerType",
    "CyclicCell",
    "DiscrepancyReport",
    "DistinguishedGraph",
    "PlaneRootedTree",
    "PolarCell",
    "PropertyCheck",
    "RED",
    "TableRow",
    "ValidationReport",
    "abstract_classes",
    "are_equivalent",
    "boundary_directions",
    "cell_config_count",
    "check_admissible",
    "check_realizable",
    "classify_cell",
    "classify_corners",
    "code_to_graph",
    "codes_to_text",
    "count_flows",
    "diagram_to_svg",
    "enumerate_cell_configs",
    "enumerate_flows",
    "extract_cell_config",
    "flows_per_tree",
    "graph_from_json",
    "graph_to_code",
    "graph_to_json",
    "iter_flows",
    "parse_code",
    "plane_trees",
    "serialize_code",
    "table_rows",
    "table_to_csv",
    "tree_to_dot",
]
