"""Drawings: Graphviz source for the decorated tree and an SVG picture
of the flow itself (nested separatrix loops on the disk).

The SVG is built from fixed geometry so that equal inputs give byte
identical documents.  Every separatrix becomes a teardrop curve through
the base point on the disk boundary, grouped as ``<g class="loop">``
elements whose XML nesting mirrors the tree.  Each loop carries one
arrowhead (class ``arrow forward`` or ``arrow reversed`` according to
its color) and every cyclic cell gets one ``<circle
class="elliptic-dot">`` at its elliptic corner.  A cell's kind is read
off the marks of its vertex and its children with
:func:`~diskflows.model.source_corners`, as the validator reads it; no
cell boundary is built.  Each loop is written as one formatted block,
and the parts that never change are formatted once, at import.
"""

from __future__ import annotations

import math

from .codec import check_realizable, graph_to_code, serialize_code
from .model import (
    BLACK,
    RED,
    DistinguishedGraph,
    classify_cell,  # not called here; kept for the tracer in bench/layers.py
    source_corners,
)

# ======================================================================
# Graphviz
# ======================================================================

_DOT_HEAD = """digraph flow_code {
  ordering=out;
  node [shape=circle];
  0 [shape=doublecircle, label="0"];"""

#: The attributes of an edge, by the color and the prime of its child.
_DOT_EDGE = {
    (color, prime): f"color={name}" + (f", label=\"'\", fontcolor={name}" if prime else "")
    for color, name in ((BLACK, "black"), (RED, "red"))
    for prime in (False, True)
}


def tree_to_dot(graph: DistinguishedGraph) -> str:
    """Graphviz source for the decorated tree.

    The root is drawn with a double border, colors keep their usual
    black/red styling, primed edges are labelled with the prime glyph,
    and ``ordering=out`` preserves the child order.
    """
    tree = graph.tree
    colors, primes = graph.colors, graph.primes
    lines = [_DOT_HEAD]
    lines.extend(f'  {v} [label="{v}"];' for v in range(1, tree.vertex_count))
    for v, kids in enumerate(tree.children):
        for c in kids:
            lines.append(f"  {v} -> {c} [{_DOT_EDGE[colors[c], primes[c]]}];")
    lines.append("}\n")
    return "\n".join(lines)


# ======================================================================
# SVG diagram
# ======================================================================

SIZE = 640.0
CENTER = SIZE / 2.0
DISK_R = 292.0
BASE = (CENTER, CENTER + DISK_R)
BUDGET = (18.0, 162.0)       # angular room for the top-level loops
ROOT_RAYS = (6.0, 174.0)     # where the disk boundary counts as the root's side
RHO0 = 0.42 * DISK_R         # radial extent of depth-1 loops
DECAY = 0.72
INDENT_DEPTH = 8             # deeper loops keep this indent: the SVG stays linear

_BASE_XY = f"{BASE[0]:.2f} {BASE[1]:.2f}"
_SVG_OPEN = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE:.2f}" '
    f'height="{SIZE:.2f}" viewBox="0 0 {SIZE:.2f} {SIZE:.2f}">'
)
_DISK = (
    f'  <circle class="disk" cx="{CENTER:.2f}" cy="{CENTER:.2f}" '
    f'r="{DISK_R:.2f}" fill="none" stroke="#000000" stroke-width="1.5"/>'
)
_SVG_CLOSE = (
    f'  <circle class="base-point" cx="{BASE[0]:.2f}" cy="{BASE[1]:.2f}" '
    'r="5" fill="#000000"/>\n</svg>\n'
)


def _unit(angle_deg: float) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (math.cos(a), -math.sin(a))


def _at(dist: float, angle_deg: float) -> tuple[float, float]:
    ux, uy = _unit(angle_deg)
    return (BASE[0] + dist * ux, BASE[1] + dist * uy)


def _intervals(tree) -> dict[int, tuple[float, float]]:
    """Angular interval of every loop, children splitting the parent."""
    spans = {0: BUDGET}
    for v in range(tree.vertex_count):
        kids = tree.children[v]
        if not kids:
            continue
        a, b = spans[v]
        pad = (b - a) * 0.06
        lo, hi = a + pad, b - pad
        width = (hi - lo) / len(kids)
        for j, c in enumerate(kids):
            spans[c] = (lo + j * width + width * 0.08, lo + (j + 1) * width - width * 0.08)
    return spans


def _loop(v: int, color: int, span: tuple[float, float], rho: float, indent: str) -> str:
    """The group tag, teardrop curve and arrowhead of loop v, one block.

    The curve's control points sit on the span's rays; the arrowhead
    sits at the curve's apex, along the tangent there, reversed on a
    red loop.
    """
    a, b = span
    half = math.radians(b - a) / 2.0
    ctrl = min(4.0 * rho / (3.0 * max(math.cos(half), 0.15)), 1.9 * rho)
    ua, ub = _unit(a), _unit(b)
    apex_x = BASE[0] + 0.375 * ctrl * (ua[0] + ub[0])
    apex_y = BASE[1] + 0.375 * ctrl * (ua[1] + ub[1])
    tx, ty = ub[0] - ua[0], ub[1] - ua[1]
    norm = math.hypot(tx, ty) or 1.0
    dx, dy = tx / norm, ty / norm
    if color == RED:
        stroke, arrow = "#bb0000", "arrow reversed"
        dx, dy = -dx, -dy
    else:
        stroke, arrow = "#000000", "arrow forward"
    px, py = -dy, dx
    s = max(3.5, min(8.0, 0.16 * rho))
    return (
        f'{indent}<g class="loop" data-vertex="{v}" data-color="{color}">\n'
        f'{indent}  <path class="loop-path" d="M {_BASE_XY} '
        f"C {BASE[0] + ctrl * ua[0]:.2f} {BASE[1] + ctrl * ua[1]:.2f} "
        f"{BASE[0] + ctrl * ub[0]:.2f} {BASE[1] + ctrl * ub[1]:.2f} "
        f'{_BASE_XY} Z" fill="none" stroke="{stroke}" stroke-width="1.6"/>\n'
        f'{indent}  <path class="{arrow}" data-vertex="{v}" '
        f'd="M {apex_x + s * dx:.2f} {apex_y + s * dy:.2f} '
        f"L {apex_x - 0.8 * s * dx + 0.65 * s * px:.2f} "
        f"{apex_y - 0.8 * s * dy + 0.65 * s * py:.2f} "
        f"L {apex_x - 0.8 * s * dx - 0.65 * s * px:.2f} "
        f'{apex_y - 0.8 * s * dy - 0.65 * s * py:.2f} Z" fill="{stroke}"/>'
    )


def _cell_dot(graph, v: int, spans, rho_of_cell: float, indent: str) -> str | None:
    """Dot element for the cell of v when that cell is cyclic.

    Side 0 runs in the direction of v's color and side i against child
    i's color; the cell is cyclic when those sides have no source corner.
    """
    colors = graph.colors
    kids = graph.tree.children[v]
    lower = colors[v]
    if source_corners([lower] + [-colors[c] for c in kids]):
        return None
    entry = 0
    for j, c in enumerate(kids, start=1):
        if graph.primes[c]:
            entry = j
    # The flow along side i enters corner i in a +1 cell and corner i-1 in a -1 cell.
    corner = entry if lower == 1 else (entry - 1) % (len(kids) + 1)
    # Corner i lies between the rays of sides i and i+1: side 0 has the
    # cell's own rays, side j the rays of child j.
    own = spans[v] if v else ROOT_RAYS
    lo = spans[kids[corner - 1]][1] if corner else own[0]
    hi = spans[kids[corner]][0] if corner < len(kids) else own[1]
    x, y = _at(0.32 * rho_of_cell, (lo + hi) / 2.0)
    return (
        f'{indent}<circle class="elliptic-dot" data-cell="{v}" '
        f'cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#000000"/>'
    )


def diagram_to_svg(graph: DistinguishedGraph) -> str:
    """Deterministic SVG of the flow of a realizable decorated tree."""
    code = graph_to_code(graph)
    report = check_realizable(code)
    if not report.realizable:
        raise ValueError(f"graph is not realizable: {report.detail}")

    tree = graph.tree
    colors = graph.colors
    spans = _intervals(tree)
    lines = [
        _SVG_OPEN,
        f"  <title>flow diagram for code {serialize_code(code)}</title>",
        _DISK,
    ]

    root_dot = _cell_dot(graph, 0, spans, RHO0 / DECAY, "  ")
    if root_dot:
        lines.append(root_dot)

    # Depth-first over the loops with an explicit stack: an entry with
    # closing=True writes the end tag of v's group once its children are done.
    stack = [(c, 1, False) for c in reversed(tree.children[0])]
    while stack:
        v, depth, closing = stack.pop()
        indent = "  " * (min(depth, INDENT_DEPTH) + 1)
        if closing:
            lines.append(f"{indent}</g>")
            continue
        rho = RHO0 * DECAY ** (depth - 1)
        lines.append(_loop(v, colors[v], spans[v], rho, indent))
        dot = _cell_dot(graph, v, spans, rho, indent + "  ")
        if dot:
            lines.append(dot)
        stack.append((v, depth, True))
        stack.extend((c, depth + 1, False) for c in reversed(tree.children[v]))

    lines.append(_SVG_CLOSE)
    return "\n".join(lines)
