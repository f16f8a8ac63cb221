"""Drawings: Graphviz source for the decorated tree and an SVG picture
of the flow itself (nested separatrix loops on the disk).

The SVG is built from fixed geometry so that equal inputs give byte
identical documents.  Every separatrix becomes a teardrop curve through
the base point on the disk boundary, grouped as ``<g class="loop">``
elements whose XML nesting mirrors the tree.  Each loop carries one
arrowhead (class ``arrow forward`` or ``arrow reversed`` according to
its color) and every cyclic cell gets one ``<circle
class="elliptic-dot">`` at its elliptic corner.
"""

from __future__ import annotations

import math

from .codec import check_realizable, graph_to_code, serialize_code
from .model import (
    RED,
    CellKind,
    DistinguishedGraph,
    boundary_directions,
    classify_cell,
)

# ======================================================================
# Graphviz
# ======================================================================

def tree_to_dot(graph: DistinguishedGraph) -> str:
    """Graphviz source for the decorated tree.

    The root is drawn with a double border, colors keep their usual
    black/red styling, primed edges are labelled with the prime glyph,
    and ``ordering=out`` preserves the child order.
    """
    tree = graph.tree
    lines = [
        "digraph flow_code {",
        "  ordering=out;",
        "  node [shape=circle];",
        '  0 [shape=doublecircle, label="0"];',
    ]
    for v in range(1, tree.vertex_count):
        lines.append(f'  {v} [label="{v}"];')
    for v in range(tree.vertex_count):
        for c in tree.children[v]:
            color = "red" if graph.colors[c] == RED else "black"
            attrs = [f"color={color}"]
            if graph.primes[c]:
                attrs.append("label=\"'\"")
                attrs.append(f"fontcolor={color}")
            lines.append(f"  {v} -> {c} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def _fmt(x: float) -> str:
    return f"{x:.2f}"


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


def _loop_geometry(span: tuple[float, float], rho: float):
    """Control points, apex and apex tangent of one teardrop curve."""
    a, b = span
    half = math.radians(b - a) / 2.0
    ctrl = min(4.0 * rho / (3.0 * max(math.cos(half), 0.15)), 1.9 * rho)
    ua, ub = _unit(a), _unit(b)
    c1 = (BASE[0] + ctrl * ua[0], BASE[1] + ctrl * ua[1])
    c2 = (BASE[0] + ctrl * ub[0], BASE[1] + ctrl * ub[1])
    apex = (
        BASE[0] + 0.375 * ctrl * (ua[0] + ub[0]),
        BASE[1] + 0.375 * ctrl * (ua[1] + ub[1]),
    )
    tx, ty = ub[0] - ua[0], ub[1] - ua[1]
    norm = math.hypot(tx, ty) or 1.0
    return c1, c2, apex, (tx / norm, ty / norm)


def _arrow_path(apex, tangent, rho: float, reversed_: bool) -> str:
    s = max(3.5, min(8.0, 0.16 * rho))
    dx, dy = tangent
    if reversed_:
        dx, dy = -dx, -dy
    px, py = -dy, dx
    tip = (apex[0] + s * dx, apex[1] + s * dy)
    b1 = (apex[0] - 0.8 * s * dx + 0.65 * s * px, apex[1] - 0.8 * s * dy + 0.65 * s * py)
    b2 = (apex[0] - 0.8 * s * dx - 0.65 * s * px, apex[1] - 0.8 * s * dy - 0.65 * s * py)
    return (
        f"M {_fmt(tip[0])} {_fmt(tip[1])} L {_fmt(b1[0])} {_fmt(b1[1])}"
        f" L {_fmt(b2[0])} {_fmt(b2[1])} Z"
    )


def _cell_dot(graph, v: int, spans, rho_of_cell: float, indent: str) -> str | None:
    """Dot element for the cell of v when that cell is cyclic."""
    boundary = boundary_directions(graph, v)
    if classify_cell(boundary) is not CellKind.CYCLIC:
        return None
    kids = graph.tree.children[v]
    entry = 0
    for j, c in enumerate(kids, start=1):
        if graph.primes[c]:
            entry = j
    # The flow along side i enters corner i in a +1 cell and corner i-1 in a -1 cell.
    corner = entry if boundary.sides[0] == 1 else (entry - 1) % len(boundary)
    own = spans[v] if v else ROOT_RAYS
    rays = [own[0]]
    for c in kids:
        rays.extend(spans[c])
    rays.append(own[1])
    gap = (rays[2 * corner], rays[2 * corner + 1])
    angle = (gap[0] + gap[1]) / 2.0
    dist = 0.32 * rho_of_cell
    x, y = _at(dist, angle)
    return (
        f'{indent}<circle class="elliptic-dot" data-cell="{v}" '
        f'cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="#000000"/>'
    )


def diagram_to_svg(graph: DistinguishedGraph) -> str:
    """Deterministic SVG of the flow of a realizable decorated tree."""
    code = graph_to_code(graph)
    report = check_realizable(code)
    if not report.realizable:
        raise ValueError(f"graph is not realizable: {report.detail}")

    tree = graph.tree
    spans = _intervals(tree)
    depths = tree.depths()
    rho = {v: RHO0 * DECAY ** (depths[v] - 1) for v in range(1, tree.vertex_count)}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(SIZE)}" '
        f'height="{_fmt(SIZE)}" viewBox="0 0 {_fmt(SIZE)} {_fmt(SIZE)}">',
        f"  <title>flow diagram for code {serialize_code(code)}</title>",
        f'  <circle class="disk" cx="{_fmt(CENTER)}" cy="{_fmt(CENTER)}" '
        f'r="{_fmt(DISK_R)}" fill="none" stroke="#000000" stroke-width="1.5"/>',
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
        color = graph.colors[v]
        stroke = "#bb0000" if color == RED else "#000000"
        reversed_ = color == RED
        c1, c2, apex, tangent = _loop_geometry(spans[v], rho[v])
        lines.append(
            f'{indent}<g class="loop" data-vertex="{v}" data-color="{color}">'
        )
        lines.append(
            f'{indent}  <path class="loop-path" d="M {_fmt(BASE[0])} {_fmt(BASE[1])} '
            f"C {_fmt(c1[0])} {_fmt(c1[1])} {_fmt(c2[0])} {_fmt(c2[1])} "
            f'{_fmt(BASE[0])} {_fmt(BASE[1])} Z" fill="none" stroke="{stroke}" '
            'stroke-width="1.6"/>'
        )
        arrow_cls = "arrow reversed" if reversed_ else "arrow forward"
        lines.append(
            f'{indent}  <path class="{arrow_cls}" data-vertex="{v}" '
            f'd="{_arrow_path(apex, tangent, rho[v], reversed_)}" fill="{stroke}"/>'
        )
        dot = _cell_dot(graph, v, spans, rho[v], indent + "  ")
        if dot:
            lines.append(dot)
        stack.append((v, depth, True))
        stack.extend((c, depth + 1, False) for c in reversed(tree.children[v]))

    lines.append(
        f'  <circle class="base-point" cx="{_fmt(BASE[0])}" cy="{_fmt(BASE[1])}" '
        'r="5" fill="#000000"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
