"""Combinatorial model of a flow on the closed 2-disk with a single
stationary point on the boundary and no closed orbits.

Every separatrix of such a flow is a loop that starts and ends at the
stationary point, so the n separatrices form a system of nested
non-crossing loops.  They cut the disk into n + 1 cells.  Nesting of the
loops is recorded by a plane rooted tree: one vertex per cell, the root
being the cell adjacent to the disk boundary, and one edge per
separatrix (the loop separating a cell from its parent cell).

Each separatrix carries a color in {+1, -1}: +1 when the flow direction
along the loop agrees with the orientation the plane induces on it as
the boundary of the region it encloses, -1 otherwise.  A cell with k
inner loops is a curvilinear (k+1)-gon; walking its boundary positively
one traverses the outer loop once (side 0) and each inner loop once
(sides 1..k), meeting k+1 corners at the stationary point.  The
traversal direction of side i relative to the flow is

    d_0 = color of the outer loop (+1 for the root cell, whose outer
          side is the disk boundary), and
    d_i = -color(inner loop i)   for i >= 1,

because an inner loop is walked against its own induced orientation.
A corner is a source when the flow leaves along both adjacent sides.
A coherently oriented boundary has no source; such a cell is cyclic and
contains exactly one elliptic corner, chosen freely and recorded by the
side whose flow enters it.  A boundary with exactly one source (hence
one sink) bounds a polar cell.  Boundaries with two or more sources do
not occur in a flow.  :func:`source_corners` is the one count of sources
that the classifier and the validator share; the full corner types
(source, sink, hyperbolic) are worked out independently by the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import lt

BLACK = 1
RED = -1

#: Conventional direction of side 0 of the root cell (the disk boundary).
ROOT_LOWER_DIRECTION = 1


class CellKind(Enum):
    CYCLIC = "cyclic"
    POLAR = "polar"
    INVALID = "invalid"


# ======================================================================
# plane rooted trees
# ======================================================================

@dataclass(frozen=True)
class PlaneRootedTree:
    """A rooted tree with ordered children, vertices numbered in level
    order (root = 0, then level by level, left to right).

    ``children[v]`` is the ordered tuple of child ids of vertex v.  With
    level-order numbering the child tuples are exactly the consecutive
    blocks 1..V-1, each starting after its owner, which ``__post_init__``
    enforces.  Every vertex but the root then has one parent, of smaller id.
    """

    children: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "children", tuple(tuple(kids) for kids in self.children)
        )
        if not self.children:
            raise ValueError("a tree has at least one vertex")
        nxt = 1
        for v, kids in enumerate(self.children):
            if kids and nxt <= v:
                raise ValueError(f"vertex {v} has no parent of smaller id")
            for c in kids:
                if c != nxt:
                    raise ValueError(
                        f"children of vertex {v} break level order at id {c}"
                    )
                nxt += 1
        if nxt != len(self.children):
            raise ValueError("child lists do not cover all non-root vertices")

    @classmethod
    def from_up_degrees(cls, degrees) -> "PlaneRootedTree":
        """Build the tree whose level-order up-degree sequence is ``degrees``.

        The sum is checked first, so no block is longer than the sequence.
        """
        degrees = tuple(int(d) for d in degrees)
        if any(d < 0 for d in degrees):
            raise ValueError("up-degrees are non-negative")
        if sum(degrees) != len(degrees) - 1:
            raise ValueError("up-degrees do not sum to vertex count minus one")
        blocks = []
        nxt = 1
        for d in degrees:
            blocks.append(tuple(range(nxt, nxt + d)))
            nxt += d
        return cls(tuple(blocks))

    @property
    def vertex_count(self) -> int:
        return len(self.children)

    @property
    def separatrix_count(self) -> int:
        return len(self.children) - 1

    @property
    def up_degrees(self) -> tuple[int, ...]:
        return tuple(len(kids) for kids in self.children)

    def parents(self) -> tuple[int | None, ...]:
        par: list[int | None] = [None] * self.vertex_count
        for v, kids in enumerate(self.children):
            for c in kids:
                par[c] = v
        return tuple(par)

    def depths(self) -> tuple[int, ...]:
        dep = [0] * self.vertex_count
        for v, kids in enumerate(self.children):
            for c in kids:
                dep[c] = dep[v] + 1
        return tuple(dep)


@dataclass(frozen=True)
class DistinguishedGraph:
    """A plane rooted tree with a color on every edge and an optional
    prime label on some edges.

    Edge data is stored at the lower endpoint (the child): ``colors[v]``
    and ``primes[v]`` describe the edge from v toward the root.  Slot 0
    holds the boundary convention for the root (+1, never primed).
    """

    tree: PlaneRootedTree
    colors: tuple[int, ...]
    primes: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "primes", tuple(bool(p) for p in self.primes))
        v = self.tree.vertex_count
        if len(self.colors) != v or len(self.primes) != v:
            raise ValueError("decoration length differs from vertex count")
        if self.colors[0] != ROOT_LOWER_DIRECTION:
            raise ValueError("slot 0 of colors holds the boundary convention +1")
        if self.primes[0]:
            raise ValueError("the root carries no prime")
        for c in self.colors[1:]:
            if c not in (BLACK, RED):
                raise ValueError(f"edge color must be +1 or -1, got {c!r}")


# ======================================================================
# cell boundaries and corners
# ======================================================================

@dataclass(frozen=True)
class CellBoundary:
    """Directions d_0..d_n of the sides of one cell, walked positively."""

    sides: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple(self.sides))
        if not self.sides:
            raise ValueError("a cell has at least one side")
        for d in self.sides:
            if d not in (1, -1):
                raise ValueError(f"side direction must be +1 or -1, got {d!r}")

    def __len__(self) -> int:
        return len(self.sides)


def boundary_directions(graph: DistinguishedGraph, v: int) -> CellBoundary:
    """Boundary of the cell of vertex v: side 0 is the lower side, sides
    1..k follow the ordered children."""
    if not 0 <= v < graph.tree.vertex_count:
        raise ValueError(f"unknown vertex id {v}")
    lower = graph.colors[v]
    return CellBoundary((lower,) + tuple(-graph.colors[c] for c in graph.tree.children[v]))


def source_corners(sides) -> int:
    """Number of source corners of a cell with side directions ``sides``,
    given as +1/-1 or as booleans (True for +1).

    Corner i sits between side i and side i+1 (indices mod the side
    count); it is a source when side i runs -1 and side i+1 runs +1.
    """
    return sum(map(lt, sides, sides[1:] + sides[:1]))


def classify_cell(boundary: CellBoundary) -> CellKind:
    """Cyclic (no source corner), polar (one), or invalid (more).

    A boundary that is not coherent changes direction from -1 to +1
    somewhere, so only a coherent boundary has no source.
    """
    sources = source_corners(boundary.sides)
    if sources == 0:
        return CellKind.CYCLIC
    return CellKind.POLAR if sources == 1 else CellKind.INVALID


# ======================================================================
# cell configurations
# ======================================================================

@dataclass(frozen=True)
class CyclicCell:
    """Coherent cell; the elliptic corner is entered by side ``elliptic_entry``."""

    elliptic_entry: int


@dataclass(frozen=True)
class PolarCell:
    source_corner: int
    sink_corner: int


CellConfiguration = CyclicCell | PolarCell


@dataclass(frozen=True)
class CellDecoration:
    """One admissible flow pattern in a single cell, together with the
    edge decorations it forces on the inner loops."""

    config: CellConfiguration
    child_colors: tuple[int, ...]
    child_primes: tuple[bool, ...]


def cell_config_count(n: int) -> int:
    """Number of flow configurations in a cell with n inner loops.

    A polar pattern is a choice of an interval of sides carrying the
    reversed direction, n(n+1)/2 in all; a cyclic pattern is a choice of
    entry side for the elliptic corner, n+1 in all.
    """
    if n < 0:
        raise ValueError("inner loop count is non-negative")
    return (n + 1) * (n + 2) // 2


@lru_cache(maxsize=None)
def enumerate_cell_configs(n: int, lower_direction: int) -> tuple[CellDecoration, ...]:
    """All configurations of a cell with n inner loops whose side 0 has
    the given direction, sorted by the forced (colors, primes) pair.

    Cyclic configurations force the opposite color -d_0 on every inner
    loop and prime the entered loop when it is an inner one.  A polar
    configuration runs the sides first..last (1 <= first <= last <= n)
    against side 0, so those loops take the color d_0 and the rest -d_0,
    and never primes.  The run is bounded by corners first-1 and last:
    the source is the one where the flow turns from -1 to +1.
    """
    if lower_direction not in (1, -1):
        raise ValueError("lower direction must be +1 or -1")
    if n < 0:
        raise ValueError("inner loop count is non-negative")
    out: list[CellDecoration] = []
    inner_color = -lower_direction
    no_primes = (False,) * n
    for entry in range(n + 1):
        primes = tuple(i == entry - 1 for i in range(n))
        out.append(CellDecoration(CyclicCell(entry), (inner_color,) * n, primes))
    for first in range(1, n + 1):
        for last in range(first, n + 1):
            colors = tuple(
                lower_direction if first <= i <= last else inner_color
                for i in range(1, n + 1)
            )
            if lower_direction == 1:
                config = PolarCell(last, first - 1)
            else:
                config = PolarCell(first - 1, last)
            out.append(CellDecoration(config, colors, no_primes))
    out.sort(key=lambda dec: (dec.child_colors, dec.child_primes))
    return tuple(out)


def _cell_automaton(color: int) -> list:
    """Start node of the automaton that reads a cell's child decorations
    in token order; ``color`` is the color of the cell's own vertex.

    A node lists the options for the next child as [overline, prime,
    color, next node].  "Same" is the cyclic mark, overline exactly when
    ``color`` is BLACK; "opposite" runs against side 0.  start: same
    stays, same and primed goes to back, opposite goes to away.  away
    (inside the polar run): opposite stays, same goes to back.  back: same
    only.  Every node accepts, so a cell may end after any child.
    """
    same = color == BLACK
    start, away, back = [], [], []
    for node, options in (
        (start, [(same, False, start), (same, True, back), (not same, False, away)]),
        (away, [(not same, False, away), (same, False, back)]),
        (back, [(same, False, back)]),
    ):
        node.extend(
            [overline, prime, RED if overline else BLACK, nxt]
            for overline, prime, nxt in sorted(options, key=lambda o: o[:2])
        )
    return start


#: Start node of the cell automaton, by the color of the cell's vertex;
#: shared by every walk and never modified.
CELL_AUTOMATON = {color: _cell_automaton(color) for color in (BLACK, RED)}
