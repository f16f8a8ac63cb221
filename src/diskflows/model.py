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

A tree is checked once per construction.  ``PlaneRootedTree(children)``
checks every block; :meth:`PlaneRootedTree.from_up_degrees` builds
blocks that are consecutive by construction, checks while building that
each starts after its owner, with the same message, and skips the second
check.  A decoded graph is built the same way (see
``codec.code_to_graph``).

The choices a cell allows are stated once, as :data:`CELL_AUTOMATON`,
and read through :func:`_completions`, which lists the decorations of
one length and keeps nothing.  The callers that reuse what it lists
cache it: the enumeration walk keeps the lists per stream, and
:func:`enumerate_cell_configs` keeps what it tags per cell size and
direction.
"""

from __future__ import annotations

from collections.abc import Callable
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

def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: only for fields built valid and
    already normalized, so that each tree is checked once."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
        The blocks are consecutive and cover 1..V-1 by construction, so
        the one check ``__post_init__`` could still fail, that each block
        starts after its owner, runs as they are built, with the same
        message, and ``__post_init__`` does not run again.
        """
        degrees = tuple(int(d) for d in degrees)
        if any(d < 0 for d in degrees):
            raise ValueError("up-degrees are non-negative")
        if sum(degrees) != len(degrees) - 1:
            raise ValueError("up-degrees do not sum to vertex count minus one")
        blocks = []
        nxt = 1
        for v, d in enumerate(degrees):
            if d and nxt <= v:
                raise ValueError(f"vertex {v} has no parent of smaller id")
            blocks.append(tuple(range(nxt, nxt + d)))
            nxt += d
        return _unchecked(cls, children=tuple(blocks))

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


def _completions(
    node: list, length: int, token: Callable[[int, bool, bool], object]
) -> list[tuple]:
    """Every decoration of ``length`` children read from the automaton
    node ``node``, in automaton order, each a tuple of what ``token``
    makes of its tokens, all of value 0.

    Only ``length`` is listed, depth first from an explicit stack, so no
    call recurses and nothing shorter is kept; a caller that asks for a
    list again caches it.
    """
    # path[1:depth + 1] holds the tokens read so far: each pop writes its
    # token over the last one read at its depth.  Options are pushed in
    # reverse, so they pop in automaton order.
    out, path, stack = [], [None] * (length + 1), [(0, None, node)]
    while stack:
        depth, path[depth], x = stack.pop()
        if depth == length:
            out.append(tuple(path[1:]))
        else:
            stack += [(depth + 1, token(0, o, p), nxt) for o, p, _, nxt in reversed(x)]
    return out


@lru_cache(maxsize=None)
def enumerate_cell_configs(n: int, lower_direction: int) -> tuple[CellDecoration, ...]:
    """All configurations of a cell with n inner loops whose side 0 has
    the given direction, sorted by the forced (colors, primes) pair: the
    decorations of n children read from the automaton, each tagged.

    With no loop of color d_0 the cell is cyclic, entered by the primed
    loop or by side 0.  Otherwise the loops of color d_0 run the sides
    first..last against side 0, between corners first-1 and last; the
    source is the one where the flow turns from -1 to +1.
    """
    if lower_direction not in (1, -1):
        raise ValueError("lower direction must be +1 or -1")
    if n < 0:
        raise ValueError("inner loop count is non-negative")
    out: list[CellDecoration] = []
    node = CELL_AUTOMATON[lower_direction]
    for marks in _completions(node, n, lambda _, overline, prime: (overline, prime)):
        colors = tuple(RED if overline else BLACK for overline, _ in marks)
        primes = tuple(prime for _, prime in marks)
        run = [i for i, c in enumerate(colors, 1) if c == lower_direction]
        if not run:
            config = CyclicCell(primes.index(True) + 1 if True in primes else 0)
        elif lower_direction == 1:
            config = PolarCell(run[-1], run[0] - 1)
        else:
            config = PolarCell(run[0] - 1, run[-1])
        out.append(CellDecoration(config, colors, primes))
    out.sort(key=lambda dec: (dec.child_colors, dec.child_primes))
    return tuple(out)
