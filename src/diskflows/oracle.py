"""Brute-force cross-checks for the per-cell and whole-tree enumerators.

Everything here recomputes results from first principles: cell
configurations by trying all 2**n colorings of the inner loops and
typing every corner of the resulting boundary, and flow classes by
decorating every plane tree with every coloring and at most one prime
per sibling block, each block decided from the corners of its cell.
The plane trees come from the generator behind
:func:`~diskflows.enumeration.plane_trees`, not from the token walk.
Nothing here calls the validator, the model's cell classifier or its
cell automaton; only the code and decoration dataclasses are shared.
:func:`oracle_report` counts the realizable candidates and builds codes
only for the witnesses; :func:`oracle_enumerate` also builds the
realizable ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .codec import Code, cached_token, serialize_code
from .codec import check_realizable  # not called here; kept for the tracer in bench/layers.py
from .enumeration import _nested_trees, _nested_up_degrees, count_flows
from .model import CellDecoration, CyclicCell, PolarCell

DEFAULT_BOUND = 5


def _corners(sides) -> list[str]:
    """Type of every corner of a cell with side directions ``sides``.

    Corner i sits between side i and side i+1 (indices mod the side
    count).  Side i runs from corner i-1 to corner i along the flow when
    its direction is +1 and the other way when it is -1, so corner i is
    a "source" when the flow leaves it along both sides, a "sink" when
    it enters along both, and "hyperbolic" when it passes through.
    """
    m = len(sides)
    out = []
    for i in range(m):
        before, after = sides[i], sides[(i + 1) % m]
        if before == -1 and after == 1:
            out.append("source")
        elif before == 1 and after == -1:
            out.append("sink")
        else:
            out.append("hyperbolic")
    return out


def _cell_kind(sides) -> tuple[str, list[str]]:
    """The kind of a cell with side directions ``sides``, and its corners:
    "coherent" if every corner is hyperbolic, else "polar" with one
    source corner and "invalid" with more."""
    corners = _corners(sides)
    if all(c == "hyperbolic" for c in corners):
        return "coherent", corners
    return ("polar" if corners.count("source") == 1 else "invalid"), corners


def oracle_cell_configs(n: int, lower_direction: int) -> list[CellDecoration]:
    """All configurations of one cell, found by exhausting colorings.

    Same ordering contract as the fast enumerator: sorted by the
    (colors, primes) pair.
    """
    if n < 0:
        raise ValueError("inner loop count is non-negative")
    if lower_direction not in (1, -1):
        raise ValueError("lower direction must be +1 or -1")
    out: list[CellDecoration] = []
    for colors in itertools.product((1, -1), repeat=n):
        kind, corners = _cell_kind((lower_direction,) + tuple(-c for c in colors))
        if kind == "coherent":
            for entry in range(n + 1):
                primes = tuple(i == entry - 1 for i in range(n))
                out.append(CellDecoration(CyclicCell(entry), colors, primes))
        elif kind == "polar":
            cell = PolarCell(corners.index("source"), corners.index("sink"))
            out.append(CellDecoration(cell, colors, (False,) * n))
    out.sort(key=lambda dec: (dec.child_colors, dec.child_primes))
    return out


# A block's verdict, and a candidate's, which is the worst of its blocks'.
_OK, _UNREALIZABLE, _INADMISSIBLE = range(3)
# A block's verdict by its cell's kind and whether it has a primed child.
# Property 4 lets a prime sit only in a coherent cell.
_BLOCK_RULE = {
    ("coherent", False): _OK, ("coherent", True): _OK,
    ("polar", False): _OK, ("polar", True): _INADMISSIBLE,
    ("invalid", False): _UNREALIZABLE, ("invalid", True): _INADMISSIBLE,
}


@lru_cache(maxsize=None)  # one entry per block size, at most n
def _block_verdicts(d: int) -> tuple[tuple[int, ...], ...]:
    """Verdicts of the decorations of a block of d children, in the order
    :func:`_candidates` lists them, under an unoverlined parent (or the
    root) and under an overlined one: the cell's sides are that parent's
    +1 or -1, then +1 for each overlined child and -1 for each plain one."""
    return tuple(
        tuple(_BLOCK_RULE[_cell_kind((parent,) + kids)[0], primed >= 0]
              for primed in range(-1, d) for kids in itertools.product((-1, 1), repeat=d))
        for parent in (1, -1))


def _candidates(values: tuple[int, ...]):
    """``(blocks, worst)`` for the plane tree with level-order up-degrees
    ``values``.  ``blocks[0]`` holds the root's token; every later block,
    the decorations of one sibling block as token tuples.  ``worst``
    holds one verdict per candidate, in ``itertools.product(*blocks)``
    order, one pick per block; the verdict is the worst of its blocks',
    each read under its parent's overline."""
    blocks = [[(cached_token(values[0], False, False),)]]
    worst = [_OK]  # the worst verdict of each pick tuple of the blocks so far
    owner = [(0, 0)]  # owner[w]: the block that holds vertex w, and its position there
    for v, d in enumerate(values):
        if not d:
            continue
        # tokens[c][p]: child c's tokens, plain and overlined, primed if p.
        tokens = [
            [(cached_token(k, False, p), cached_token(k, True, p)) for p in (False, True)]
            for k in values[len(owner):len(owner) + d]
        ]
        b, pos = owner[v]
        verdicts = _block_verdicts(d)
        rows = [verdicts[dec[pos].overline] for dec in blocks[b]]
        prefixes = itertools.product(*map(range, map(len, blocks)))
        worst = [w if w > r else r for w, picks in zip(worst, prefixes) for r in rows[picks[b]]]
        owner += [(len(blocks), pos) for pos in range(d)]
        # Every coloring with no primed child (-1) or child `primed` primed.
        blocks.append([tail for primed in range(-1, d) for tail in itertools.product(
            *(t[c == primed] for c, t in enumerate(tokens)))])
    return blocks, worst


def _decided(n: int, bound: int):
    """``_candidates`` of every plane tree with n edges."""
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    if n > bound:
        raise ValueError(f"oracle bound exceeded: n={n} > {bound}")
    for nested in _nested_trees(n):
        yield _candidates(_nested_up_degrees(nested))


def _codes(blocks, worst, verdict: int) -> list[Code]:
    """The codes of one tree's candidates whose verdict is ``verdict``."""
    picks = itertools.compress(itertools.product(*blocks), map(verdict.__eq__, worst))
    return [Code(sum(pick, ())) for pick in picks]


def _order(code: Code) -> tuple[int, ...]:
    """Sort key of a code: its tokens in ``Code``'s own order, as ints."""
    return tuple([4 * t.value + 2 * t.overline + t.prime for t in code.tokens])


@dataclass(frozen=True)
class DiscrepancyReport:
    n: int
    fast_count: int
    oracle_count: int
    admissible_only_count: int
    witnesses: tuple[Code, ...]

    @property
    def agrees(self) -> bool:
        return self.fast_count == self.oracle_count

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "fast_count": self.fast_count,
            "oracle_count": self.oracle_count,
            "admissible_only_count": self.admissible_only_count,
            "witnesses": [serialize_code(w) for w in self.witnesses],
        }

    def to_text(self) -> str:
        lines = [
            f"n: {self.n}",
            f"fast count: {self.fast_count}",
            f"oracle count: {self.oracle_count}",
            f"agreement: {'yes' if self.agrees else 'NO'}",
            f"admissible but unrealizable: {self.admissible_only_count}",
        ]
        if self.witnesses:
            lines.append("witnesses:")
            lines.extend(f"  {serialize_code(w)}" for w in self.witnesses)
        return "\n".join(lines) + "\n"


def candidate_count(n: int) -> int:
    """Candidates :func:`oracle_report` decides at n:
    2**n * C(3n+1, n)/(n+1), read off no tree."""
    return 2**n * math.comb(3 * n + 1, n) // (n + 1)


def oracle_report(n: int, *, bound: int = DEFAULT_BOUND) -> DiscrepancyReport:
    """The oracle's count of the flow classes with n separatrices, found
    by deciding every decoration of every tree from the corners of its
    cells, against :func:`~diskflows.enumeration.count_flows`.

    The :func:`candidate_count` candidates (see :func:`_candidates`) have
    at most one prime per block: the first clause of property 4 rejects
    every other placement.  No block lists a decoration twice, so the
    candidates are distinct and the realizable ones are counted, not
    collected.  Codes are built only for the witnesses, admissible but
    unrealizable, which are sorted.  The count grows exponentially, hence
    the bound: on two vCPUs with Python 3.11, n = 5 takes about 5 ms
    and n = 7 (2,728,704 candidates) about 0.45 s.
    """
    realizable = 0
    witnesses: list[Code] = []
    for blocks, worst in _decided(n, bound):
        realizable += worst.count(_OK)
        witnesses += _codes(blocks, worst, _UNREALIZABLE)
    witnesses.sort(key=_order)
    return DiscrepancyReport(
        n=n,
        fast_count=count_flows(n),
        oracle_count=realizable,
        admissible_only_count=len(witnesses),
        witnesses=tuple(witnesses),
    )


def oracle_enumerate(n: int, *, bound: int = DEFAULT_BOUND) -> tuple[set[Code], DiscrepancyReport]:
    """The realizable codes with n separatrices, each built from its
    candidate, and :func:`oracle_report` of n.  Building and hashing
    every code makes this several times slower than the report alone:
    about 1.4 s at n = 7.
    """
    report = oracle_report(n, bound=bound)
    realizable: set[Code] = set()
    for blocks, worst in _decided(n, bound):
        realizable.update(_codes(blocks, worst, _OK))
    return realizable, report
