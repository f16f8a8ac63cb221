"""Brute-force cross-checks for the per-cell and whole-tree enumerators.

Everything here recomputes results from first principles: cell
configurations by trying all 2**n colorings of the inner loops and
typing every corner of the resulting boundary, and flow classes by
decorating every plane tree, one sibling block at a time, with every
coloring and at most one prime per block, keeping what the authoritative
validator accepts.  Property 4 of a code rejects two primes in one
block, so no other placement can be realizable or even admissible.
The plane trees come from the composition generator that
:func:`~diskflows.enumeration.plane_trees` uses, not from the token walk
that lists the codes.  The only other shared ingredients are the
decoration dataclasses and the validator itself; in particular nothing
here calls the model's cell classifier or its fast per-cell enumerator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .codec import Code, cached_token, check_realizable, serialize_code
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
        corners = _corners((lower_direction,) + tuple(-c for c in colors))
        # Every corner passed through: the boundary is one coherent cycle.
        if all(c == "hyperbolic" for c in corners):
            for entry in range(n + 1):
                primes = tuple(i == entry - 1 for i in range(n))
                out.append(CellDecoration(CyclicCell(entry), colors, primes))
            continue
        sources = [i for i, c in enumerate(corners) if c == "source"]
        if len(sources) != 1:
            continue
        sink = corners.index("sink")
        out.append(
            CellDecoration(PolarCell(sources[0], sink), colors, (False,) * n)
        )
    out.sort(key=lambda dec: (dec.child_colors, dec.child_primes))
    return out


def _block_decorations(values: tuple[int, ...]):
    """For each sibling block in level order, every decoration of its d
    children as token tuples: each child plain or overlined, with no
    prime or exactly one primed child, 2**d * (d + 1) tuples."""
    nxt = 1
    for d in values:
        if d:
            # tokens[c][p]: child c's tokens, plain and overlined, primed if p.
            tokens = [
                [(cached_token(k, False, p), cached_token(k, True, p))
                 for p in (False, True)]
                for k in values[nxt:nxt + d]
            ]
            nxt += d
            yield [
                tail
                for primed in range(-1, d)  # -1: no child primed
                for tail in itertools.product(
                    *(t[c == primed] for c, t in enumerate(tokens))
                )
            ]


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
    """Codes :func:`oracle_enumerate` sends through the validator at n:
    2**n * C(3n+1, n)/(n+1), read off no tree."""
    return 2**n * math.comb(3 * n + 1, n) // (n + 1)


def oracle_enumerate(n: int, *, bound: int = DEFAULT_BOUND) -> tuple[set[Code], DiscrepancyReport]:
    """Realizable codes with n separatrices, found by filtering decorations
    of every tree through the validator.

    Each tree is tried as one product of its sibling blocks'
    decorations; a block of d children has 2**d * (d + 1), every
    coloring with no prime or one primed child.  That makes
    2**n * prod(d_v + 1) candidates for a tree with up-degrees d_v, and
    :func:`candidate_count` over all trees (23,296 at n = 5, 248,064 at
    n = 6), each sent through :func:`check_realizable`; the witnesses
    are sorted, so the order of trial does not show.  The first clause
    of property 4 rejects every other prime placement, so leaving them
    out changes neither the realizable set nor the admissible ones.  The
    count still grows exponentially, hence the bound: on two vCPUs with
    Python 3.11, n = 6 takes about 2 s and n = 7 (2,728,704 candidates)
    about 22 s.  Also tallies the codes that pass the four necessary
    properties yet fail realizability, returning them as witnesses.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    if n > bound:
        raise ValueError(f"oracle bound exceeded: n={n} > {bound}")
    realizable: set[Code] = set()
    witnesses: list[Code] = []
    admissible_total = 0
    for nested in _nested_trees(n):
        values = _nested_up_degrees(nested)
        root = (cached_token(values[0], False, False),)
        for picks in itertools.product(*_block_decorations(values)):
            code = Code(sum(picks, root))  # the root, then each block's pick
            report = check_realizable(code)
            if not report.admissible.passed:
                continue
            admissible_total += 1
            if report.realizable:
                realizable.add(code)
            else:
                witnesses.append(code)
    witnesses.sort()
    report = DiscrepancyReport(
        n=n,
        fast_count=count_flows(n),
        oracle_count=len(realizable),
        admissible_only_count=admissible_total - len(realizable),
        witnesses=tuple(witnesses),
    )
    return realizable, report
