"""Exhaustive generation of flow classes and their counting table.

A level-order up-degree sequence describes a plane rooted tree exactly
when its values sum to one less than its length and every prefix of k
values sums to at least k.  Trees are generated directly in that form.
Decorating a tree is independent cell by cell: each vertex with k
children contributes a factor (k+1)(k+2)/2, so the classes over one tree
are counted by a product formula.  Summed over all trees, the count has
the closed form C(4n+2, n)/(n+1): the weights (k+1)(k+2)/2 give the
generating function T = (1 - xT)^-3, and Lagrange inversion extracts its
coefficients (Flajolet & Sedgewick, *Analytic Combinatorics*, I.5).
:func:`count_flows` uses the closed form; the product formula, which the
counting table still reports per tree, cross-checks it.

:func:`iter_flows` lists the codes in sorted order by walking tokens, not
trees, so codes over different trees interleave as sorting demands.  It
is a lexicographic generator without dead ends (Ruskey, *Combinatorial
Generation*): O(n) state and amortized constant work per step.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .codec import Code, cached_token, serialize_code
from .model import (
    BLACK,
    RED,
    PlaneRootedTree,
    cell_config_count,
    enumerate_cell_configs,
)


# ======================================================================
# plane trees and their isomorphism classes
# ======================================================================

def _up_degree_sequences(n: int):
    """Level-order up-degree sequences of length n+1, descending lex."""
    seq: list[int] = []

    def rec(placed: int, k: int):
        if k == n + 1:
            if placed == n:
                yield tuple(seq)
            return
        for d in range(n - placed, -1, -1):
            new_sum = placed + d
            if k + 1 <= n and new_sum < k + 1:
                continue
            seq.append(d)
            yield from rec(new_sum, k + 1)
            seq.pop()

    yield from rec(0, 0)


def plane_trees(n: int) -> list[PlaneRootedTree]:
    """All plane rooted trees with n edges, descending lex by up-degrees."""
    if n < 0:
        raise ValueError("edge count is non-negative")
    return [PlaneRootedTree.from_up_degrees(s) for s in _up_degree_sequences(n)]


def _abstract_key(tree: PlaneRootedTree, v: int = 0):
    return tuple(sorted(_abstract_key(tree, c) for c in tree.children[v]))


def abstract_classes(n: int) -> list[tuple[PlaneRootedTree, int]]:
    """Isomorphism classes of rooted trees with n edges.

    Returns (representative, embedding count) pairs, the representative
    being the member with the smallest up-degree sequence, sorted by
    that sequence.
    """
    groups: dict[tuple, list[PlaneRootedTree]] = {}
    for tree in plane_trees(n):
        groups.setdefault(_abstract_key(tree), []).append(tree)
    out = [
        (min(members, key=lambda t: t.up_degrees), len(members))
        for members in groups.values()
    ]
    out.sort(key=lambda pair: pair[0].up_degrees)
    return out


# ======================================================================
# flow classes
# ======================================================================

def flows_per_tree(tree: PlaneRootedTree) -> int:
    """Number of flow classes over one plane tree: the product of the
    per-cell configuration counts."""
    total = 1
    for kids in tree.children:
        total *= cell_config_count(len(kids))
    return total


# A node of a cell trie: the decorations the next child may take, each as
# [overline, prime, color, node for the children after it].  The root cell
# has one fixed "decoration": no marks and the boundary direction.
_ROOT_NODE = [[False, False, BLACK, []]]


@lru_cache(maxsize=None)
def _cell_trie(k: int, color: int) -> list:
    """The child decorations a cell with k inner loops forces, as a trie
    in token order; ``color`` is the color of the cell's own vertex.  The
    trie is shared between calls and never modified."""
    root: list = []
    for seq in sorted(
        tuple(zip([c == RED for c in dec.child_colors], dec.child_primes))
        for dec in enumerate_cell_configs(k, color)
    ):
        node = root
        for overline, prime in seq:
            if not node or node[-1][:2] != [overline, prime]:
                node.append([overline, prime, RED if overline else BLACK, []])
            node = node[-1][3]
    return root


def iter_flows(n: int) -> Iterator[Code]:
    """All realizable codes with n separatrices in sorted order, one at a
    time, with O(n) state.

    Codes compare token by token as (value, overline, prime), so position
    i runs through its values in ascending order and, for each value,
    through the decorations its parent cell still allows.  The parent and
    its block size are already fixed, since parents come first in level
    order.  Every prefix extends to a code: value i < n ranges over
    [max(0, i+1-placed), n-placed], the last value is 0 and every trie
    node is non-empty.  So the walk meets no dead ends.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    values = [0] * (n + 1)
    placed = [0] * (n + 2)  # placed[i]: sum of the values before position i
    parents = [0] * (n + 1)
    nodes = [_ROOT_NODE] * (n + 1)  # decorations open at each position
    picks = [0] * (n + 1)  # index of the chosen decoration in nodes[i]
    tokens = [cached_token(0)] * (n + 1)
    start = 0
    while True:
        # Positions start..n take their least tokens.
        for i in range(start, n + 1):
            values[i] = max(0, i + 1 - placed[i]) if i < n else 0
            placed[i + 1] = placed[i] + values[i]
            picks[i] = 0
            if i:
                p = parents[i - 1]
                while placed[p] + values[p] < i:
                    p += 1
                parents[i] = p
                if i == placed[p] + 1:
                    nodes[i] = _cell_trie(values[p], nodes[p][picks[p]][2])
                else:
                    nodes[i] = nodes[i - 1][picks[i - 1]][3]
            overline, prime = nodes[i][0][:2]
            tokens[i] = cached_token(values[i], overline, prime)
        yield Code(tuple(tokens))
        # Advance the rightmost position that has a larger token left.
        i = n
        while picks[i] + 1 == len(nodes[i]) and values[i] == n - placed[i]:
            if i == 0:
                return
            i -= 1
        if picks[i] + 1 < len(nodes[i]):
            picks[i] += 1
        else:
            values[i] += 1
            placed[i + 1] += 1
            picks[i] = 0
        overline, prime = nodes[i][picks[i]][:2]
        tokens[i] = cached_token(values[i], overline, prime)
        start = i + 1


def enumerate_flows(n: int) -> list[Code]:
    """All realizable codes with n separatrices, sorted token-wise."""
    return list(iter_flows(n))


def count_flows(n: int) -> int:
    """Number of flow classes with n separatrices: C(4n+2, n)/(n+1).

    Summing :func:`flows_per_tree` over :func:`plane_trees` gives the
    same number and serves as its independent cross-check.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    return math.comb(4 * n + 2, n) // (n + 1)


# ======================================================================
# counting table
# ======================================================================

@dataclass(frozen=True)
class TableRow:
    n: int
    abstract_tree: str
    flows_per_embedding: int
    embeddings: int
    total: int


def _tree_code_text(tree: PlaneRootedTree) -> str:
    return serialize_code(Code(tuple(cached_token(d) for d in tree.up_degrees)))


def table_rows(max_n: int) -> list[TableRow]:
    """One row per isomorphism class of rooted trees, for n = 0..max_n."""
    if max_n < 0:
        raise ValueError("edge count is non-negative")
    rows = []
    for n in range(max_n + 1):
        for rep, embeddings in abstract_classes(n):
            flows = flows_per_tree(rep)
            rows.append(
                TableRow(n, _tree_code_text(rep), flows, embeddings, flows * embeddings)
            )
    return rows


CSV_HEADER = "n,abstract_tree,flows_per_embedding,embeddings,total"


def table_to_csv(rows: list[TableRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.abstract_tree},{r.flows_per_embedding},{r.embeddings},{r.total}"
        )
    return "\n".join(lines) + "\n"


def codes_to_text(codes: list[Code]) -> str:
    return "\n".join(serialize_code(c) for c in codes) + "\n"
