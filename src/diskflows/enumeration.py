"""Exhaustive generation of flow classes and their counting table.

A level-order up-degree sequence describes a plane rooted tree exactly
when its values sum to one less than its length and every prefix of k
values sums to at least k.  The walk that lists the codes lists these
sequences too when every cell takes one plain decoration.
Decorating a tree is independent cell by cell: each vertex with k
children contributes a factor (k+1)(k+2)/2, so the classes over one tree
are counted by a product formula.  Summed over all trees, the count has
the closed form C(4n+2, n)/(n+1): the weights (k+1)(k+2)/2 give the
generating function T = (1 - xT)^-3, and Lagrange inversion extracts its
coefficients (Flajolet & Sedgewick, *Analytic Combinatorics*, I.5).
:func:`count_flows` uses the closed form; the product formula, which the
counting table still reports per tree, cross-checks it.

:func:`iter_flows` lists the codes in sorted order by walking tokens, not
trees, so codes over different trees interleave as sorting demands.  The
walk is a lexicographic generator without dead ends (Ruskey,
*Combinatorial Generation*): O(n) state and amortized constant work per
step, since each step changes only a suffix of the code.  The decorations
a cell allows come from :data:`~diskflows.model.CELL_AUTOMATON`, three
states per parent color whatever the cell's size.  That one walk,
:func:`_walk`, takes the automaton and the factory that makes each token.
:func:`iter_flows` passes the interned :class:`~diskflows.codec.CodeToken`
constructor and builds a :class:`~diskflows.codec.Code` per step.
:func:`iter_code_texts`, the listing path of ``diskflows enum``, passes a
table of token texts cached per stream and joins each code's texts, so
only the tokens of the changed suffix are made anew and no code object
is built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

from .codec import Code, CodeToken, cached_token, join_token_texts
from .model import BLACK, CELL_AUTOMATON, PlaneRootedTree, cell_config_count


# ======================================================================
# plane trees and their isomorphism classes
# ======================================================================

def _up_degree_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Level-order up-degree sequences of length n+1, ascending lex."""
    for values, _ in _walk(n, lambda *_: None, _PLAIN_AUTOMATON):
        yield tuple(values)


def plane_trees(n: int) -> list[PlaneRootedTree]:
    """All plane rooted trees with n edges, descending lex by up-degrees."""
    if n < 0:
        raise ValueError("edge count is non-negative")
    trees = [PlaneRootedTree.from_up_degrees(s) for s in _up_degree_sequences(n)]
    trees.reverse()
    return trees


def _abstract_key(seq: tuple[int, ...]) -> tuple:
    """Isomorphism key of the rooted tree with up-degree sequence ``seq``:
    each vertex's key is the sorted tuple of its children's keys.

    Child blocks follow their parents' order in level order, so walking
    the vertices from last to first meets the blocks from last to first,
    and every child before its parent.
    """
    keys: list[tuple] = [()] * len(seq)
    end = len(seq)
    for v in range(len(seq) - 1, -1, -1):
        d = seq[v]
        if d:
            keys[v] = tuple(sorted(keys[end - d : end]))
            end -= d
    return keys[0]


def abstract_classes(n: int) -> list[tuple[PlaneRootedTree, int]]:
    """Isomorphism classes of rooted trees with n edges.

    Returns (representative, embedding count) pairs, the representative
    being the member with the smallest up-degree sequence, sorted by
    that sequence.  The up-degree sequences of all plane trees are
    grouped by :func:`_abstract_key`; they come in ascending order, so
    each group's first member is its representative, the groups are met
    in the order of their representatives, and only the representatives
    are built as trees.
    """
    if n < 0:
        raise ValueError("edge count is non-negative")
    groups: dict[tuple, list] = {}
    for seq in _up_degree_sequences(n):
        groups.setdefault(_abstract_key(seq), [seq, 0])[1] += 1
    return [
        (PlaneRootedTree.from_up_degrees(seq), count)
        for seq, count in groups.values()
    ]


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


# The root cell has one fixed "decoration", in the format of the cell
# automaton's nodes: no marks and the boundary direction.
_ROOT_NODE = [[False, False, BLACK, []]]

# The plain automaton: one unmarked option per child, so the walk over
# it lists each plane tree once, as a code without marks.
_PLAIN: list = []
_PLAIN.append([False, False, BLACK, _PLAIN])
_PLAIN_AUTOMATON = {BLACK: _PLAIN}


def _walk(
    n: int,
    token: Callable[[int, bool, bool], object],
    automaton: dict[int, list] = CELL_AUTOMATON,
) -> Iterator[tuple[list, list]]:
    """The one token walk behind :func:`iter_flows`,
    :func:`iter_code_texts` and, over the plain automaton, the plane trees
    of :func:`plane_trees` and :func:`abstract_classes`.

    Yields the same pair ``(values, tokens)`` for every code, both lists
    updated in place: ``values`` holds the code's values and ``tokens``
    what ``token(value, overline, prime)`` made of each token.  Only the
    positions after the one that advanced are made anew, so ``token`` is
    called an amortized constant number of times per code.

    Codes compare token by token as (value, overline, prime), so position
    i runs through its values in ascending order and, for each value,
    through the decorations its parent cell still allows: the first child
    of a block starts at ``automaton``'s start node for the parent's
    color, each later child at the node its left sibling led to.  The
    parent and its block size are already fixed, since parents come first
    in level order.  Every prefix extends to a code: value i < n ranges
    over [max(0, i+1-placed), n-placed], the last value is 0, and every
    automaton node has an option and accepts, so a block may end after
    any child.  So the walk meets no dead ends.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    values = [0] * (n + 1)
    placed = [0] * (n + 2)  # placed[i]: sum of the values before position i
    parents = [0] * (n + 1)
    nodes = [_ROOT_NODE] * (n + 1)  # decorations open at each position
    picks = [0] * (n + 1)  # index of the chosen decoration in nodes[i]
    tokens = [None] * (n + 1)
    state = (values, tokens)
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
                    nodes[i] = automaton[nodes[p][picks[p]][2]]
                else:
                    nodes[i] = nodes[i - 1][picks[i - 1]][3]
            overline, prime = nodes[i][0][:2]
            tokens[i] = token(values[i], overline, prime)
        yield state
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
        tokens[i] = token(values[i], overline, prime)
        start = i + 1


def iter_flows(n: int) -> Iterator[Code]:
    """All realizable codes with n separatrices in sorted order, one at a
    time, with O(n) state.

    Each code the token walk reaches is built as a :class:`Code` of
    interned tokens.  :func:`iter_code_texts` runs the same walk and
    yields the codes' texts instead.
    """
    for _, tokens in _walk(n, cached_token):
        yield Code(tuple(tokens))


def _token_text(value: int, overline: bool, prime: bool) -> str:
    return CodeToken(value, overline, prime).text()


def iter_code_texts(n: int) -> Iterator[str]:
    """The text of every code of :func:`iter_flows`, in the same order,
    equal to :func:`~diskflows.codec.serialize_code` of each.

    No :class:`Code` is built: the walk's tokens are texts, each made
    once per stream and kept in a table of at most 4(n+1) entries, since
    the walk never makes a value above n.  For the same reason every
    code is compact when n <= 9.
    """
    walk = _walk(n, lru_cache(maxsize=None)(_token_text))
    if n <= 9:
        for _, texts in walk:
            yield "".join(texts)
    else:
        for values, texts in walk:
            yield join_token_texts(values, texts)


def enumerate_flows(n: int) -> list[Code]:
    """All realizable codes with n separatrices, sorted token-wise."""
    return list(iter_flows(n))


def count_flows(n: int) -> int:
    """Number of flow classes with n separatrices: C(4n+2, n)/(n+1).

    Summing :func:`flows_per_tree` over :func:`plane_trees` gives the
    same number, a cross-check independent of the closed form.
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
    values = list(tree.up_degrees)
    return join_token_texts(values, list(map(str, values)))


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


def codes_to_text(codes: list[Code] | list[str]) -> str:
    """One line per code, the codes given as :class:`Code` objects or as
    their texts; ``str`` of a ``Code`` is its serialized text."""
    return "\n".join(map(str, codes)) + "\n"
