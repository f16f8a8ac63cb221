"""Exhaustive generation of flow classes and their counting table.

Plane trees come from one generator, the first-subtree composition
behind :func:`plane_trees`, which the oracle shares.  The classes of
rooted trees are built directly, each once, from multisets of smaller
classes; the counting table reads every size from one such build, with
no plane tree.  Decorating a tree is independent cell by cell: each
vertex with k children contributes a factor (k+1)(k+2)/2, so the
classes over one tree are counted by a product formula.  Summed over
all trees, the count has the closed form C(4n+2, n)/(n+1): the weights
(k+1)(k+2)/2 give the generating function T = (1 - xT)^-3, and Lagrange
inversion extracts its coefficients (Flajolet & Sedgewick, *Analytic
Combinatorics*, I.5).  :func:`count_flows` uses the closed form; the
product formula, which the counting table reports once per class of
trees, cross-checks it.

:func:`iter_flows` lists the codes in sorted order by walking tokens, not
trees, so codes over different trees interleave as sorting demands.  The
walk is a lexicographic generator without dead ends (Ruskey,
*Combinatorial Generation*).  The decorations a cell allows come from
:data:`~diskflows.model.CELL_AUTOMATON`, three states per parent color
whatever the cell's size.  The walk stops where the edges run out: once
the values placed sum to n, every later token has value 0 and only its
decoration varies.  Those tails come from per-segment completions,
:func:`~diskflows.model._completions`, kept per stream by (node,
length).  So the walk holds O(n) positions and completions sized by n
alone, never by the number of codes.  That one walk, :func:`_walk`,
lists codes only and takes the factory that makes each token.
:func:`iter_flows` passes the interned :class:`~diskflows.codec.CodeToken`
constructor and builds a :class:`~diskflows.codec.Code` per code.
:func:`iter_code_texts`, the listing path of ``diskflows enum``, passes
a cached text per token and, in one loop for every n, joins each prefix
once and each code from its prefix and tail, so no code object is built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, zip_longest

from .codec import Code, CodeToken, cached_token, join_token_texts
from .model import BLACK, CELL_AUTOMATON, PlaneRootedTree, _completions, cell_config_count


# ======================================================================
# plane trees and their isomorphism classes
# ======================================================================

def _nested_trees(n: int):
    """Plane trees with n edges as nested child tuples, by the standard
    first-subtree decomposition: the one plane-tree generator."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for first in _nested_trees(k - 1):
            for rest in _nested_trees(n - k):
                yield (first,) + rest


def _nested_up_degrees(nested) -> tuple[int, ...]:
    queue = [nested]
    for node in queue:  # level order: the loop reaches what it appends
        queue.extend(node)
    return tuple(map(len, queue))


def plane_trees(n: int) -> list[PlaneRootedTree]:
    """All plane rooted trees with n edges, descending lex by up-degrees."""
    if n < 0:
        raise ValueError("edge count is non-negative")
    seqs = sorted(map(_nested_up_degrees, _nested_trees(n)), reverse=True)
    return [PlaneRootedTree.from_up_degrees(s) for s in seqs]


def _forests(pool: list, budget: int, start: int = 0, run: int = 0,
             kids: tuple = (), weight: int = 1) -> Iterator[tuple[tuple, int]]:
    """Each multiset of ``pool``'s trees, ``(edges, levels, embeddings)``
    by size, that adds ``budget`` edges: its trees' levels, and the
    embeddings of a root over them, d!/prod(m!) times the trees' own for
    d children, m running over the multiplicities of equal children."""
    if not budget:
        yield kids, weight
        return
    for j in range(start, len(pool)):
        size, levels, emb = pool[j]
        if size > budget:
            break
        same = run + 1 if j == start else 1  # copies of this tree among the kids
        yield from _forests(pool, budget - size, j, same, kids + (levels,),
                            weight * (len(kids) + 1) // same * emb)


def _rooted_trees(n: int) -> list[list[tuple[tuple, int]]]:
    """Every rooted tree with k edges once, for k = 0..n, as
    ``(levels, embeddings)`` pairs ascending by ``levels``.

    ``levels`` holds the up-degrees of the tree's least plane embedding
    depth by depth, so their concatenation is its level-order sequence.
    A tree is a multiset of smaller trees under a root.  Level i+1 of a
    tree joins level i of its children in order, and children equal
    down to level i have equally long blocks at level i+1; so ordering
    the children by ``levels``, each in its least embedding, gives the
    least embedding.
    """
    classes = [[(((0,),), 1)]]
    for m in range(1, n + 1):
        pool = [(k + 1, levels, emb) for k in range(m) for levels, emb in classes[k]]
        found = []
        for kids, weight in _forests(pool, m):
            kids = sorted(kids)  # ascending children give the least embedding
            below = tuple(sum(lv, ()) for lv in zip_longest(*kids, fillvalue=()))
            found.append((((len(kids),),) + below, weight))
        classes.append(sorted(found))
    return classes


def abstract_classes(n: int) -> list[tuple[PlaneRootedTree, int]]:
    """Isomorphism classes of rooted trees with n edges.

    Returns (representative, embedding count) pairs, the representative
    being the member with the smallest up-degree sequence, sorted by
    that sequence, each built once by :func:`_rooted_trees`.
    """
    if n < 0:
        raise ValueError("edge count is non-negative")
    return [
        (PlaneRootedTree.from_up_degrees(sum(levels, ())), embeddings)
        for levels, embeddings in _rooted_trees(n)[n]
    ]


# ======================================================================
# flow classes
# ======================================================================

def flows_per_tree(tree: PlaneRootedTree) -> int:
    """Number of flow classes over one plane tree: the product of the
    per-cell configuration counts."""
    return math.prod(map(cell_config_count, tree.up_degrees))


# The root cell has one fixed "decoration", in the format of the cell
# automaton's nodes: no marks and the boundary direction.
_ROOT_NODE = [[False, False, BLACK, []]]


def _walk(
    n: int, token: Callable[[int, bool, bool], object]
) -> Iterator[tuple[list, list, list[tuple]]]:
    """The one token walk behind :func:`iter_flows` and
    :func:`iter_code_texts`; it lists codes only, never bare trees.

    Yields ``(values, head, tails)`` once per prefix: ``values`` and
    ``head`` hold the values of the prefix and what ``token(value,
    overline, prime)`` made of its tokens, and each code with that
    prefix is ``head`` followed by one of ``tails``, in sorted order.

    Codes compare token by token as (value, overline, prime), so position
    i runs through its values in ascending order and, for each value,
    through the decorations its parent cell still allows: the first child
    of a block starts at the cell automaton's start node for the parent's
    color, each later child at the node its left sibling led to.  The
    parent and its block size are already fixed, since parents come first
    in level order.  Every prefix extends to a code: value i < n ranges
    over [max(0, i+1-placed), n-placed], the last value is 0, and every
    automaton node has an option and accepts, so a block may end after
    any child.  So the walk meets no dead ends.

    The walk stops where the edges run out: at the first position i > 0
    whose predecessors' values sum to n, every later value is 0 and only
    decorations change.  Positions i..n are leaves, one segment per
    sibling block; the first may start inside a block, each later one at
    the start node for its parent's color.  A segment's decorations are
    its :func:`~diskflows.model._completions`, kept per stream, and the
    tails are their product, which keeps the codes in sorted order.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    if n == 0:  # the one code "0": no edges, so no tail
        yield [0], [token(0, False, False)], [()]
        return
    values = [0] * (n + 1)
    placed = [0] * (n + 2)  # placed[i]: sum of the values before position i
    parents = [0] * (n + 1)
    nodes = [_ROOT_NODE] * (n + 1)  # decorations open at each position
    picks = [0] * (n + 1)  # index of the chosen decoration in nodes[i]
    automaton = CELL_AUTOMATON  # a local name, read at every block start
    tokens = [None] * (n + 1)
    memo: dict = {}
    start = 0
    while True:
        # Positions from start on take their least tokens, up to the tail.
        # placed[n] is n, so the tail starts at some position i <= n.
        i = start
        while True:
            if i:
                p = parents[i - 1]
                while placed[p] + values[p] < i:
                    p += 1
                parents[i] = p
                if i == placed[p] + 1:
                    nodes[i] = automaton[nodes[p][picks[p]][2]]
                else:
                    nodes[i] = nodes[i - 1][picks[i - 1]][3]
                if placed[i] == n:
                    break
            values[i] = max(0, i + 1 - placed[i])
            placed[i + 1] = placed[i] + values[i]
            picks[i] = 0
            overline, prime = nodes[i][0][:2]
            tokens[i] = token(values[i], overline, prime)
            i += 1
        stop = i
        # The tail's segments: the rest of position stop's block, then
        # the whole blocks of the later parents.
        p = parents[stop]
        blocks = [(nodes[stop], placed[p + 1] - stop + 1)]
        blocks += [
            (automaton[nodes[q][picks[q]][2]], values[q])
            for q in range(p + 1, stop) if values[q]
        ]
        segments = [
            memo.get((id(node), length)) or _completions(memo, node, length, token)
            for node, length in blocks
        ]
        if len(segments) == 1:
            tails = segments[0]
        else:
            tails = [sum(combo, ()) for combo in product(*segments)]
        yield values[:stop], tokens[:stop], tails
        # Advance the rightmost prefix position with a larger token left.
        i = stop - 1
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
    time, with state sized by n alone.

    Each code the token walk reaches is built as a :class:`Code` of
    interned tokens.  :func:`iter_code_texts` runs the same walk and
    yields the codes' texts instead.
    """
    for _, head, tails in _walk(n, cached_token):
        head = tuple(head)
        for tail in tails:
            yield Code(head + tail)


def _token_text(value: int, overline: bool, prime: bool) -> str:
    return CodeToken(value, overline, prime).text()


def iter_code_texts(n: int) -> Iterator[str]:
    """The text of every code of :func:`iter_flows`, in the same order,
    equal to :func:`~diskflows.codec.serialize_code` of each.

    No :class:`Code` is built: the walk's tokens are texts, each made
    once per stream.  One loop serves every n.  Tail values are 0 and no
    value exceeds n, so a prefix's values decide whether its codes are
    compact or spaced; its text is joined once, and each code is that
    text followed by its tail's.
    """
    for values, head, tails in _walk(n, lru_cache(maxsize=None)(_token_text)):
        sep = "" if n <= 9 or max(values) <= 9 else " "
        head = sep.join(head) + sep
        for tail in tails:
            yield head + sep.join(tail)


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


def table_rows(max_n: int) -> list[TableRow]:
    """One row per isomorphism class of rooted trees, for n = 0..max_n.

    Every size is read from one :func:`_rooted_trees` build, straight
    from each class's levels, so the table builds no plane tree.
    """
    if max_n < 0:
        raise ValueError("edge count is non-negative")
    rows = []
    for n, classes in enumerate(_rooted_trees(max_n)):
        for levels, embeddings in classes:
            values = sum(levels, ())
            flows = math.prod(map(cell_config_count, values))
            text = join_token_texts(values, list(map(str, values)))
            rows.append(TableRow(n, text, flows, embeddings, flows * embeddings))
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
