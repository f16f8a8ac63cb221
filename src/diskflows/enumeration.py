"""Exhaustive generation of flow classes and their counting table.

Plane trees come from one generator, the first-subtree composition
behind :func:`plane_trees`, which the oracle shares.  The classes of
rooted trees are built directly, each once, from multisets of smaller
classes, so the counting table lists no plane tree.  Decorating a tree
is independent cell by cell: each vertex with k children contributes a
factor (k+1)(k+2)/2, so the classes over one tree are counted by a
product formula.  Summed over all trees, the count has the closed form
C(4n+2, n)/(n+1): the weights (k+1)(k+2)/2 give the generating function
T = (1 - xT)^-3, and Lagrange inversion extracts its coefficients
(Flajolet & Sedgewick, *Analytic Combinatorics*, I.5).  :func:`count_flows`
uses the closed form; the product formula, which the counting table
reports once per class of trees, cross-checks it.

:func:`iter_flows` lists the codes in sorted order by walking tokens, not
trees, so codes over different trees interleave as sorting demands.  The
walk is a lexicographic generator without dead ends (Ruskey,
*Combinatorial Generation*): O(n) state and amortized constant work per
step, since each step changes only a suffix of the code.  The decorations
a cell allows come from :data:`~diskflows.model.CELL_AUTOMATON`, three
states per parent color whatever the cell's size.  That one walk,
:func:`_walk`, lists codes only and takes the factory that makes each
token.  :func:`iter_flows` passes the interned
:class:`~diskflows.codec.CodeToken` constructor and builds a
:class:`~diskflows.codec.Code` per step.  :func:`iter_code_texts`, the
listing path of ``diskflows enum``, passes a table of token texts cached
per stream and joins each code's texts, so only the tokens of the changed
suffix are made anew and no code object is built.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

from .codec import Code, CodeToken, cached_token, join_token_texts
from .model import BLACK, CELL_AUTOMATON, PlaneRootedTree, cell_config_count


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
    total = 1
    for kids in tree.children:
        total *= cell_config_count(len(kids))
    return total


# The root cell has one fixed "decoration", in the format of the cell
# automaton's nodes: no marks and the boundary direction.
_ROOT_NODE = [[False, False, BLACK, []]]


def _walk(
    n: int, token: Callable[[int, bool, bool], object]
) -> Iterator[tuple[list, list]]:
    """The one token walk behind :func:`iter_flows` and
    :func:`iter_code_texts`; it lists codes only, never bare trees.

    Yields the same pair ``(values, tokens)`` for every code, both lists
    updated in place: ``values`` holds the code's values and ``tokens``
    what ``token(value, overline, prime)`` made of each token.  Only the
    positions after the one that advanced are made anew, so ``token`` is
    called an amortized constant number of times per code.

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
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    values = [0] * (n + 1)
    placed = [0] * (n + 2)  # placed[i]: sum of the values before position i
    parents = [0] * (n + 1)
    nodes = [_ROOT_NODE] * (n + 1)  # decorations open at each position
    picks = [0] * (n + 1)  # index of the chosen decoration in nodes[i]
    automaton = CELL_AUTOMATON  # a local name, read at every block start
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
