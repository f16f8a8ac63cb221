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
whatever the cell's size.  The walk stops at the token that places the
last edge: its value is forced, n minus the values before it, so only
its decoration varies, and each decoration is followed by leaves of
value 0, one segment per sibling block.  A segment's decorations are its
completions, listed by :func:`~diskflows.model._completions` and kept by
the walk's own memo per stream, by (node, length): at most 6(n+1) lists.
So the walk holds O(n) positions and completions sized by n alone, never
by the number of codes.  That one walk, :func:`_walk`, lists codes only
and takes the factory that makes each token.  :func:`iter_flows` passes
the interned :class:`~diskflows.codec.CodeToken` constructor and builds
a :class:`~diskflows.codec.Code` per code.  :func:`iter_code_blocks`, the
listing path of ``diskflows enum``, passes a cached text per token and
yields one block of lines per walk prefix, so it builds no code object
and no string per code; :func:`iter_code_texts` splits them.  The codes
after a prefix depend only on its fold state, 263 of them at n = 7, so
each state's lines are made once as a suffix text that every prefix
sharing the state reuses, the generator's way of making each suffix once
(Ruskey).  Those texts are kept for the stream, so its memory is sized
by the fold states: not O(n), but never by the number of codes.
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
    :func:`iter_code_blocks`; it lists codes only, never bare trees.

    Yields ``(values, head, folds)`` once per prefix before the token
    that places the last edge.  ``values`` holds the values of the
    prefix and of that token, ``head`` what ``token(value, overline,
    prime)`` made of the prefix's tokens, and ``folds`` pairs each
    decoration of that token, as ``token`` made it, with its leaf
    segments: lists of completions.  Each code with that prefix is
    ``head``, one folded token and one completion from each of its
    segments, in sorted order.

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

    The walk stops at the token that places the last edge: its value is
    forced, n minus the values before it, and every later value is 0, so
    only decorations change from there on.  Least tokens reach it at
    position n - 1; otherwise it is the position just advanced, whose
    value grew to its largest.  So the position to advance next is always
    the one before it.  The leaves after it form one segment per sibling
    block: the rest of its block, from the node its decoration leads to,
    then the whole blocks of the later parents, its own block last.  A
    segment's decorations are its :func:`~diskflows.model._completions`,
    which only ``segment`` asks for and keeps, by (node, length): at most
    6(n+1) lists per stream.  The automaton's nodes live for good, so
    their ids stay put.  The folds of a prefix depend only on its last
    position's node, the rest of its block and its value, and on the
    segments the later parents' blocks share, so they are kept by those:
    one list per fold state, whose identity names the state.  There are
    263 states at n = 7, 541 at n = 8 and 1,088 at n = 9.
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
    memo: dict = {}  # the completions of a segment, by (id(node), length)
    made: dict = {}  # the folds of a state, by (node, rest, value, *shared)

    def segment(node, length):
        key = id(node), length  # a list is never empty, so never falsy
        return memo.get(key) or memo.setdefault(key, _completions(node, length, token))

    values[0] = placed[1] = min(n, 1)  # the root's least value
    i = 0
    while True:
        # Position i holds its value and pick; until it places the last
        # edge, make its token and give the next position its least token.
        while values[i] < n - placed[i]:
            overline, prime = nodes[i][picks[i]][:2]
            tokens[i] = token(values[i], overline, prime)
            i += 1
            p = parents[i - 1]
            while placed[p] + values[p] < i:
                p += 1
            parents[i] = p
            if i == placed[p] + 1:
                nodes[i] = automaton[nodes[p][picks[p]][2]]
            else:
                nodes[i] = nodes[i - 1][picks[i - 1]][3]
            values[i] = max(0, i + 1 - placed[i])
            placed[i + 1] = placed[i] + values[i]
            picks[i] = 0
        # Fold position i: the rest of its block, the later parents'
        # blocks, then its own block of values[i] leaves.
        value = values[i]
        p = parents[i]
        rest = placed[p + 1] - i if i else 0
        shared = [
            segment(automaton[nodes[q][picks[q]][2]], values[q])
            for q in range(p + 1, i) if values[q]
        ]
        key = id(nodes[i]), rest, value, *map(id, shared)
        folds = made.get(key)
        if folds is None:
            folds = made[key] = [
                (token(value, overline, prime),
                 [*([segment(nxt, rest)] if rest else []), *shared,
                  segment(automaton[color], value)])
                for overline, prime, color, nxt in nodes[i]
            ]
        yield values[:i + 1], tokens[:i], folds
        if not i:
            return
        # Advance the prefix's last position: a later decoration, or else
        # the next value, which may make it place the last edge.
        i -= 1
        if picks[i] + 1 < len(nodes[i]):
            picks[i] += 1
        else:
            values[i] += 1
            placed[i + 1] += 1
            picks[i] = 0


def iter_flows(n: int) -> Iterator[Code]:
    """All realizable codes with n separatrices in sorted order, one at a
    time, with state sized by n alone.

    Each code the token walk reaches is built as a :class:`Code` of
    interned tokens.  :func:`iter_code_blocks` runs the same walk and
    yields the codes' texts instead, a block per walk prefix.
    """
    for _, head, folds in _walk(n, cached_token):
        for folded, segments in folds:
            base = (*head, folded)
            for combo in product(*segments):
                yield Code(sum(combo, base))


def _token_text(value: int, overline: bool, prime: bool) -> str:
    return CodeToken(value, overline, prime).text()


def _segment_texts(texts: dict, segment: list[tuple], sep: str) -> list[str]:
    """``segment``'s completions joined with ``sep``, kept in ``texts``
    by the list's id; the walk keeps its segments for the whole stream."""
    texts[id(segment)] = joined = list(map(sep.join, segment))
    return joined


def _suffix_text(texts: dict, folds: list[tuple], sep: str) -> str:
    """The lines of every code under one fold state with the head left
    out, joined by newlines: each folded token with one joined completion
    per segment, in :func:`iter_flows`' order."""
    lines = []
    for folded, segments in folds:
        *lists, last = [texts.get(id(s)) or _segment_texts(texts, s, sep) for s in segments]
        for combo in product(*lists):
            start = sep.join((folded, *combo, ""))
            lines.append(start + ("\n" + start).join(last))
    return "\n".join(lines)


def iter_code_blocks(n: int) -> Iterator[str]:
    """The texts of :func:`iter_flows`' codes in order, one block of
    lines per walk prefix, with no trailing newline.

    No :class:`Code` is built.  Each token's text is made once per stream,
    each completion list joined once per stream and separator, which a
    prefix's values decide.  The codes after a prefix depend only on its
    fold state, which the identity of the walk's ``folds`` names, so each
    state's lines are made once per stream and separator as one suffix
    text; a prefix's block is that text with the prefix's head in front
    of every line.  The kept texts are sized by the fold states, not by
    the codes: 263 states and 134 KB of text at n = 7, 0.5 MB at n = 8
    and 1.8 MB at n = 9, about 3.7 times more per n while the codes grow
    about 8 times.
    """
    joined = {"": {}, " ": {}}  # per separator, by the completion list's id
    # Per separator, by the id of ``folds``: the list, kept so that its id
    # is never reused for another state, and its suffix text.
    suffixes = {"": {}, " ": {}}
    for values, head, folds in _walk(n, lru_cache(maxsize=None)(_token_text)):
        sep = "" if n <= 9 or max(values) <= 9 else " "
        memo = suffixes[sep]
        kept = memo.get(id(folds))
        if kept is None:
            kept = memo[id(folds)] = folds, _suffix_text(joined[sep], folds, sep)
        text = kept[1]
        if head:
            head = sep.join(head) + sep
            yield head + text.replace("\n", "\n" + head)
        else:
            yield text


def iter_code_texts(n: int) -> Iterator[str]:
    """The lines of :func:`iter_code_blocks`: each code's serialized text."""
    for block in iter_code_blocks(n):
        yield from block.split("\n")


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
