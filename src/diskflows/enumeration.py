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
whatever the cell's size.  The codes after a position depend only on its
suffix state: the automaton node open there, the rest of its block, the
blocks of later parents not yet begun and the edges left.  Each state
has a closed-form count, the product formula's factors for its open
blocks times F(m, r) = m/(r+m)·C(4r+3m−1, r) for its m pending vertices
and r edges left.  The walk, :func:`_walk`, stops at the first state
with at most :data:`FOLD_LINES` codes, so each small suffix is made once
per stream and reused under every head that reaches it (Ruskey).
:func:`iter_flows` builds a :class:`~diskflows.codec.Code` of interned
tokens per code; :func:`iter_code_blocks`, the listing path of
``diskflows enum``, yields one block of lines per folded state, with no
code object and no string per code, and :func:`iter_code_texts` splits
them.  The kept suffixes are sized by the folded states, never by the
number of codes.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import zip_longest

from .codec import Code, CodeToken, cached_token, join_token_texts
from .model import BLACK, CELL_AUTOMATON, RED, PlaneRootedTree, cell_config_count


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


def _automaton_rows() -> tuple[tuple[tuple, ...], ...]:
    """:data:`~diskflows.model.CELL_AUTOMATON` as rows of options
    (overline, prime, start node of the child's color, next node), each
    node named by its row: the black start node is row 0, the red one
    row 1, and the last row is the root's one fixed decoration."""
    nodes = [CELL_AUTOMATON[BLACK], CELL_AUTOMATON[RED]]
    for x in nodes:  # the loop reaches what it appends
        nodes.extend(nxt for *_, nxt in x if all(nxt is not y for y in nodes))
    row = {id(x): k for k, x in enumerate(nodes)}
    return (*(tuple((overline, prime, row[id(CELL_AUTOMATON[color])], row[id(nxt)])
                    for overline, prime, color, nxt in x) for x in nodes),
            ((False, False, 0, len(nodes)),))


_OPTIONS = _automaton_rows()

#: A walk state with at most this many codes under it is folded: its
#: lines are made once per stream and reused under every head that
#: reaches it.  It is below F(1, 4) = 612, so a state with four or more
#: edges left is never folded.
FOLD_LINES = 512


def _forest_count(m: int, r: int) -> int:
    """F(m, r) = m/(r+m) · C(4r+3m−1, r): the ways to give m pending
    vertices their subtrees with r more edges, each vertex with k
    children weighted (k+1)(k+2)/2, that is [x^r] Tᵐ for T = (1 − xT)^−3
    (Lagrange inversion; Flajolet & Sedgewick, I.5).  F(1, n) is
    :func:`count_flows`."""
    return m * math.comb(4 * r + 3 * m - 1, r) // (r + m)


def _state_lines(state, cap: float = math.inf) -> int:
    """The codes under a walk state, or some number above ``cap`` once
    the product passes it: A(node, rest+1) · ∏ A(start, v) · F(m, r).
    A(x, j), the decorations of j children read from node x, is C(j+k−1,
    j) for k options: (j+1)(j+2)/2 from start, j+1 from away, 1 from
    back."""
    node, rest, pending, r = state
    lines = _forest_count(1 + rest + sum(v for _, v in pending), r)
    for x, j in ((node, rest + 1), *pending):
        if lines > cap:
            break
        lines *= math.comb(j + len(_OPTIONS[x]) - 1, j)
    return lines


def _choices(state, token: Callable[[int, bool, bool], object]):
    """Each choice at a walk state's position in code order, as (value,
    ``token(value, overline, prime)``, the state after it, None past the
    last position).  A state ``(node, rest, pending, r)`` is the automaton
    node open there, the siblings left in its block, the (start node,
    value) of each later parent whose block has not begun, and the edges
    left.  A block starts at the start node of its parent's color, each
    later sibling at the node its left sibling led to.  The value ranges
    over [0, r], from 1 at the last vertex so far while edges are left,
    so every choice extends to a code."""
    node, rest, pending, r = state
    for value in range(0 if rest or pending or not r else 1, r + 1):
        for overline, prime, start, nxt in _OPTIONS[node]:
            later = pending + ((start, value),) if value else pending
            if rest:
                child = nxt, rest - 1, later, r - value
            elif later:
                child = later[0][0], later[0][1] - 1, later[1:], r - value
            else:
                child = None
            yield value, token(value, overline, prime), child


def _walk(
    n: int, token: Callable[[int, bool, bool], object], fold: int = FOLD_LINES
) -> Iterator[tuple[list, list, tuple | None]]:
    """The one token walk behind :func:`iter_flows` and
    :func:`iter_code_blocks`; it lists codes only, never bare trees.

    Yields ``(values, head, state)`` once per folded state, the first on
    its path with at most ``fold`` codes under it by :func:`_state_lines`:
    1,755 at n = 7, 13,652 at n = 8 and 109,085 at n = 9.  ``head`` holds
    what ``token(value, overline, prime)`` made of the tokens before the
    state's position, ``values`` their values; the codes with that head
    are the head before each line of the state.  Codes compare token by
    token, so the walk runs depth first through each state's
    :func:`_choices`, from an explicit stack of their iterators, one per
    position of the head: no call recurses.  A folded state has at most
    three edges left, so its values are below 10 and its head alone
    decides the separator.
    """
    if n < 0:
        raise ValueError("separatrix count is non-negative")
    state = len(_OPTIONS) - 1, 0, (), n  # the root, one fixed decoration
    values, head, stack = [], [], []
    while True:
        if state is None or state[3] <= 3 and _state_lines(state, fold) <= fold:
            yield values[:], head[:], state
            step = None
            while stack and (step := next(stack[-1], None)) is None:
                stack.pop()
                values.pop()
                head.pop()
            if step is None:
                return
            values[-1], head[-1], state = step
        else:
            stack.append(_choices(state, token))
            value, tok, state = next(stack[-1])
            values.append(value)
            head.append(tok)


def _fill(memo: dict, state: tuple, token: Callable, join: Callable) -> object:
    """``memo[state]``, made if missing with every state under it that
    ``memo`` lacks, children first, from an explicit stack: ``join`` of
    the state's choices as (token, child's entry) pairs, the entry None
    past the last position."""
    stack = [(state, None)]
    while stack:
        top, parts = stack.pop()
        if top in memo:
            continue
        if parts is None:  # read its choices, then make its children first
            parts = [(tok, child) for _, tok, child in _choices(top, token)]
            stack.append((top, parts))
            stack += [(c, None) for _, c in parts if c is not None and c not in memo]
        else:
            memo[top] = join([(tok, child and memo[child]) for tok, child in parts])
    return memo[state]


#: :func:`iter_flows` keeps the token tuples of the states with at most
#: this many codes, and walks with it as its fold.
_TUPLE_LINES = 16


def iter_flows(n: int) -> Iterator[Code]:
    """All realizable codes with n separatrices in sorted order, one at a
    time, with state sized by n and the folded states alone.

    Each code is built as a :class:`Code` of interned tokens: a head of
    the walk and one token tuple of its folded state, each state's
    tuples made once per stream.
    """
    memo: dict = {}

    def join(parts):
        return [(tok, *tail) for tok, tails in parts for tail in tails or [()]]

    for _, head, state in _walk(n, cached_token, _TUPLE_LINES):
        base = tuple(head)
        for tail in _fill(memo, state, cached_token, join):
            yield Code(base + tail)


def _token_text(value: int, overline: bool, prime: bool) -> str:
    return CodeToken(value, overline, prime).text()


def _suffix_text(sep: str, parts: list[tuple]) -> str:
    """A state's lines, each choice's token with every line of its child
    after it, joined by newlines."""
    return "\n".join(
        tok if text is None else tok + sep + text.replace("\n", "\n" + tok + sep)
        for tok, text in parts
    )


def iter_code_blocks(n: int) -> Iterator[str]:
    """The texts of :func:`iter_flows`' codes in order, one block of
    lines per folded state of the walk, with no trailing newline.

    No :class:`Code` is built.  Each token's text is made once per
    stream, and each state's lines once per stream and separator (the
    head decides it) as one suffix text, kept by the state and put after
    every head that reaches it.  The kept texts are sized by the states
    of at most :data:`FOLD_LINES` codes, never by the codes: 326 KB at
    n = 7, 0.7 MB at n = 8 and 1.6 MB at n = 9.
    """
    token = lru_cache(maxsize=None)(_token_text)
    texts = {sep: ({}, partial(_suffix_text, sep)) for sep in ("", " ")}
    for values, head, state in _walk(n, token):
        sep = "" if n <= 9 or max(values, default=0) <= 9 else " "
        memo, join = texts[sep]
        text = _fill(memo, state, token, join)
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
