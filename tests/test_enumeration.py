"""Tree generation, flow enumeration, counting, and the summary table."""

from __future__ import annotations

import hashlib
import math
import random
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import deque
from functools import partial
from itertools import groupby, islice, product

import pytest

from diskflows.cli import main
from diskflows import enumeration, model
from diskflows.codec import (
    Code,
    CodeToken,
    check_realizable,
    graph_to_code,
    join_token_texts,
    parse_code,
    serialize_code,
)
from diskflows.enumeration import (
    CSV_HEADER,
    abstract_classes,
    codes_to_text,
    count_flows,
    enumerate_flows,
    flows_per_tree,
    iter_code_blocks,
    iter_code_texts,
    iter_flows,
    plane_trees,
    table_rows,
    table_to_csv,
)
from diskflows.model import (
    BLACK,
    CELL_AUTOMATON,
    RED,
    DistinguishedGraph,
    PlaneRootedTree,
    enumerate_cell_configs,
)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def compose_trees(n: int):
    """Independent plane-tree generator: nested tuples by first-subtree size."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for first in compose_trees(k - 1):
            for rest in compose_trees(n - k):
                yield (first,) + rest


def per_tree_codes(n: int):
    """Independent enumeration: every plane tree decorated cell by cell in
    level order, unsorted."""
    for tree in plane_trees(n):
        partial = [([1] * (n + 1), [False] * (n + 1))]
        for v, kids in enumerate(tree.children):
            grown = []
            for colors, primes in partial:
                for dec in enumerate_cell_configs(len(kids), colors[v]):
                    c, p = colors[:], primes[:]
                    for child, color, prime in zip(kids, dec.child_colors, dec.child_primes):
                        c[child], p[child] = color, prime
                    grown.append((c, p))
            partial = grown
        for colors, primes in partial:
            yield graph_to_code(DistinguishedGraph(tree, colors, primes))


def level_order_degrees(nested) -> tuple[int, ...]:
    out = []
    queue = deque([nested])
    while queue:
        node = queue.popleft()
        out.append(len(node))
        queue.extend(node)
    return tuple(out)


# ---------------------------------------------------------------------------
# Plane trees


def test_plane_trees_descending_order_at_three_loops():
    assert [t.up_degrees for t in plane_trees(3)] == [
        (3, 0, 0, 0),
        (2, 1, 0, 0),
        (2, 0, 1, 0),
        (1, 2, 0, 0),
        (1, 1, 1, 0),
    ]


@pytest.mark.parametrize("n", range(9))
def test_plane_tree_counts_are_catalan(n):
    assert len(plane_trees(n)) == catalan(n)


@pytest.mark.parametrize("n", range(8))
def test_plane_trees_match_independent_generator(n):
    mine = {t.up_degrees for t in plane_trees(n)}
    other = {level_order_degrees(t) for t in compose_trees(n)}
    assert mine == other


def test_plane_trees_strictly_descending():
    for n in range(7):
        seqs = [t.up_degrees for t in plane_trees(n)]
        assert seqs == sorted(seqs, reverse=True)
        assert len(set(seqs)) == len(seqs)


# ---------------------------------------------------------------------------
# Abstract (non-plane) classes


def test_abstract_class_counts_match_rooted_tree_numbers():
    assert [len(abstract_classes(n)) for n in range(11)] == [
        1,
        1,
        2,
        4,
        9,
        20,
        48,
        115,
        286,
        719,
        1842,
    ]


def test_abstract_classes_at_three_loops():
    assert [(rep.up_degrees, mult) for rep, mult in abstract_classes(3)] == [
        ((1, 1, 1, 0), 1),
        ((1, 2, 0, 0), 1),
        ((2, 0, 1, 0), 2),
        ((3, 0, 0, 0), 1),
    ]


@pytest.mark.parametrize("n", range(11))
def test_abstract_multiplicities_cover_all_embeddings(n):
    classes = abstract_classes(n)
    assert sum(mult for _, mult in classes) == catalan(n)
    reps = [rep.up_degrees for rep, _ in classes]
    assert reps == sorted(reps)


def recursive_key(tree, v=0):
    return tuple(sorted(recursive_key(tree, c) for c in tree.children[v]))


@pytest.mark.parametrize("n", range(9))
def test_abstract_classes_match_grouping_of_plane_trees(n):
    groups = {}
    for tree in plane_trees(n):
        groups.setdefault(recursive_key(tree), []).append(tree.up_degrees)
    expected = sorted((min(members), len(members)) for members in groups.values())
    assert [(rep.up_degrees, mult) for rep, mult in abstract_classes(n)] == expected


def test_abstract_representative_is_least_embedding():
    # the class containing (2, 2, 0, 1, 0, 0) is represented by its
    # lexicographically least plane embedding
    reps = {rep.up_degrees for rep, _ in abstract_classes(5)}
    assert (2, 0, 2, 0, 1, 0) in reps
    assert (2, 2, 0, 1, 0, 0) not in reps


# ---------------------------------------------------------------------------
# Per-tree products and totals


def test_flows_per_tree_multiplies_cell_counts():
    T = PlaneRootedTree.from_up_degrees
    assert flows_per_tree(T((0,))) == 1
    assert flows_per_tree(T((1, 1, 1, 0))) == 27
    assert flows_per_tree(T((3, 0, 0, 0))) == 10
    assert flows_per_tree(T((2, 0, 2, 0, 1, 0))) == 108


def test_count_flows_small_totals():
    assert [count_flows(n) for n in range(6)] == [1, 3, 15, 91, 612, 4389]


def test_count_flows_larger_totals_match_materialized_enumeration():
    assert count_flows(6) == 32890
    assert count_flows(7) == 254475
    assert len(enumerate_flows(6)) == 32890


def test_count_flows_closed_form_matches_product_sum():
    for n in range(11):
        assert count_flows(n) == sum(flows_per_tree(t) for t in plane_trees(n))


def test_count_flows_rejects_negative():
    with pytest.raises(ValueError):
        count_flows(-1)


# ---------------------------------------------------------------------------
# Materialized enumeration


def test_enumerated_codes_for_one_loop():
    assert [serialize_code(c) for c in enumerate_flows(1)] == [
        "10",
        "10~",
        "10~'",
    ]


def test_enumerated_codes_for_two_loops():
    assert [serialize_code(c) for c in enumerate_flows(2)] == [
        "110",
        "110~",
        "110~'",
        "11~0",
        "11~0'",
        "11~0~",
        "11~'0",
        "11~'0'",
        "11~'0~",
        "200",
        "200~",
        "20~0",
        "20~0~",
        "20~0~'",
        "20~'0~",
    ]


@pytest.mark.parametrize("n", range(5))
def test_enumeration_sorted_distinct_realizable(n):
    codes = enumerate_flows(n)
    assert len(codes) == count_flows(n)
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    for code in codes:
        assert code.n == n
        assert check_realizable(code).realizable


def test_iter_flows_is_sorted_per_tree_enumeration():
    for n in range(7):
        codes = enumerate_flows(n)
        assert list(iter_flows(n)) == codes == sorted(codes)
        reference = sorted(per_tree_codes(n))
        assert codes == reference
        # The text stream against the independent reference too, not
        # only against iter_flows, which shares its walk.
        assert list(iter_code_texts(n)) == list(map(serialize_code, reference))


def test_streamed_enum_text_at_seven_loops_is_unchanged(tmp_path):
    target = tmp_path / "codes.txt"
    assert main(["enum", "--n", "7", "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "6ce2b06c34d0b59bdc9f32f503ec3d75257f54c5ccdd18a783f91bfe31ec1940"
    )


def test_iter_flows_starts_at_the_path_without_recursion():
    assert serialize_code(next(iter_flows(1000))) == "1" * 1000 + "0"


def test_codes_to_text_one_line_per_code():
    assert codes_to_text(enumerate_flows(1)) == "10\n10~\n10~'\n"
    assert codes_to_text(list(iter_code_texts(1))) == "10\n10~\n10~'\n"


@pytest.mark.parametrize("n", range(7))
def test_code_blocks_join_to_the_enum_text(n):
    assert "\n".join(iter_code_blocks(n)) + "\n" == codes_to_text(enumerate_flows(n))


def _fold_heads(codes: list[tuple], fold: int) -> list[tuple]:
    """Each code's head, from the sorted codes alone: its shortest prefix
    that at most ``fold`` codes share, so the prefix one token shorter
    is shared by more."""
    heads = [None] * len(codes)
    for k in range(len(codes[0]) + 1):
        at = 0
        for prefix, run in groupby(codes, key=lambda c: c[:k]):
            size = sum(1 for _ in run)
            if size <= fold:
                heads[at:at + size] = [prefix if h is None else h for h in heads[at:at + size]]
            at += size
    return heads


@pytest.mark.parametrize("n", range(7))
def test_code_blocks_are_the_codes_of_one_walk_prefix_each(n):
    # Each block is all the codes that share its head, at most FOLD_LINES
    # of them, while more share the head one token shorter.
    codes = [code.tokens for code in enumerate_flows(n)]
    heads = _fold_heads(codes, enumeration.FOLD_LINES)
    groups = groupby(zip(heads, codes), key=lambda pair: pair[0])
    assert list(iter_code_blocks(n)) == [
        "\n".join(serialize_code(Code(code)) for _, code in group) for _, group in groups
    ]
    walked = [tuple(head) for _, head, _ in enumeration._walk(n, CodeToken)]
    assert walked == [head for head, _ in groupby(heads)]


@pytest.mark.parametrize("n", range(9))
def test_code_blocks_hold_one_block_of_leaves_each(n):
    # One block per folded state: up to n = 3 the whole stream, then at
    # most FOLD_LINES lines.  The largest block, pinned, has 504 lines at
    # n = 7 and n = 8.
    largest = (1, 3, 15, 91, 273, 351, 432, 504, 504)[n]
    lines = [block.count("\n") + 1 for block in iter_code_blocks(n)]
    assert len(lines) == sum(1 for _ in enumeration._walk(n, CodeToken))
    assert sum(lines) == count_flows(n)
    assert max(lines) == largest <= enumeration.FOLD_LINES


def test_draining_code_blocks_peaks_small():
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_blocks(7)) == 1_755
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_each_fold_state_is_written_once_per_stream(monkeypatch):
    # Every state whose lines a block needs, folded or below a folded
    # one, is written once per stream: 455 states at n = 7, 231 of them
    # folded, and 805 at n = 8, 537 folded.
    built, memos = [], {}
    suffix_text, fill = enumeration._suffix_text, enumeration._fill

    def recording_text(sep, parts):
        built.append(sep)
        return suffix_text(sep, parts)

    def recording_fill(memo, state, token, join):
        memos[id(memo)] = memo
        return fill(memo, state, token, join)

    monkeypatch.setattr(enumeration, "_suffix_text", recording_text)
    monkeypatch.setattr(enumeration, "_fill", recording_fill)
    for n, states, folded in ((7, 455, 231), (8, 805, 537)):
        built.clear()
        memos.clear()
        assert sum(block.count("\n") + 1 for block in iter_code_blocks(n)) == count_flows(n)
        kept = [state for memo in memos.values() for state in memo]
        assert len(built) == len(kept) == len(set(kept)) == states
        folds = {state for *_, state in enumeration._walk(n, CodeToken)}
        assert len(folds) == folded and folds <= set(kept)


def test_draining_code_blocks_of_eight_loops_peaks_small():
    # The suffix texts kept at n = 8 hold about 0.7 MB; the stream's text
    # is 21 MB.
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_blocks(8)) == 13_652
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _state_at(code: Code, i: int) -> tuple:
    """The walk state at position i of ``code``, stepped from the root
    through the choices of its first i tokens."""
    state = len(enumeration._OPTIONS) - 1, 0, (), code.n
    for t in code.tokens[:i]:
        state = next(child for _, key, child in enumeration._choices(state, lambda *key: key)
                     if key == (t.value, t.overline, t.prime))
    return state


def _folding_walk(folds):
    """A stand-in for the walk that folds each ``(code, i)`` of
    ``folds`` at position i: the values and tokens of the code's first i
    tokens, and the state there."""
    def walk(n, token, fold=None):
        for code, i in folds:
            head = code.tokens[:i]
            yield ([t.value for t in head], [token(t.value, t.overline, t.prime) for t in head],
                   _state_at(code, i))
    return walk


def test_suffix_texts_are_kept_per_separator(monkeypatch):
    # One state, the root's one child at the start node with one edge
    # left, after a compact head and after a spaced one whose nine
    # overlined leaves keep the start node: the same state gives both
    # texts.
    spaced_head = parse_code("10" + " 0~" * 9 + " 1 0").tokens[:10]
    compact = enumerate_flows(2)[:9]
    assert {_state_at(code, 1) for code in compact} == {_state_at(parse_code("110"), 1)}
    spaced = [Code(spaced_head + code.tokens[1:]) for code in compact]
    assert _state_at(spaced[0], 10) == _state_at(compact[0], 1)
    monkeypatch.setattr(enumeration, "_walk", _folding_walk(
        [(compact[0], 1), (spaced[0], 10), (compact[0], 1)]))
    lines = list(map(serialize_code, compact))
    assert list(iter_code_texts(11)) == lines + list(map(serialize_code, spaced)) + lines
    assert all(" " in line for line in map(serialize_code, spaced))


def test_suffix_texts_are_kept_by_state_in_any_order(monkeypatch):
    # Folds at seeded positions of seeded codes, out of the walk's order:
    # states reached under many heads, built children first or after
    # their parents.  Each block is all the codes that share its head.
    codes = enumerate_flows(5)
    rng = random.Random(5)
    folds = [(rng.choice(codes), rng.randrange(6)) for _ in range(200)]
    monkeypatch.setattr(enumeration, "_walk", _folding_walk(folds))
    expected = [serialize_code(c) for code, i in folds
                for c in codes if c.tokens[:i] == code.tokens[:i]]
    assert list(iter_code_texts(5)) == expected


@pytest.mark.parametrize("n", range(8))
def test_code_texts_are_the_serialized_code_stream(n):
    assert list(iter_code_texts(n)) == [serialize_code(c) for c in iter_flows(n)]


def test_code_texts_take_the_spaced_form_from_ten_loops_on(monkeypatch):
    # The walk reaches a value of 10 only after about 1.3e8 codes at
    # n = 10, so the joining helper is checked on its own, and the text
    # stream on walks that fold such heads at once.
    spaced = ("10 0 0 0 0 0 0 0 0 0 0", "10 1~ 0~ 0~' 0~ 0~ 0~ 0~ 0~ 0~ 0~ 0")
    for text in spaced:
        code = parse_code(text)
        values = [t.value for t in code.tokens]
        texts = [t.text() for t in code.tokens]
        assert join_token_texts(values, texts) == serialize_code(code) == text
    count = 20_000
    texts = list(islice(iter_code_texts(10), count))
    assert texts == [serialize_code(c) for c in islice(iter_flows(10), count)]
    assert texts[0] == "1" * 10 + "0"

    # A folded state has at most three edges left, so its values stay
    # below 10 and the head alone decides the separator: the fold after
    # "10 1~ 0~ 0~'" has the three decorations of the last leaf, of a red
    # parent, and the first fold of n = 10 is compact.
    codes = [parse_code(spaced[1]), parse_code("1" * 10 + "0")]
    first = [serialize_code(c) for c in islice(iter_flows(10), 9)]
    monkeypatch.setattr(enumeration, "_walk", _folding_walk([(codes[0], 4), (codes[1], 9)]))
    texts = list(iter_code_texts(10))
    assert texts == [spaced[1], spaced[1] + "'", spaced[1] + "~"] + first
    assert all(check_realizable(parse_code(text)).realizable for text in texts)
    # A head that is the root of value 10 alone: its 66 decorations,
    # spaced, from the cell's configurations.
    monkeypatch.setattr(enumeration, "_walk", _folding_walk([(parse_code(spaced[0]), 1)]))
    decorated = sorted(
        Code((CodeToken(10),) + tuple(CodeToken(0, c == RED, p) for c, p in zip(
            dec.child_colors, dec.child_primes)))
        for dec in enumerate_cell_configs(10, BLACK)
    )
    texts = list(iter_code_texts(10))
    assert texts == list(map(serialize_code, decorated))
    assert texts[0] == spaced[0] and len(texts) == 66


def test_token_texts_are_made_once_per_stream_from_walk_tokens(monkeypatch):
    made = []

    def recording(value, overline, prime):
        made.append((value, overline, prime))
        return CodeToken(value, overline, prime).text()

    monkeypatch.setattr(enumeration, "_token_text", recording)
    for n in (3, 4):
        made.clear()
        stream = iter_code_texts(n)
        head = [next(stream) for _ in range(10)]
        # Text parsed from user input goes through CodeToken.text, never
        # through the stream's table.
        big = Code((CodeToken(4294967295), CodeToken(0, True, True)))
        assert serialize_code(big) == "4294967295 0~'"
        assert head + list(stream) == [serialize_code(c) for c in iter_flows(n)]
        assert len(made) == len(set(made)) <= 4 * (n + 1)
        assert all(value <= n for value, _, _ in made)


@pytest.mark.parametrize("color", [BLACK, RED])
def test_leaf_completions_count_by_automaton_node(color):
    start = CELL_AUTOMATON[color]
    (back,) = [nxt for *_, nxt in start if len(nxt) == 1]
    (away,) = [nxt for *_, nxt in start if len(nxt) == 2]
    for j in range(9):
        for node, count in ((start, (j + 1) * (j + 2) // 2), (away, j + 1), (back, 1)):
            tails = model._completions(node, j, CodeToken)
            assert len(tails) == len(set(tails)) == count
            assert tails == sorted(tails)
            assert all(len(t) == j and all(tok.value == 0 for tok in t) for t in tails)


def test_completions_list_the_accepted_mark_sequences_in_order():
    # The reference tries every sequence of a color's marks, read from
    # one automaton node; none is built by the lister.
    def accepted(node, marks, length):
        out = []
        for seq in product(marks, repeat=length):
            x = node
            for mark in seq:
                x = next((nxt for *option, _, nxt in x if tuple(option) == mark), None)
                if x is None:
                    break
            else:
                out.append(seq)
        return sorted(out)

    nodes = 0
    for color in (BLACK, RED):
        reach = [CELL_AUTOMATON[color]]
        for x in reach:  # the loop reaches what it appends
            reach.extend(nxt for *_, nxt in x if all(nxt is not y for y in reach))
        marks = {(overline, prime) for x in reach for overline, prime, *_ in x}
        nodes += len(reach)
        for node in reach:
            for length in range(11):
                listed = model._completions(node, length, lambda _, o, p: (o, p))
                assert listed == accepted(node, marks, length)
    assert nodes == 6


def test_the_walk_reads_each_kept_state_once_per_stream(monkeypatch):
    # The text builder reads the choices of each state it keeps once per
    # stream, 805 states at n = 8; the walk reads those of the 1,726
    # positions above its folds, 283 distinct states.
    read = []
    choices = enumeration._choices

    def recording(state, token):
        read.append(state)
        return choices(state, token)

    monkeypatch.setattr(enumeration, "_choices", recording)
    assert sum(1 for _ in iter_code_texts(8)) == count_flows(8)
    kept = [s for s in read if enumeration._state_lines(s) <= enumeration.FOLD_LINES]
    above = [s for s in read if enumeration._state_lines(s) > enumeration.FOLD_LINES]
    assert len(set(kept)) == len(kept) == 805
    assert (len(above), len(set(above))) == (1_726, 283)


def test_cell_configs_of_sixty_loops_peak_small():
    # Every shorter length listed and kept as well peaked at 20.6 MiB.
    enumerate_cell_configs.cache_clear()
    tracemalloc.start()
    try:
        enumerate_cell_configs(60, BLACK)
        enumerate_cell_configs(60, RED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        enumerate_cell_configs.cache_clear()
    assert peak < 12 * 2**20


def test_walk_yields_per_folded_state_and_joins_each_state_once(monkeypatch):
    # The walk yields once per head, the shortest prefix of each code
    # that at most FOLD_LINES codes share, found from the codes alone.
    codes = [code.tokens for code in iter_flows(7)]
    heads = {head for head, _ in groupby(_fold_heads(codes, enumeration.FOLD_LINES))}
    assert sum(1 for _ in enumeration._walk(7, CodeToken)) == len(heads) == 1_755

    # Each state's lines are joined to text once per stream, all with
    # the compact separator, into one memo.
    made = []
    fill, suffix_text = enumeration._fill, enumeration._suffix_text

    def recording_fill(memo, state, token, join):
        made.append(memo)
        return fill(memo, state, token, join)

    monkeypatch.setattr(enumeration, "_fill", recording_fill)
    monkeypatch.setattr(enumeration, "_suffix_text", lambda sep, parts: (
        made.append(sep) or suffix_text(sep, parts)))
    assert sum(1 for _ in iter_code_texts(8)) == count_flows(8)
    seps = [x for x in made if isinstance(x, str)]
    memos = {id(x): x for x in made if isinstance(x, dict)}
    assert set(seps) == {""} and len(memos) == 1
    assert len(seps) == len(next(iter(memos.values()))) == 805

    # Nothing is kept per code: draining a stream peaks far below the
    # size of its text (3.6 MB at n = 7).
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_texts(7)) == count_flows(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n", range(8))
def test_state_counts_are_the_lines_under_each_folded_state(n):
    # At every cutoff, each state the walk folds has as many codes as its
    # closed-form count: that many consecutive codes share its head, and
    # no more; more than the cutoff share the head one token shorter; and
    # its suffix text has that many lines.
    codes = [code.tokens for code in enumerate_flows(n)]
    texts = {}
    join = partial(enumeration._suffix_text, "")
    for cutoff in (1, 3, 15, 91, 512):
        at = 0
        for _, head, state in enumeration._walk(n, CodeToken, cutoff):
            lines, k = 1 if state is None else enumeration._state_lines(state), len(head)
            assert lines <= cutoff
            head = tuple(head)
            block = codes[at:at + lines]
            assert block[0][:k] == block[-1][:k] == head
            assert at + lines == len(codes) or codes[at + lines][:k] != head
            if k:
                parent = [bisect(codes, head[:-1], key=lambda c: c[:k - 1])
                          for bisect in (bisect_left, bisect_right)]
                assert parent[1] - parent[0] > cutoff
            if state is not None:
                text = enumeration._fill(texts, state, enumeration._token_text, join)
                assert text.count("\n") + 1 == lines
            at += lines
        assert at == len(codes)


def test_forest_count_on_one_vertex_is_count_flows():
    for n in range(61):
        assert enumeration._forest_count(1, n) == count_flows(n)
    # Four edges left are always more than a fold holds.
    assert enumeration._forest_count(1, 4) == 612 > enumeration.FOLD_LINES


def test_forest_count_matches_power_series_iteration():
    # T = (1 - xT)^-3 = sum over k of (k+1)(k+2)/2 x^k T^k, iterated on
    # series truncated after x^12; F(m, r) is [x^r] T^m.
    top = 12

    def times(a, b):
        out = [0] * (top + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b[:top + 1 - i]):
                out[i + j] += x * y
        return out

    t = [1] + [0] * top
    for _ in range(top + 1):
        new, power = [0] * (top + 1), [1] + [0] * top  # power: (xT)^k
        for k in range(top + 1):
            new = [a + (k + 1) * (k + 2) // 2 * b for a, b in zip(new, power)]
            power = [0] + times(power, t)[:top]
        t = new
    power = [1] + [0] * top
    for m in range(1, 6):
        power = times(power, t)
        assert power == [enumeration._forest_count(m, r) for r in range(top + 1)]


def test_large_streams_start_quickly_without_recursion():
    # The first fold of n = 1000 lies 997 positions deep; each stream's
    # first code ends within a second.
    for stream, first in ((iter_code_texts, str), (iter_flows, serialize_code)):
        started = time.perf_counter()
        assert first(next(stream(1000))) == "1" * 1000 + "0"
        assert time.perf_counter() - started < 1
    # A state with 1,000 positions left and one code under it: the root's
    # children after a primed one are all overlined, from the back node.
    (back,) = [k for k, row in enumerate(enumeration._OPTIONS[:-1]) if len(row) == 1
               and row[0][0]]
    state = back, 999, (), 0
    assert enumeration._state_lines(state) == 1
    text = enumeration._fill({}, state, enumeration._token_text,
                             partial(enumeration._suffix_text, ""))
    assert text == "0~" * 1000


# ---------------------------------------------------------------------------
# Summary table


def test_table_rows_up_to_two_loops():
    rows = [
        (r.n, r.abstract_tree, r.flows_per_embedding, r.embeddings, r.total)
        for r in table_rows(2)
    ]
    assert rows == [
        (0, "0", 1, 1, 1),
        (1, "10", 3, 1, 3),
        (2, "110", 9, 1, 9),
        (2, "200", 6, 1, 6),
    ]


def test_table_csv_text():
    assert CSV_HEADER == "n,abstract_tree,flows_per_embedding,embeddings,total"
    assert table_to_csv(table_rows(2)) == (
        "n,abstract_tree,flows_per_embedding,embeddings,total\n"
        "0,0,1,1,1\n"
        "1,10,3,1,3\n"
        "2,110,9,1,9\n"
        "2,200,6,1,6\n"
    )


@pytest.mark.parametrize(
    "max_n, rows, digest",
    [
        (9, 1205, "adcd590f6a24791fa2015bb24b5d1831acb53db563b28b5b6fb2425edb23bd40"),
        (10, 3047, "e33828b446ebc570e846591436b6a3ea4d7f757faf46e434abbfb95e4c28dea0"),
    ],
    ids=["9", "10"],
)
def test_table_csv_to_nine_loops_is_unchanged(max_n, rows, digest):
    text = table_to_csv(table_rows(max_n))
    assert text.count("\n") == 1 + rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_table_lists_no_plane_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("the table listed a plane tree")

    monkeypatch.setattr(enumeration, "_walk", refuse)
    monkeypatch.setattr(enumeration, "_nested_trees", refuse, raising=False)
    monkeypatch.setattr(enumeration, "plane_trees", refuse)
    monkeypatch.setattr(enumeration, "abstract_classes", refuse)
    monkeypatch.setattr(enumeration.PlaneRootedTree, "__post_init__", refuse)
    builds = []
    build = enumeration._rooted_trees

    def counted(n):
        builds.append(n)
        return build(n)

    # Every size comes from one build of the classes.
    monkeypatch.setattr(enumeration, "_rooted_trees", counted)
    text = table_to_csv(table_rows(9))
    assert builds == [9]
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "adcd590f6a24791fa2015bb24b5d1831acb53db563b28b5b6fb2425edb23bd40"
    )


def test_table_totals_match_count_flows():
    rows = table_rows(5)
    assert len(rows) == 1 + 1 + 2 + 4 + 9 + 20
    for n in range(6):
        assert sum(r.total for r in rows if r.n == n) == count_flows(n)
        for row in rows:
            assert row.total == row.flows_per_embedding * row.embeddings
