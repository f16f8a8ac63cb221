"""Tree generation, flow enumeration, counting, and the summary table."""

from __future__ import annotations

import hashlib
import math
import tracemalloc
from collections import deque
from itertools import groupby, islice, product

import pytest

from diskflows.cli import main
from diskflows import enumeration
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


def _last_edge_prefix(code: Code) -> tuple:
    """The tokens before the one that places the last edge, the last
    token with a nonzero value."""
    last = max((i for i, t in enumerate(code.tokens) if t.value), default=0)
    return code.tokens[:last]


@pytest.mark.parametrize("n", range(7))
def test_code_blocks_are_the_codes_of_one_walk_prefix_each(n):
    groups = groupby(iter_flows(n), key=_last_edge_prefix)
    assert list(iter_code_blocks(n)) == [
        "\n".join(map(serialize_code, codes)) for _, codes in groups
    ]


@pytest.mark.parametrize("n", range(9))
def test_code_blocks_hold_one_block_of_leaves_each(n):
    # One block per prefix the walk yields: every decoration of the
    # last-edge token with the completions of its leaves.  The largest
    # block, pinned, has 216 lines at n = 7 and 360 at n = 8.
    largest = (1, 3, 9, 18, 36, 60, 108, 216, 360)[n]
    lines = [block.count("\n") + 1 for block in iter_code_blocks(n)]
    assert len(lines) == sum(1 for _ in enumeration._walk(n, CodeToken))
    assert sum(lines) == count_flows(n)
    assert max(lines) == largest


def test_draining_code_blocks_peaks_small():
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_blocks(7)) == 19_460
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_each_fold_state_is_written_once_per_stream(monkeypatch):
    built = []
    suffix_text = enumeration._suffix_text

    def recording(texts, folds, sep):
        built.append((id(folds), sep))
        return suffix_text(texts, folds, sep)

    monkeypatch.setattr(enumeration, "_suffix_text", recording)
    for n, states in ((7, 263), (8, 541)):
        built.clear()
        assert sum(block.count("\n") + 1 for block in iter_code_blocks(n)) == count_flows(n)
        assert len(built) == len(set(built)) == states


def test_draining_code_blocks_of_eight_loops_peaks_small():
    # The suffix texts kept at n = 8 hold about 0.5 MB; the stream's text
    # is 21 MB.
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_blocks(8)) == 149_496
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _one_prefix_walk(codes, folds=None):
    """A stand-in for the walk that yields each code as one prefix: the
    values up to the token that places the last edge, the tokens before
    it, and that token with the rest of the code as its one segment.
    The fold list is ``folds`` when given, else a fresh list per code."""
    def walk(n, token):
        for code in codes:
            made = [token(t.value, t.overline, t.prime) for t in code.tokens]
            values = [t.value for t in code.tokens]
            last = max((i for i, value in enumerate(values) if value), default=0)
            yield (values[:last + 1], made[:last],
                   folds or [(made[last], [[tuple(made[last + 1:])]])])
    return walk


def test_suffix_texts_are_kept_per_separator(monkeypatch):
    # One fold list, the token 1 and ten leaves, after a compact head and
    # after a spaced one: the same state gives both texts.
    compact, spaced = "29" + "1" + "0" * 10, "10 1 1" + " 0" * 10
    folds = [("1", [[("0",) * 10]])]
    codes = [parse_code(text) for text in (compact, spaced, compact)]
    monkeypatch.setattr(enumeration, "_walk", _one_prefix_walk(codes, folds))
    assert list(iter_code_texts(12)) == [compact, spaced, compact]


def test_suffix_texts_of_fresh_fold_lists_stay_apart(monkeypatch):
    # A fresh fold list per prefix, each dropped by the walk once yielded:
    # a list freed while its text is kept could leave its id to the next.
    codes = list(iter_flows(5))
    monkeypatch.setattr(enumeration, "_walk", _one_prefix_walk(codes))
    assert list(iter_code_texts(5)) == [serialize_code(c) for c in codes]


@pytest.mark.parametrize("n", range(8))
def test_code_texts_are_the_serialized_code_stream(n):
    assert list(iter_code_texts(n)) == [serialize_code(c) for c in iter_flows(n)]


def test_code_texts_take_the_spaced_form_from_ten_loops_on(monkeypatch):
    # The walk reaches a value of 10 only after about 1.3e8 codes at
    # n = 10, so the joining helper is checked on its own, and the text
    # stream on a walk that yields such a prefix at once.
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

    codes = [parse_code(spaced[1]), parse_code("1" * 10 + "0")]
    monkeypatch.setattr(enumeration, "_walk", _one_prefix_walk(codes))
    texts = list(iter_code_texts(10))
    assert texts == [serialize_code(c) for c in codes] == [spaced[1], "1" * 10 + "0"]
    # The folded token alone has a value of 10 or more: the root of
    # "10 0 0 0 0 0 0 0 0 0 0", after an empty head.
    monkeypatch.setattr(enumeration, "_walk", _one_prefix_walk([parse_code(spaced[0])]))
    assert list(iter_code_texts(10)) == [spaced[0]]


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
            tails = enumeration._completions(node, j, CodeToken)
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
                listed = enumeration._completions(node, length, lambda _, o, p: (o, p))
                assert listed == accepted(node, marks, length)
    assert nodes == 6


def test_the_walk_lists_each_completion_once_per_stream(monkeypatch):
    calls = []
    completions = enumeration._completions

    def recording(node, length, token):
        calls.append((id(node), length))
        return completions(node, length, token)

    monkeypatch.setattr(enumeration, "_completions", recording)
    assert sum(1 for _ in iter_code_texts(8)) == count_flows(8)
    assert len(set(calls)) == len(calls) <= 6 * 9


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


def test_walk_yields_per_last_edge_prefix_and_joins_each_list_once(monkeypatch):
    # The walk yields once per prefix before the token that places the
    # last edge, the last position with a nonzero value.
    def prefix(code):
        last = max(i for i, t in enumerate(code.tokens) if t.value)
        return code.tokens[:last]

    prefixes = {prefix(code) for code in iter_flows(7)}
    assert sum(1 for _ in enumeration._walk(7, CodeToken)) == len(prefixes) == 19_460

    # Each completion list is joined to text once per stream, and the
    # joined lists are as many as the completion lists, at most 6(n+1).
    made = []
    segment_texts = enumeration._segment_texts

    def recording(texts, segment, sep):
        made.append((texts, id(segment), sep))
        return segment_texts(texts, segment, sep)

    monkeypatch.setattr(enumeration, "_segment_texts", recording)
    assert sum(1 for _ in iter_code_texts(8)) == count_flows(8)
    assert len({(key, sep) for _, key, sep in made}) == len(made)
    assert {sep for *_, sep in made} == {""}
    assert len({id(texts) for texts, *_ in made}) == 1
    assert len(made[0][0]) == len(made) <= 6 * 9

    # Nothing is kept per code: draining a stream peaks far below the
    # size of its text (3.6 MB at n = 7).
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_code_texts(7)) == count_flows(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
