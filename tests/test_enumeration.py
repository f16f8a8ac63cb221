"""Tree generation, flow enumeration, counting, and the summary table."""

from __future__ import annotations

import hashlib
import math
from collections import deque

import pytest

from diskflows.cli import main
from diskflows.codec import check_realizable, graph_to_code, serialize_code
from diskflows.enumeration import (
    CSV_HEADER,
    abstract_classes,
    codes_to_text,
    count_flows,
    enumerate_flows,
    flows_per_tree,
    iter_flows,
    plane_trees,
    table_rows,
    table_to_csv,
)
from diskflows.model import DistinguishedGraph, PlaneRootedTree, enumerate_cell_configs


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
    assert [len(abstract_classes(n)) for n in range(8)] == [
        1,
        1,
        2,
        4,
        9,
        20,
        48,
        115,
    ]


def test_abstract_classes_at_three_loops():
    assert [(rep.up_degrees, mult) for rep, mult in abstract_classes(3)] == [
        ((1, 1, 1, 0), 1),
        ((1, 2, 0, 0), 1),
        ((2, 0, 1, 0), 2),
        ((3, 0, 0, 0), 1),
    ]


@pytest.mark.parametrize("n", range(8))
def test_abstract_multiplicities_cover_all_embeddings(n):
    classes = abstract_classes(n)
    assert sum(mult for _, mult in classes) == catalan(n)
    reps = [rep.up_degrees for rep, _ in classes]
    assert reps == sorted(reps)


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
        assert codes == sorted(per_tree_codes(n))


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


def test_table_totals_match_count_flows():
    rows = table_rows(5)
    assert len(rows) == 1 + 1 + 2 + 4 + 9 + 20
    for n in range(6):
        assert sum(r.total for r in rows if r.n == n) == count_flows(n)
        for row in rows:
            assert row.total == row.flows_per_embedding * row.embeddings
