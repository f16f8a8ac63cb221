"""Cell-level behavior: tree structure, boundary words, corners, configurations."""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskflows.codec import code_to_graph, parse_code, serialize_code
from diskflows.enumeration import enumerate_flows
from diskflows.model import (
    BLACK,
    CELL_AUTOMATON,
    RED,
    CellBoundary,
    CellKind,
    CyclicCell,
    DistinguishedGraph,
    PlaneRootedTree,
    PolarCell,
    boundary_directions,
    cell_config_count,
    classify_cell,
    enumerate_cell_configs,
)
from diskflows.oracle import _corners, oracle_cell_configs


def graph_of(text: str) -> DistinguishedGraph:
    return code_to_graph(parse_code(text))


# ---------------------------------------------------------------------------
# Plane rooted trees


def test_tree_from_up_degrees_builds_consecutive_child_blocks():
    tree = PlaneRootedTree.from_up_degrees((2, 1, 0, 0))
    assert tree.children == ((1, 2), (3,), (), ())
    assert tree.vertex_count == 4
    assert tree.separatrix_count == 3
    assert tree.up_degrees == (2, 1, 0, 0)
    assert tree.parents() == (None, 0, 0, 1)


def test_tree_single_vertex():
    tree = PlaneRootedTree.from_up_degrees((0,))
    assert tree.children == ((),)
    assert tree.parents() == (None,)


@pytest.mark.parametrize(
    "degrees",
    [(), (1,), (2, 0), (0, 0), (1, 1), (3, 0, 0), (0, 1)],
)
def test_tree_rejects_inconsistent_up_degree_sequences(degrees):
    with pytest.raises(ValueError):
        PlaneRootedTree.from_up_degrees(degrees)


def test_tree_rejects_non_level_order_children():
    with pytest.raises(ValueError):
        PlaneRootedTree(children=((2, 1), (), ()))
    with pytest.raises(ValueError):
        PlaneRootedTree(children=((1,), (0,)))


@pytest.mark.parametrize(
    "children",
    [((), (1,)), ((1,), (), (2,)), ((1,), (2,), (), (3,))],
)
def test_tree_rejects_a_child_that_does_not_follow_its_parent(children):
    # The blocks are consecutive and cover 1..V-1, but vertex 1, 2 or 3
    # is its own child, so it hangs from no earlier vertex.
    with pytest.raises(ValueError, match="no parent of smaller id"):
        PlaneRootedTree(children)


def checked_tree(degrees) -> PlaneRootedTree:
    """The tree of an up-degree sequence through the fully checked
    constructor: the sequence checks, then every block through
    ``PlaneRootedTree(children)``."""
    degrees = tuple(degrees)
    if any(d < 0 for d in degrees):
        raise ValueError("up-degrees are non-negative")
    if sum(degrees) != len(degrees) - 1:
        raise ValueError("up-degrees do not sum to vertex count minus one")
    bounds = list(itertools.accumulate(degrees, initial=1))
    return PlaneRootedTree(tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])))


@pytest.mark.parametrize(
    "sequence",
    [
        "01",  # vertex 1 hangs from no earlier vertex
        "0 1",
        "1 0 1 0",  # one edge short
        (2, -1, 0, 0),
        (3, 0, 0),
        "1" * 500 + "0300",  # vertex 501 opens a block with no edge pending
        (),
    ],
    ids=["01", "0 1", "1 0 1 0", "negative", "wrong-sum", "long", "empty"],
)
def test_tree_from_up_degrees_keeps_the_checked_constructor_errors(sequence):
    """Code texts are decoded too: ``code_to_graph`` names the code and
    passes the tree's message on."""
    code = parse_code(sequence) if isinstance(sequence, str) else None
    degrees = [t.value for t in code.tokens] if code else sequence
    with pytest.raises(ValueError) as checked:
        checked_tree(degrees)
    with pytest.raises(ValueError) as built:
        PlaneRootedTree.from_up_degrees(degrees)
    assert str(built.value) == str(checked.value)
    if code:
        with pytest.raises(ValueError) as decoded:
            code_to_graph(code)
        assert str(decoded.value) == (
            f"code {serialize_code(code)!r} is not a tree sequence: {checked.value}"
        )


def test_code_to_graph_equals_the_checked_constructors_on_small_codes():
    for n in range(5):
        for code in enumerate_flows(n):
            tokens = code.tokens
            expected = DistinguishedGraph(
                checked_tree(t.value for t in tokens),
                (1,) + tuple(RED if t.overline else BLACK for t in tokens[1:]),
                (False,) + tuple(t.prime for t in tokens[1:]),
            )
            graph = code_to_graph(code)
            assert graph == expected
            assert graph.tree.children == expected.tree.children
            assert all(type(p) is bool for p in graph.primes)


# ---------------------------------------------------------------------------
# Boundary words


def test_boundary_of_root_cell_starts_with_plus():
    graph = graph_of("10")
    assert boundary_directions(graph, 0) == CellBoundary((1, -1))


def test_boundary_negates_child_colors():
    graph = graph_of("10~")
    assert boundary_directions(graph, 0) == CellBoundary((1, 1))


def test_boundary_of_leaf_is_single_side():
    assert boundary_directions(graph_of("10"), 1) == CellBoundary((1,))
    assert boundary_directions(graph_of("10~"), 1) == CellBoundary((-1,))


def test_boundary_of_inner_cell_uses_own_color():
    graph = graph_of("1 1~ 0")
    # vertex 1 carries color -1 and its child carries +1
    assert boundary_directions(graph, 1) == CellBoundary((-1, -1))


def test_boundary_unknown_vertex_raises():
    with pytest.raises(ValueError):
        boundary_directions(graph_of("0"), 1)


# ---------------------------------------------------------------------------
# Corner and cell classification (corner types from the oracle)


def test_coherent_boundaries_have_no_corner_list():
    assert _corners((1, 1, 1)) == ["hyperbolic"] * 3
    assert _corners((-1,)) == ["hyperbolic"]
    assert _corners((1,)) == ["hyperbolic"]


def test_alternating_pair_yields_sink_then_source():
    assert _corners((1, -1)) == ["sink", "source"]


def test_corner_classification_reads_cyclically_adjacent_sides():
    assert _corners((1, 1, -1, -1)) == ["hyperbolic", "sink", "hyperbolic", "source"]


def test_cell_kinds_for_small_boundaries():
    assert classify_cell(CellBoundary((1,))) is CellKind.CYCLIC
    assert classify_cell(CellBoundary((-1, -1))) is CellKind.CYCLIC
    assert classify_cell(CellBoundary((1, -1))) is CellKind.POLAR
    assert classify_cell(CellBoundary((1, -1, 1, -1))) is CellKind.INVALID


def test_boundary_rejects_bad_sides():
    with pytest.raises(ValueError):
        CellBoundary(())
    with pytest.raises(ValueError):
        CellBoundary((1, 0))


def test_source_and_sink_counts_balance():
    for sides in itertools.product((1, -1), repeat=5):
        if len(set(sides)) == 1:
            continue
        corners = _corners(sides)
        assert corners.count("source") == corners.count("sink") >= 1


@given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=12))
def test_cell_kind_matches_source_count(sides):
    kind = classify_cell(CellBoundary(tuple(sides)))
    corners = _corners(sides)
    if all(c == "hyperbolic" for c in corners):
        assert kind is CellKind.CYCLIC
    else:
        sources = corners.count("source")
        assert kind is (CellKind.POLAR if sources == 1 else CellKind.INVALID)
        assert sources >= 1


# ---------------------------------------------------------------------------
# Configuration counting


def test_configuration_count_is_triangular():
    assert [cell_config_count(n) for n in range(9)] == [
        1,
        3,
        6,
        10,
        15,
        21,
        28,
        36,
        45,
    ]


def test_boundary_census_matches_count_split():
    for n in range(9):
        for lower in (1, -1):
            kinds = [
                classify_cell(CellBoundary((lower,) + rest))
                for rest in itertools.product((1, -1), repeat=n)
            ]
            assert len(kinds) == 2**n
            assert kinds.count(CellKind.CYCLIC) == 1
            assert kinds.count(CellKind.POLAR) == n * (n + 1) // 2


def test_enumerate_configs_one_child():
    configs = enumerate_cell_configs(1, 1)
    rows = [(d.child_colors, d.child_primes, d.config) for d in configs]
    assert rows == [
        ((-1,), (False,), CyclicCell(elliptic_entry=0)),
        ((-1,), (True,), CyclicCell(elliptic_entry=1)),
        ((1,), (False,), PolarCell(source_corner=1, sink_corner=0)),
    ]


def test_enumerate_configs_two_children():
    configs = enumerate_cell_configs(2, 1)
    rows = {(d.child_colors, d.child_primes) for d in configs}
    assert rows == {
        ((-1, -1), (False, False)),
        ((-1, -1), (True, False)),
        ((-1, -1), (False, True)),
        ((-1, 1), (False, False)),
        ((1, -1), (False, False)),
        ((1, 1), (False, False)),
    }
    cyclic = [d for d in configs if isinstance(d.config, CyclicCell)]
    polar = [d for d in configs if isinstance(d.config, PolarCell)]
    assert len(cyclic) == 3 and len(polar) == 3


@pytest.mark.parametrize("lower", [1, -1])
@pytest.mark.parametrize("n", range(8))
def test_enumerate_configs_sorted_count_and_kinds(n, lower):
    configs = enumerate_cell_configs(n, lower)
    assert len(configs) == cell_config_count(n)
    keys = [(d.child_colors, d.child_primes) for d in configs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for deco in configs:
        if isinstance(deco.config, CyclicCell):
            assert deco.child_colors == (-lower,) * n
            assert sum(deco.child_primes) <= 1
        else:
            assert deco.child_primes == (False,) * n
            sides = (lower,) + tuple(-c for c in deco.child_colors)
            assert classify_cell(CellBoundary(sides)) is CellKind.POLAR


# sha256 of repr(enumerate_cell_configs(k, lower)) for k = 0..12 and
# lower = 1, -1, in that order, as the corner-pair search computed them.
CELL_CONFIGS_SHA256 = "df24e048874bedccb72f289b9d4fb060f3b6869b25b059e7ed2612da4c502b68"


def test_cell_configs_to_twelve_children_are_unchanged():
    digest = hashlib.sha256()
    for k in range(13):
        for lower in (1, -1):
            digest.update(repr(enumerate_cell_configs(k, lower)).encode())
    assert digest.hexdigest() == CELL_CONFIGS_SHA256


# The same digest for k = 13..18, the cell sizes the benchmark's seeded
# code generator draws; computed by the loops over entry, first and last
# that stated the rule before the automaton did.
LARGE_CELL_CONFIGS_SHA256 = "4f2374fa3c7003988e8b67f6dcc81a27f99ebaea19e2b7f1fd0fdeffcd51f4c3"


def test_cell_configs_from_thirteen_to_eighteen_children_are_unchanged():
    digest = hashlib.sha256()
    for k in range(13, 19):
        for lower in (1, -1):
            digest.update(repr(enumerate_cell_configs(k, lower)).encode())
    assert digest.hexdigest() == LARGE_CELL_CONFIGS_SHA256


def _automaton_paths(node, k):
    """Every sequence of k (overline, prime) options from ``node``, in the
    order the walk takes them."""
    if k == 0:
        return [()]
    return [
        ((overline, prime),) + rest
        for overline, prime, _color, nxt in node
        for rest in _automaton_paths(nxt, k - 1)
    ]


@pytest.mark.parametrize("color", [BLACK, RED])
@pytest.mark.parametrize("k", range(9))
def test_cell_automaton_reads_the_oracle_configs_in_token_order(k, color):
    expected = sorted(
        tuple(zip([c == RED for c in dec.child_colors], dec.child_primes))
        for dec in oracle_cell_configs(k, color)
    )
    assert _automaton_paths(CELL_AUTOMATON[color], k) == expected


@pytest.mark.parametrize("color", [BLACK, RED])
def test_cell_automaton_has_three_states(color):
    seen = {}
    todo = [CELL_AUTOMATON[color]]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            assert node, "every state has an option"
            for overline, prime, child_color, nxt in node:
                assert child_color == (RED if overline else BLACK)
                todo.append(nxt)
    assert len(seen) == 3


# ---------------------------------------------------------------------------
# Decorated graphs


def test_graph_validates_decoration_shape():
    tree = PlaneRootedTree.from_up_degrees((1, 0))
    DistinguishedGraph(tree=tree, colors=(BLACK, RED), primes=(False, True))
    with pytest.raises(ValueError):
        DistinguishedGraph(tree=tree, colors=(BLACK,), primes=(False, False))
    with pytest.raises(ValueError):
        DistinguishedGraph(tree=tree, colors=(BLACK, 0), primes=(False, False))
    with pytest.raises(ValueError):
        DistinguishedGraph(tree=tree, colors=(RED, BLACK), primes=(False, False))
    with pytest.raises(ValueError):
        DistinguishedGraph(tree=tree, colors=(BLACK, BLACK), primes=(True, False))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=4), st.data())
def test_boundary_length_is_degree_plus_one(n, data):
    from diskflows.enumeration import enumerate_flows

    code = data.draw(st.sampled_from(enumerate_flows(n)))
    graph = code_to_graph(code)
    for vertex, kids in enumerate(graph.tree.children):
        sides = boundary_directions(graph, vertex)
        assert len(sides) == len(kids) + 1
