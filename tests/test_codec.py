"""Code grammar, the two validation tiers, and the converter round trips."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskflows import codec
from diskflows.codec import (
    MAX_TOKEN_VALUE,
    Code,
    CodeSyntaxError,
    CodeToken,
    are_equivalent,
    cached_token,
    check_admissible,
    check_realizable,
    code_to_graph,
    graph_from_json,
    graph_to_code,
    graph_to_json,
    parse_code,
    serialize_code,
)
from diskflows.enumeration import enumerate_flows, plane_trees
from diskflows.model import (
    BLACK,
    RED,
    DistinguishedGraph,
    PlaneRootedTree,
    enumerate_cell_configs,
)


def tokens_of(text: str) -> list[tuple[int, bool, bool]]:
    code = parse_code(text)
    return [(t.value, t.overline, t.prime) for t in code.tokens]


# ---------------------------------------------------------------------------
# Parsing


def test_parse_compact_reads_marks_after_each_digit():
    assert tokens_of("2100~") == [
        (2, False, False),
        (1, False, False),
        (0, False, False),
        (0, True, False),
    ]


def test_parse_compact_orders_overline_before_prime():
    assert tokens_of("20~'0~") == [
        (2, False, False),
        (0, True, True),
        (0, True, False),
    ]


def test_parse_spaced_allows_multidigit_values():
    text = "10 " + " ".join(["0"] * 10)
    code = parse_code(text)
    assert code.tokens[0].value == 10
    assert code.n == 10


def test_parse_spaced_and_compact_agree_on_single_digits():
    assert parse_code("1 1~' 0") == parse_code("11~'0")


def test_parse_strips_surrounding_whitespace():
    assert parse_code("  2100~\n") == parse_code("2100~")


def test_code_str_round_trips_through_parse():
    for text in ["0", "10~'", "2100~", "3 0 0~ 0"]:
        code = parse_code(text)
        assert parse_code(str(code)) == code


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "abc",
        "1a0",
        "~10",
        "'10",
        "0~",
        "0'",
        "10'~",
        "2100~~",
        "2100''",
        "1  0",
        "1\t0",
        "1\n0",
        "10 0x",
        "١0",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(CodeSyntaxError):
        parse_code(text)


def test_parse_rejects_marks_on_first_token():
    with pytest.raises(CodeSyntaxError):
        parse_code("1~0")
    with pytest.raises(CodeSyntaxError):
        parse_code("1' 0")


def test_parse_enforces_value_bound():
    code = parse_code(f"1 {MAX_TOKEN_VALUE}")
    assert code.tokens[1].value == MAX_TOKEN_VALUE
    with pytest.raises(CodeSyntaxError):
        parse_code(f"1 {MAX_TOKEN_VALUE + 1}")


def test_token_constructor_enforces_bounds():
    with pytest.raises(ValueError):
        CodeToken(-1)
    with pytest.raises(ValueError):
        CodeToken(MAX_TOKEN_VALUE + 1)
    with pytest.raises(ValueError):
        Code(())


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_compact_when_all_values_are_single_digits():
    assert serialize_code(parse_code("3 0 0~ 0")) == "300~0"
    assert serialize_code(parse_code("20~'0~")) == "20~'0~"


def test_serialize_spaced_when_any_value_needs_two_digits():
    code = Code((CodeToken(10),) + (CodeToken(0),) * 10)
    assert serialize_code(code) == "10 0 0 0 0 0 0 0 0 0 0"
    assert parse_code(serialize_code(code)) == code


first_tokens = st.integers(min_value=0, max_value=30).map(CodeToken)
rest_tokens = st.builds(
    CodeToken,
    value=st.integers(min_value=0, max_value=30),
    overline=st.booleans(),
    prime=st.booleans(),
)
# a lone token only round-trips for single-digit values ("10" reads as two
# compact tokens), and a lone multi-digit token is never a well-formed tree
codes = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda v: Code((CodeToken(v),))),
    st.builds(
        lambda head, first, rest: Code((head, first, *rest)),
        first_tokens,
        rest_tokens,
        st.lists(rest_tokens, max_size=7),
    ),
)


@given(codes)
def test_serialize_parse_round_trip(code):
    assert parse_code(serialize_code(code)) == code


def test_lone_multidigit_token_reads_back_as_compact_digits():
    text = serialize_code(Code((CodeToken(12),)))
    assert text == "12"
    assert tokens_of(text) == [(1, False, False), (2, False, False)]


def test_token_digits_are_bounded_before_conversion():
    # Past 4300 digits int() itself raises a plain ValueError.
    assert parse_code("0" * 5000 + "1 0") == parse_code("1 0")
    assert parse_code("0" * 20 + "4294967295 0").tokens[0].value == 4294967295
    for digits in ("1" * 11, "9" * 5000, "0" * 5000 + "4294967296"):
        with pytest.raises(CodeSyntaxError, match="out of range"):
            parse_code(digits + " 0")


@given(st.text(max_size=12))
def test_parse_never_raises_anything_but_syntax_errors(text):
    try:
        parse_code(text)
    except CodeSyntaxError:
        pass


# ---------------------------------------------------------------------------
# Necessary properties (tier one)


def test_admissible_code_passes_all_four_checks():
    report = check_admissible(parse_code("2100~"))
    assert report.passed
    assert report.failing == ()
    assert all(c.passed for c in report.checks)


def test_length_check_flags_surplus_token():
    report = check_admissible(parse_code("1 0 0"))
    assert report.failing == (1,)
    assert report.checks[0].token_index == 2


def test_first_token_marks_checked_on_directly_built_codes():
    code = Code((CodeToken(1, overline=True), CodeToken(0)))
    report = check_admissible(code)
    assert 2 in report.failing


def test_prefix_sum_check_reports_first_shortfall():
    report = check_admissible(parse_code("01"))
    assert report.failing == (3,)
    check = report.checks[2]
    assert check.token_index == 1
    assert "needs >= 1" in check.detail


def test_prime_group_checks():
    # a mark whose siblings disagree on overlines
    assert check_admissible(parse_code("2 0~' 0")).failing == (4,)
    # parent must carry the opposite overline state
    report = check_admissible(parse_code("2 0' 0"))
    assert report.failing == (4,)
    assert "opposite overline" in report.checks[3].detail
    # two marks in one sibling group
    assert check_admissible(parse_code("20~'0~'")).failing == (4,)
    # the well-formed variant passes
    assert check_admissible(parse_code("20~'0~")).passed


def test_prime_group_check_skipped_when_tree_is_undecodable():
    report = check_admissible(parse_code("0 0'"))
    assert not report.passed
    assert report.checks[3].passed
    assert "not evaluated" in report.checks[3].detail


@pytest.mark.parametrize("text", ["2 0'", "4294967295 0'"])
def test_sibling_blocks_are_not_read_when_values_overrun_the_code(text):
    # The root claims more children than there are tokens; reading its
    # block would index past the end, or loop over the claimed value.
    report = check_realizable(parse_code(text))
    assert report.admissible.failing == (1,)
    assert "not evaluated" in report.admissible.checks[3].detail


@pytest.mark.parametrize(
    "text", ["2100~", "300~0", "1 0 0", "0 0'", "2 0~' 0", "20~'0~'", "20~'0~", "1 1"]
)
def test_admissibility_is_the_first_part_of_the_one_scan(text):
    code = parse_code(text)
    report = check_admissible(code)
    assert report == check_realizable(code).admissible
    # The verdict is stored with the report, not recomputed on each read.
    assert vars(report)["passed"] == all(c.passed for c in report.checks)


# ---------------------------------------------------------------------------
# Realizability (tier two)


def test_realizable_accepts_known_codes():
    for text in ["0", "10~'", "2100~", "1 1~ 0'", "20~'0~"]:
        verdict = check_realizable(parse_code(text))
        assert verdict.realizable, text
        assert verdict.admissible.passed


def test_realizable_rejects_double_source_cell():
    verdict = check_realizable(parse_code("300~0"))
    assert verdict.admissible.passed
    assert not verdict.realizable
    assert verdict.offending_vertex == 0
    assert verdict.offending_boundary == (1, -1, 1, -1)
    assert "source corners" in verdict.detail


def test_realizable_requires_admissibility_first():
    verdict = check_realizable(parse_code("1 0 0"))
    assert not verdict.realizable
    assert not verdict.admissible.passed
    assert verdict.offending_vertex is None


def fits_every_cell(graph: DistinguishedGraph) -> bool:
    """The per-cell rule: each cell's child decorations are those of one
    of its configurations."""
    for v, kids in enumerate(graph.tree.children):
        allowed = {
            (dec.child_colors, dec.child_primes)
            for dec in enumerate_cell_configs(len(kids), graph.colors[v])
        }
        decoration = (
            tuple(graph.colors[c] for c in kids),
            tuple(graph.primes[c] for c in kids),
        )
        if decoration not in allowed:
            return False
    return True


def test_realizable_is_per_cell_membership():
    for n in range(5):
        for tree in plane_trees(n):
            for marks in itertools.product(
                itertools.product((False, True), repeat=2), repeat=n
            ):
                colors = (1,) + tuple(RED if o else BLACK for o, _ in marks)
                primes = (False,) + tuple(p for _, p in marks)
                graph = DistinguishedGraph(tree, colors, primes)
                code = graph_to_code(graph)
                assert check_realizable(code).realizable == fits_every_cell(graph), code


def test_every_enumerated_code_is_realizable():
    for n in range(5):
        for code in enumerate_flows(n):
            assert check_realizable(code).realizable


def decorated(values, marks: int) -> Code:
    """The code with these values whose token i, the first one too,
    carries bit 2i of ``marks`` as its overline and bit 2i+1 as its
    prime."""
    bits = [bool(marks >> i & 1) for i in range(2 * len(values))]
    return Code(tuple(map(CodeToken, values, bits[::2], bits[1::2])))


# Built directly, so the first token may be marked too.  Short value
# lists mostly fail properties 1 to 3; the up-degrees of plane trees
# reach the prime-group faults and the multi-source cells.
short_values = [v for k in range(1, 5) for v in itertools.product(range(3), repeat=k)]
tree_values = [[len(c) for c in t.children] for n in range(4) for t in plane_trees(n)]
short_codes = st.builds(
    decorated,
    st.one_of(st.sampled_from(short_values), st.sampled_from(tree_values)),
    st.integers(min_value=0, max_value=4**4 - 1),
)


@settings(max_examples=200)
@given(st.lists(short_codes, min_size=20, max_size=60))
def test_shared_reports_equal_freshly_built_ones(codes):
    # The reports are memoized on the scan's findings: a report served
    # from a warm cache must read the same as one built after clearing
    # it, or some finding that the report shows is missing from the key.
    warm = [repr(check_realizable(code)) for code in codes]
    for code, expected in zip(codes, warm):
        codec._render.cache_clear()
        assert repr(check_realizable(code)) == expected


# ---------------------------------------------------------------------------
# Code / graph conversion


def test_code_to_graph_reads_level_order():
    graph = code_to_graph(parse_code("2100~"))
    assert graph.tree.children == ((1, 2), (3,), (), ())
    assert graph.colors == (1, 1, 1, -1)
    assert graph.primes == (False, False, False, False)


def test_code_to_graph_rejects_inadmissible_codes():
    with pytest.raises(ValueError):
        code_to_graph(parse_code("01"))
    with pytest.raises(ValueError):
        code_to_graph(parse_code("1 0 0"))


def test_graph_to_code_inverts_code_to_graph():
    for n in range(5):
        for code in enumerate_flows(n):
            assert graph_to_code(code_to_graph(code)) == code


def test_token_cache_stays_bounded():
    for leaves in range(1, 2001):
        tree = PlaneRootedTree.from_up_degrees((leaves,) + (0,) * leaves)
        graph = DistinguishedGraph(tree, (1,) * (leaves + 1), (False,) * (leaves + 1))
        assert graph_to_code(graph).tokens[0].value == leaves
    assert cached_token.cache_info().currsize <= 1024


def tree_strategy(max_n=6):
    def grow(degrees):
        total = sum(degrees)
        placed = len(degrees)
        if placed == total + 1:
            return st.just(tuple(degrees))
        top = min(max_n - total, max_n)
        return st.integers(min_value=0, max_value=max(top, 0)).flatmap(
            lambda d: grow(degrees + [d])
        )

    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda d: grow([d])
    )


@settings(max_examples=80)
@given(tree_strategy(), st.data())
def test_graph_code_round_trip_on_arbitrary_decorations(degrees, data):
    tree = PlaneRootedTree.from_up_degrees(degrees)
    count = tree.vertex_count
    colors = (1,) + tuple(
        data.draw(st.sampled_from((1, -1))) for _ in range(count - 1)
    )
    primes = (False,) + tuple(
        data.draw(st.booleans()) for _ in range(count - 1)
    )
    graph = DistinguishedGraph(tree=tree, colors=colors, primes=primes)
    assert code_to_graph(graph_to_code(graph)) == graph


# ---------------------------------------------------------------------------
# Equivalence


def test_equivalence_is_code_equality():
    a = parse_code("2100~")
    assert are_equivalent(a, parse_code("2 1 0 0~"))
    assert not are_equivalent(a, parse_code("2100"))


def test_equivalence_refuses_unrealizable_input():
    with pytest.raises(ValueError):
        are_equivalent(parse_code("300~0"), parse_code("2100~"))


# ---------------------------------------------------------------------------
# JSON interchange


def test_graph_json_document_shape():
    doc = graph_to_json(code_to_graph(parse_code("2100~")))
    assert doc == {
        "separatrices": 3,
        "vertices": [
            {"id": 0, "parent": None, "children": [1, 2], "color": None, "prime": False},
            {"id": 1, "parent": 0, "children": [3], "color": 1, "prime": False},
            {"id": 2, "parent": 0, "children": [], "color": 1, "prime": False},
            {"id": 3, "parent": 1, "children": [], "color": -1, "prime": False},
        ],
    }
    assert json.loads(json.dumps(doc)) == doc


def test_graph_json_round_trip():
    for n in range(4):
        for code in enumerate_flows(n):
            graph = code_to_graph(code)
            assert graph_from_json(graph_to_json(graph)) == graph


def test_graph_from_json_validates_the_document():
    good = graph_to_json(code_to_graph(parse_code("10~'")))
    for mutate in [
        lambda d: d.pop("separatrices"),
        lambda d: d.update(separatrices=5),
        lambda d: d["vertices"][1].update(color=0),
        lambda d: d["vertices"][0].update(color=1),
        lambda d: d["vertices"][1].update(parent=None),
        lambda d: d["vertices"][0].update(children=[]),
        lambda d: d["vertices"].reverse(),
        lambda d: d["vertices"][0].update(prime=True),
    ]:
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            graph_from_json(doc)
