"""Graphviz and SVG output: structure over pixels."""

from __future__ import annotations

import hashlib
import itertools
import random
import re
import xml.etree.ElementTree as ET

import pytest

from diskflows.cli import main
from diskflows.codec import code_to_graph, parse_code
from diskflows.enumeration import enumerate_flows, iter_flows
from diskflows.model import CellKind, boundary_directions, classify_cell
from diskflows.render import INDENT_DEPTH, diagram_to_svg, tree_to_dot

SVG_NS = "{http://www.w3.org/2000/svg}"


def graph_of(text: str):
    return code_to_graph(parse_code(text))


def loop_parents(svg: str) -> dict[int, int | None]:
    """Map loop vertex id to the enclosing loop's vertex id (None at top)."""
    found: dict[int, int | None] = {}

    def walk(element, parent):
        if element.tag == SVG_NS + "g" and element.get("class") == "loop":
            vertex = int(element.get("data-vertex"))
            found[vertex] = parent
            parent = vertex
        for child in element:
            walk(child, parent)

    walk(ET.fromstring(svg), None)
    return found


def cyclic_cells(graph) -> set[int]:
    return {
        v
        for v in range(graph.tree.vertex_count)
        if classify_cell(boundary_directions(graph, v)) is CellKind.CYCLIC
    }


# ---------------------------------------------------------------------------
# Graphviz view


def test_dot_single_vertex():
    dot = tree_to_dot(graph_of("0"))
    assert "digraph flow_code {" in dot
    assert "ordering=out;" in dot
    assert '0 [shape=doublecircle, label="0"];' in dot
    assert "->" not in dot


def test_dot_colors_follow_overlines():
    dot = tree_to_dot(graph_of("2100~"))
    assert dot.count("->") == 3
    assert "0 -> 1 [color=black];" in dot
    assert "0 -> 2 [color=black];" in dot
    assert "1 -> 3 [color=red];" in dot


def test_dot_marks_primed_edges_with_a_label():
    dot = tree_to_dot(graph_of("110~'"))
    assert "1 -> 2 [color=red, label=\"'\", fontcolor=red];" in dot


def test_dot_preserves_child_order():
    dot = tree_to_dot(graph_of("2100~"))
    assert dot.index("0 -> 1") < dot.index("0 -> 2")


def test_dot_renders_unrealizable_trees_too():
    dot = tree_to_dot(graph_of("300~0"))
    assert dot.count("->") == 3


# ---------------------------------------------------------------------------
# Flow diagram view


def test_svg_structural_counts_for_known_codes():
    cases = {
        "0": (0, 0, 0, 1),
        "10~'": (1, 0, 1, 2),
        "2100~": (3, 2, 1, 3),
        "20~0~'": (2, 0, 2, 3),
    }
    for text, (loops, forward, reversed_, dots) in cases.items():
        svg = diagram_to_svg(graph_of(text))
        assert svg.count('class="loop"') == loops, text
        assert svg.count('class="arrow forward"') == forward, text
        assert svg.count('class="arrow reversed"') == reversed_, text
        assert svg.count("elliptic-dot") == dots, text


def test_svg_is_well_formed_xml_and_deterministic():
    graph = graph_of("2100~")
    svg = diagram_to_svg(graph)
    ET.fromstring(svg)
    assert svg == diagram_to_svg(graph)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')


def test_svg_group_nesting_mirrors_the_tree():
    graph = graph_of("2100~")
    parents = loop_parents(diagram_to_svg(graph))
    assert parents == {1: None, 2: None, 3: 1}


def test_svg_refuses_unrealizable_graphs():
    with pytest.raises(ValueError):
        diagram_to_svg(graph_of("300~0"))


def test_svg_coordinates_are_rounded():
    svg = diagram_to_svg(graph_of("110~"))
    for number in re.findall(r'[d cxy]="([-0-9. L CZM]+)"', svg):
        for field in re.findall(r"-?\d+\.\d+", number):
            whole, frac = field.split(".")
            assert len(frac) == 2, svg


def test_svg_invariants_on_sampled_codes():
    rng = random.Random(20260815)
    pool = [code for n in range(5) for code in enumerate_flows(n)]
    for code in rng.sample(pool, 40):
        graph = code_to_graph(code)
        svg = diagram_to_svg(graph)
        n = graph.tree.separatrix_count
        overlines = sum(1 for c in graph.colors[1:] if c == -1)
        assert svg.count('class="loop"') == n
        assert svg.count('class="arrow reversed"') == overlines
        assert svg.count('class="arrow forward"') == n - overlines
        assert svg.count("elliptic-dot") == len(cyclic_cells(graph))
        parents = loop_parents(svg)
        tree_parents = graph.tree.parents()
        assert set(parents) == set(range(1, graph.tree.vertex_count))
        for vertex, parent in parents.items():
            expected = tree_parents[vertex]
            assert parent == (None if expected == 0 else expected)


def test_svg_of_every_small_code_is_unchanged():
    digest = hashlib.sha256()
    for n in range(5):
        for code in enumerate_flows(n):
            digest.update(diagram_to_svg(code_to_graph(code)).encode())
    assert digest.hexdigest() == (
        "6c27733b1adf03a63d09da805a82e0d3dbee16a76256674ba1969fc85ee35dfe"
    )


def test_dot_of_every_small_code_is_unchanged():
    digest = hashlib.sha256()
    for n in range(5):
        for code in enumerate_flows(n):
            digest.update(tree_to_dot(code_to_graph(code)).encode())
    assert digest.hexdigest() == (
        "929d778ba99715db56ddde17823fc75446e1ee24731f3309f26b3747c8677587"
    )


def test_svg_and_dot_of_sampled_larger_codes_are_unchanged():
    """Every 1000th code at n = 7, a path deeper than INDENT_DEPTH and a
    spaced code, hashed per view."""
    codes = list(itertools.islice(iter_flows(7), 0, None, 1000))
    codes.append(parse_code("1" * 30 + "0"))
    codes.append(parse_code("10 0 0 0 0 0 0 0 0 0 0"))
    assert len(codes) == 257
    svg_digest, dot_digest = hashlib.sha256(), hashlib.sha256()
    for code in codes:
        graph = code_to_graph(code)
        svg_digest.update(diagram_to_svg(graph).encode())
        dot_digest.update(tree_to_dot(graph).encode())
    assert svg_digest.hexdigest() == (
        "48a61f6b5c7f5ac38f976dba922bdc497312118a1f3e6e3211d4976d506b0ce8"
    )
    assert dot_digest.hexdigest() == (
        "574363610b9ee59715b100626d8d355c1e3ca9dd947b0c24f2a1924c09468eef"
    )


def test_svg_of_a_deep_path_renders_without_recursion(tmp_path, capsys):
    depth = 1200
    path = tmp_path / "deep.svg"
    rc = main(["render", "1" * depth + "0", "--view", "diagram", "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    svg = path.read_text()
    assert svg.count('<g class="loop"') == svg.count("</g>") == depth
    assert f'\n{"  " * (INDENT_DEPTH + 1)}<g class="loop" data-vertex="{depth}"' in svg
    assert svg.endswith("</svg>\n")
