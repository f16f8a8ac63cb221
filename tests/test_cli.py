"""Command-line interface: exit codes, report text, file handling."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from diskflows.cli import (
    COUNT_MAX_N,
    ENUM_CHUNK,
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_UNREALIZABLE,
    EXIT_USAGE,
    main,
)
from diskflows.enumeration import codes_to_text, enumerate_flows


def run(capsys, *argv: str):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_realizable_code(capsys):
    rc, out, err = run(capsys, "validate", "2100~")
    assert rc == EXIT_OK == 0
    assert err == ""
    assert out == (
        "code: 2100~\n"
        "admissible: PASS\n"
        "  property 1 (length): PASS\n"
        "  property 2 (first token marks): PASS\n"
        "  property 3 (prefix sums): PASS\n"
        "  property 4 (prime groups): PASS\n"
        "realizable: PASS\n"
    )


def test_validate_admissible_but_unrealizable(capsys):
    rc, out, _ = run(capsys, "validate", "300~0")
    assert rc == EXIT_UNREALIZABLE == 3
    assert "admissible: PASS" in out
    assert (
        "realizable: FAIL (cell at vertex 0 has 2 source corners;"
        " boundary [+1, -1, +1, -1])" in out
    )


def test_validate_inadmissible(capsys):
    rc, out, _ = run(capsys, "validate", "1 0 0")
    assert rc == EXIT_INADMISSIBLE == 2
    assert "admissible: FAIL" in out
    assert "property 1 (length): FAIL at token 2" in out
    assert "realizable: FAIL (not admissible)" in out


def test_validate_parse_error(capsys):
    rc, out, err = run(capsys, "validate", "0~")
    assert rc == EXIT_USAGE == 1
    assert out == ""
    assert err.startswith("error: bad code:")


# ---------------------------------------------------------------------------
# decode / encode


def test_decode_emits_json(capsys):
    rc, out, _ = run(capsys, "decode", "10~'")
    assert rc == 0
    doc = json.loads(out)
    assert doc["separatrices"] == 1
    assert doc["vertices"][1] == {
        "id": 1,
        "parent": 0,
        "children": [],
        "color": -1,
        "prime": True,
    }


def test_decode_rejects_inadmissible(capsys):
    rc, _, err = run(capsys, "decode", "01")
    assert rc == 1
    assert "error:" in err


def test_encode_reads_json_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "decode", "20~0~'")
    path = tmp_path / "graph.json"
    path.write_text(out)
    rc, out2, _ = run(capsys, "encode", str(path))
    assert rc == 0
    assert out2 == "20~0~'\n"


def test_encode_reads_stdin(tmp_path, capsys, monkeypatch):
    rc, out, _ = run(capsys, "decode", "110~")
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(out))
    rc, out2, _ = run(capsys, "encode", "-")
    assert rc == 0
    assert out2 == "110~\n"


def test_encode_rejects_bad_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"separatrices": 1}')
    rc, _, err = run(capsys, "encode", str(path))
    assert rc == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# enum


def test_enum_lists_codes(capsys):
    rc, out, _ = run(capsys, "enum", "--n", "1")
    assert rc == 0
    assert out == "10\n10~\n10~'\n"


def test_enum_count_only(capsys):
    rc, out, _ = run(capsys, "enum", "--n", "3", "--count-only")
    assert rc == 0
    assert out == "91\n"


def test_enum_count_only_ignores_the_listing_cap(capsys):
    rc, out, _ = run(capsys, "enum", "--n", "500", "--count-only")
    assert rc == 0
    assert out == f"{math.comb(2002, 500) // 501}\n"


def test_enum_count_only_bounds_the_digits(capsys):
    rc, out, _ = run(capsys, "enum", "--n", str(COUNT_MAX_N), "--count-only")
    assert rc == 0
    assert len(out) <= 4301
    rc, _, err = run(capsys, "enum", "--n", str(COUNT_MAX_N + 1), "--count-only")
    assert rc == 1
    assert f"up to {COUNT_MAX_N}" in err


def test_enum_streams_to_stdout_across_chunks(capsys):
    rc, out, _ = run(capsys, "enum", "--n", "5")
    assert rc == 0
    assert out == codes_to_text(enumerate_flows(5))
    assert len(out.splitlines()) == 4389 > ENUM_CHUNK


def test_enum_writes_file(tmp_path, capsys):
    target = tmp_path / "codes.txt"
    rc, out, _ = run(capsys, "enum", "--n", "2", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text().splitlines()[:2] == ["110", "110~"]
    assert len(target.read_text().splitlines()) == 15


def test_enum_enforces_cap(capsys):
    rc, _, err = run(capsys, "enum", "--n", "11")
    assert rc == 1
    assert "cap" in err
    rc, out, _ = run(capsys, "enum", "--n", "11", "--count-only", "--cap", "11")
    assert rc == 0
    assert out == "1111731933\n"


def test_enum_rejects_negative(capsys):
    rc, _, err = run(capsys, "enum", "--n", "-1")
    assert rc == 1


# ---------------------------------------------------------------------------
# table


def test_table_prints_csv(capsys):
    rc, out, _ = run(capsys, "table", "--max-n", "1")
    assert rc == 0
    assert out == (
        "n,abstract_tree,flows_per_embedding,embeddings,total\n"
        "0,0,1,1,1\n"
        "1,10,3,1,3\n"
    )


def test_table_writes_csv_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "table", "--max-n", "2", "--csv", str(target))
    assert rc == 0
    assert out == ""
    assert "2,200,6,1,6" in target.read_text()


# ---------------------------------------------------------------------------
# render


def test_render_tree_to_stdout(capsys):
    rc, out, _ = run(capsys, "render", "2100~", "--view", "tree")
    assert rc == 0
    assert out.startswith("digraph flow_code {")


def test_render_diagram_to_file(tmp_path, capsys):
    target = tmp_path / "flow.svg"
    rc, out, _ = run(
        capsys, "render", "20~0~'", "--view", "diagram", "--out", str(target)
    )
    assert rc == 0
    text = target.read_text()
    assert text.count('class="loop"') == 2


def test_render_diagram_requires_realizable_code(capsys):
    rc, _, err = run(capsys, "render", "300~0", "--view", "diagram")
    assert rc == 1
    assert "error:" in err


def test_render_tree_accepts_unrealizable_code(capsys):
    rc, out, _ = run(capsys, "render", "300~0", "--view", "tree")
    assert rc == 0
    assert out.count("->") == 3


# ---------------------------------------------------------------------------
# oracle


def test_oracle_text_report(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "2")
    assert rc == 0
    assert "agreement: yes" in out
    assert "fast count: 15" in out


def test_oracle_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, _, _ = run(capsys, "oracle", "--n", "3", "--json", str(target))
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc == {
        "n": 3,
        "fast_count": 91,
        "oracle_count": 91,
        "admissible_only_count": 1,
        "witnesses": ["300~0"],
    }


def test_oracle_respects_bound(capsys):
    rc, _, err = run(capsys, "oracle", "--n", "6")
    assert rc == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1
    assert err != ""


def test_missing_argument(capsys):
    rc, _, err = run(capsys, "validate")
    assert rc == 1


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "diskflows.cli", "validate", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "realizable: PASS" in proc.stdout
