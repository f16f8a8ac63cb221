"""Command-line interface: exit codes, report text, file handling."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskflows import cli, codec, model, oracle
from diskflows.cli import (
    COUNT_MAX_N,
    ENUM_CHUNK,
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_UNREALIZABLE,
    EXIT_USAGE,
    main,
)
from diskflows.codec import Code, CodeToken, serialize_code
from diskflows.enumeration import codes_to_text, enumerate_flows
from diskflows.model import BLACK, RED, enumerate_cell_configs


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


GRAPH_OF_10 = {
    "separatrices": 1,
    "vertices": [
        {"id": 0, "parent": None, "children": [1], "color": None, "prime": False},
        {"id": 1, "parent": 0, "children": [], "color": 1, "prime": False},
    ],
}

# JSON true/false in place of each integer of GRAPH_OF_10 equal to it.
BOOLEAN_FOR_INTEGER = {
    "id": lambda d: d["vertices"][1].update(id=True),
    "parent": lambda d: d["vertices"][1].update(parent=False),
    "children": lambda d: d["vertices"][0].update(children=[True]),
    "color": lambda d: d["vertices"][1].update(color=True),
    "separatrices": lambda d: d.update(separatrices=True),
}


@pytest.mark.parametrize("where", sorted(BOOLEAN_FOR_INTEGER))
def test_encode_rejects_booleans_for_integers(where, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(GRAPH_OF_10))
    assert run(capsys, "encode", str(path)) == (EXIT_OK, "10\n", "")
    doc = json.loads(json.dumps(GRAPH_OF_10))
    BOOLEAN_FOR_INTEGER[where](doc)
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "encode", str(path))
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("vertex", [0, 1])
@pytest.mark.parametrize("prime", ["no", 1, 0, None], ids=repr)
def test_encode_rejects_non_booleans_for_prime(vertex, prime, tmp_path, capsys):
    doc = json.loads(json.dumps(GRAPH_OF_10))
    doc["vertices"][vertex]["prime"] = prime
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "encode", str(path))
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


# Consecutive child blocks that cover every vertex, but a vertex is its
# own child: no tree, although the parents agree with the child lists.
SELF_CHILD_DOCS = {
    "two vertices": {
        "separatrices": 1,
        "vertices": [
            {"id": 0, "parent": None, "children": [], "color": None, "prime": False},
            {"id": 1, "parent": 1, "children": [1], "color": 1, "prime": False},
        ],
    },
    "three vertices": {
        "separatrices": 2,
        "vertices": [
            {"id": 0, "parent": None, "children": [1], "color": None, "prime": False},
            {"id": 1, "parent": 0, "children": [], "color": 1, "prime": False},
            {"id": 2, "parent": 2, "children": [2], "color": 1, "prime": False},
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SELF_CHILD_DOCS))
def test_encode_rejects_a_vertex_that_is_its_own_child(name, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(SELF_CHILD_DOCS[name]))
    rc, out, err = run(capsys, "encode", str(path))
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "decode", "render"])
def test_a_token_of_thousands_of_digits_is_a_syntax_error(command, capsys):
    rc, out, err = run(capsys, command, "9" * 5000 + " 0")
    assert rc == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: bad code: token value of 5000 digits")


def test_leading_zeros_do_not_count_against_the_digit_limit(capsys):
    rc, out, err = run(capsys, "validate", "0" * 5000 + "1 0")
    assert rc == EXIT_OK
    assert out.startswith("code: 10\n")


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000 + "]" * 200_000, '{"separatrices": ' + "9" * 5000 + "}"],
    ids=["deep nesting", "huge int"],
)
def test_encode_reports_unreadable_json_without_a_traceback(text, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "diskflows.cli", "encode", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: invalid JSON: ")
    assert "Traceback" not in proc.stderr


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ("decode", "4294967295 0"),
        ("decode", "100000000 0"),
        ("render", "4294967295 0", "--view", "tree"),
        ("render", "4294967295 0", "--view", "diagram"),
    ],
    ids=" ".join,
)
def test_decode_and_render_are_bounded_by_the_code_length(argv):
    # A separate process under a 1.5 GB address limit, so that a
    # value-sized allocation fails there instead of in the test run.
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diskflows.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_svg_of_a_deep_code_grows_linearly(tmp_path):
    # Nested loops indent once per level, up to a fixed depth; indenting
    # every level would make this drawing about 1.6 GB.  A separate process
    # under a 1.5 GB address limit, as above.
    depth = 20_000
    path = tmp_path / "deep.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "diskflows.cli", "render", "1" * depth + "0",
         "--view", "diagram", "--out", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert path.stat().st_size < 1024 * depth


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


def test_enum_streams_to_stdout_across_chunks(capsys, monkeypatch):
    # n = 5 has 369 blocks of code texts, one per walk prefix: several
    # full chunks and a partial last one.
    writes = []

    def recording(blocks):
        writes.append(len(blocks))
        return codes_to_text(blocks)

    monkeypatch.setattr(cli, "codes_to_text", recording)
    rc, out, _ = run(capsys, "enum", "--n", "5")
    assert rc == 0
    assert out == codes_to_text(enumerate_flows(5))
    assert len(out.splitlines()) == 4389
    full, last = divmod(369, ENUM_CHUNK)
    assert full > 1 and last
    assert writes == [ENUM_CHUNK] * full + [last]


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


def test_enum_lists_up_to_nine_loops_unless_the_cap_is_raised(tmp_path, capsys, monkeypatch):
    target = tmp_path / "codes.txt"
    rc, out, err = run(capsys, "enum", "--n", "10", "--out", str(target))
    assert rc == 1
    assert out == ""
    assert err == "error: n=10 exceeds the cap 9; raise it with --cap\n"
    assert not target.exists()
    # n = 10 lists 133,767,543 codes; the first block of the stream, the
    # nine codes of its first prefix, shows that --cap 10 lets the listing
    # start.
    blocks = cli.iter_code_blocks
    monkeypatch.setattr(cli, "iter_code_blocks", lambda n: itertools.islice(blocks(n), 1))
    rc, out, _ = run(capsys, "enum", "--n", "10", "--cap", "10")
    assert rc == 0
    assert out.splitlines() == [
        "11111111110", "11111111110~", "11111111110~'",
        "1111111111~0", "1111111111~0'", "1111111111~0~",
        "1111111111~'0", "1111111111~'0'", "1111111111~'0~",
    ]


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_enum_ends_quietly_when_the_reader_leaves(buffered):
    # The reader takes two of the 2,017,356 lines of n = 8 and closes
    # the pipe, as ``enum --n 8 | head -2`` does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "diskflows.cli", "enum", "--n", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert lines == [b"111111110\n", b"111111110~\n"]
    assert err == b""


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_output_to_a_closed_pipe_fails_quietly(buffered):
    # The reader is gone before ``validate`` prints its short report,
    # which a buffered stdout writes only when it is flushed.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diskflows.cli", "validate", "2100~"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == b""


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


def test_oracle_bound_error_names_the_flag(capsys):
    rc, _, err = run(capsys, "oracle", "--n", "6")
    assert rc == 1
    assert err == "error: oracle bound exceeded: n=6 > 5; raise it with --bound\n"


@pytest.mark.parametrize(
    "n, tries", [(8, 30_764_800), (9, 353_633_280), (10, 4_128_783_360)], ids=str
)
def test_oracle_refuses_more_candidates_than_at_seven_loops(n, tries, capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "oracle", "--n", str(n), "--bound", str(n))
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert out == ""
    assert err == (
        f"error: oracle at n={n} would try {tries} candidates, more than the 2728704 at n=7\n"
    )


@pytest.mark.parametrize(
    "argv", [("table", "--max-n", "11"), ("oracle", "--n", "11", "--bound", "11")], ids=" ".join
)
def test_commands_without_a_cap_flag_do_not_offer_one(argv, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: n=11 exceeds the cap 10; {argv[0]} stops there\n"
    assert "--cap" not in err


# sha256 of `oracle --n 5` stdout and of its --json file.
ORACLE_N5_TEXT_SHA256 = "ea429687eb5a31ae410930705e6defbadb935b055982836250f530db695a0961"
ORACLE_N5_JSON_SHA256 = "763b621cc88c15b943a04fadd3d7a61ae191cdefddcff7c4a4e0e57d7a7e0a8b"


def test_oracle_report_bytes_at_five_loops_are_pinned(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "oracle", "--n", "5", "--json", str(target))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_N5_TEXT_SHA256
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ORACLE_N5_JSON_SHA256


def test_oracle_report_at_five_loops_needs_no_validation_rule(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called a validation rule")

    for module, name in (
        (codec, "check_realizable"),
        (oracle, "check_realizable"),
        (codec, "_scan"),
        (model, "source_corners"),
    ):
        monkeypatch.setattr(module, name, refuse)
    oracle._block_verdicts.cache_clear()  # decide every block afresh
    codes, report = oracle.oracle_enumerate(5)
    assert len(codes) == 4389
    assert len(report.witnesses) == 211
    oracle._block_verdicts.cache_clear()
    assert oracle.oracle_report(5) == report
    target = tmp_path / "report.json"
    rc, _, _ = run(capsys, "oracle", "--n", "5", "--json", str(target))
    assert rc == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == ORACLE_N5_JSON_SHA256


def test_oracle_fails_at_once_on_a_json_path_it_cannot_open(tmp_path, capsys):
    # Opened after the run, the bad path cost 2.3 s and a 2,334-line report.
    target = tmp_path / "missing" / "report.json"
    start = time.perf_counter()
    rc, out, err = run(capsys, "oracle", "--n", "6", "--bound", "6", "--json", str(target))
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not target.parent.exists()


# sha256 of `oracle --n 6 --bound 6` stdout: 32890 codes and 2328 witnesses.
ORACLE_N6_TEXT_SHA256 = "c783d817866aa7ddf19da187435f4c933de9f3f5be3fafa9c76015122ae5a245"


def test_oracle_report_bytes_at_six_loops_are_pinned(capsys):
    rc, out, _ = run(capsys, "oracle", "--n", "6", "--bound", "6")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_N6_TEXT_SHA256


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1
    assert err != ""


def test_missing_argument(capsys):
    rc, _, err = run(capsys, "validate")
    assert rc == 1


def test_every_exported_name_resolves():
    import diskflows

    assert "oracle_enumerate" in diskflows.__all__
    for name in diskflows.__all__:
        assert getattr(diskflows, name) is not None


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "diskflows.cli", "validate", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "realizable: PASS" in proc.stdout


# ---------------------------------------------------------------------------
# fuzzing: every input ends with a documented exit code


EXIT_CODES = (EXIT_OK, EXIT_USAGE, EXIT_INADMISSIBLE, EXIT_UNREALIZABLE)


def run_quietly(*argv: str, stdin: str = ""):
    """``main`` with its output captured outside pytest's fixtures, which
    hypothesis does not reset between examples.  An exception that escapes
    ``main`` is a traceback and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


code_texts = st.text(alphabet="0123456789~' ", max_size=16)


@settings(max_examples=150, deadline=2000)
@given(
    text=code_texts,
    command=st.sampled_from(
        [("validate",), ("decode",), ("render", "--view", "tree"),
         ("render", "--view", "diagram")]
    ),
)
def test_fuzzed_code_text_ends_with_a_documented_exit_code(text, command):
    rc, _, err = run_quietly(command[0], text, *command[1:])
    assert rc in EXIT_CODES
    assert (rc == EXIT_USAGE) == err.startswith("error: ")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 5)
vertices = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        *(
            st.fixed_dictionaries(
                {
                    "id": st.just(i) | small,
                    "parent": st.none() | small,
                    "children": st.lists(small, max_size=3),
                    "color": st.sampled_from([None, 1, -1, 0, True]),
                    "prime": st.booleans() | st.none(),
                }
            )
            for i in range(k)
        )
    )
)
graph_docs = st.fixed_dictionaries(
    {
        "separatrices": small,
        "vertices": vertices.map(list) | st.lists(json_values, min_size=1, max_size=3),
    }
)


@settings(max_examples=300, deadline=2000)
@given(
    text=st.one_of(
        graph_docs.map(json.dumps), json_values.map(json.dumps), st.text(max_size=24)
    )
)
def test_fuzzed_json_for_encode_ends_with_a_documented_exit_code(text):
    rc, out, err = run_quietly("encode", "-", stdin=text)
    assert rc in EXIT_CODES
    assert (rc == EXIT_OK) == (out != "") == (err == "")
    assert rc == EXIT_OK or err.startswith("error: ")


# ---------------------------------------------------------------------------
# large realizable codes


def random_realizable_text(n: int, rng: random.Random) -> str:
    """A realizable code with n separatrices: a random recursive tree
    (vertex v hangs below a uniformly chosen earlier vertex), read in
    level order, with one configuration drawn per cell, top down."""
    children = [[] for _ in range(n + 1)]
    for v in range(1, n + 1):
        children[rng.randrange(v)].append(v)
    order = [0]
    for v in order:  # level order: the loop reaches what it appends
        order.extend(children[v])
    degrees = [len(children[v]) for v in order]
    colors, primes = [BLACK] * (n + 1), [False] * (n + 1)
    nxt = 1
    for v, k in enumerate(degrees):
        dec = rng.choice(enumerate_cell_configs(k, colors[v]))
        colors[nxt:nxt + k] = dec.child_colors
        primes[nxt:nxt + k] = dec.child_primes
        nxt += k
    return serialize_code(
        Code(tuple(map(CodeToken, degrees, [c == RED for c in colors], primes)))
    )


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_large_realizable_codes_validate_round_trip_and_draw(n, capsys):
    text = random_realizable_text(n, random.Random(n))
    rc, out, _ = run(capsys, "validate", text)
    assert rc == EXIT_OK
    assert out.endswith("realizable: PASS\n")
    rc, doc, _ = run(capsys, "decode", text)
    assert rc == EXIT_OK
    with mock.patch.object(sys, "stdin", io.StringIO(doc)):
        rc, out, _ = run(capsys, "encode", "-")
    assert (rc, out) == (EXIT_OK, text + "\n")
    rc, svg, _ = run(capsys, "render", text, "--view", "diagram")
    assert rc == EXIT_OK
    assert svg.count('class="loop"') == n
