"""``validate`` output pinned byte for byte.

``validate_golden.json`` holds the stdout and exit code of ``diskflows
validate`` for texts that reach every branch of the report (each
property failing, property 4 not evaluated, invalid cells, syntax errors
and realizable codes), captured from the CLI before validation became a
single scan.  It also holds the full ``ValidationReport`` of codes built
directly with a marked first token, which the text grammar refuses.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from diskflows.cli import EXIT_INADMISSIBLE, main
from diskflows.codec import Code, CodeToken, check_realizable

GOLDEN = json.loads((Path(__file__).parent / "validate_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["validate"], ids=lambda c: c["label"])
def test_validate_output_is_unchanged(case, capsys):
    rc = main(["validate", case["text"]])
    assert capsys.readouterr().out == case["stdout"]
    assert rc == case["exit"]


@pytest.mark.parametrize("case", GOLDEN["reports"], ids=lambda c: c["label"])
def test_report_of_directly_built_code_is_unchanged(case):
    code = Code(tuple(CodeToken(*t) for t in case["tokens"]))
    assert repr(check_realizable(code)) == case["report"]


def test_validation_time_does_not_grow_with_token_values(capsys):
    # The largest token value: a loop sized by the values would not end.
    start = time.perf_counter()
    rc = main(["validate", "4294967295 0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == EXIT_INADMISSIBLE
    assert elapsed < 1.0
    (small,) = [c for c in GOLDEN["validate"] if c["text"] == "10000000 0"]
    expected = small["stdout"].replace("10000001", "4294967296")
    expected = expected.replace("10000000", "4294967295")
    assert out == expected
