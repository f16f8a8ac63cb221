"""The scripts in scripts/, run as a user runs them."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from diskflows.codec import serialize_code
from diskflows.enumeration import iter_flows
from diskflows.oracle import candidate_count

ROOT = Path(__file__).resolve().parents[1]
GALLERY = ROOT / "scripts" / "render_gallery.py"
REPRODUCE = ROOT / "scripts" / "reproduce_counts.py"


def _limit_address_space():
    limit = 1536 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _script(script: Path, *argv: str, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def _gallery(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    return _script(GALLERY, *argv, **kwargs)


def test_gallery_renders_the_first_codes_in_order(tmp_path):
    proc = _gallery("--n", "3", "--limit", "5", "--dot", "--out", str(tmp_path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"rendered 5 codes at n=3 as SVG and DOT files in {tmp_path}\n"
    first = [serialize_code(c) for _, c in zip(range(5), iter_flows(3))]
    stems = {t.replace("~", "r").replace("'", "e") for t in first}
    assert {p.name for p in tmp_path.iterdir()} == {
        f"{stem}.{ext}" for stem in stems for ext in ("svg", "dot")
    }


def test_gallery_streams_instead_of_listing_every_code(tmp_path):
    # n = 9 has 16.3 million codes; listing them all needs about 2.4 GB.
    # A separate process under a 1.5 GB address limit, so that listing
    # fails there instead of in the test run.
    proc = _gallery(
        "--n", "9", "--limit", "2", "--out", str(tmp_path),
        timeout=20, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rendered 2 codes at n=9 ")
    assert len(list(tmp_path.glob("*.svg"))) == 2


def test_gallery_rejects_a_negative_limit(tmp_path):
    proc = _gallery("--n", "3", "--limit", "-1", "--out", str(tmp_path), timeout=60)
    assert proc.returncode == 2
    assert "--limit must be non-negative" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_gallery_rejects_a_negative_separatrix_count(tmp_path):
    out = tmp_path / "gallery"
    proc = _gallery("--n", "-1", "--out", str(out), timeout=60)
    assert proc.returncode == 2
    assert "--n must be non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_reproduced_counts_are_the_same_bytes_on_every_run(tmp_path):
    argv = ("--max-n", "4", "--list-max-n", "2", "--oracle-max-n", "2")
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        proc = _script(REPRODUCE, *argv, "--out", str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
    assert (first / "counts.csv").read_bytes() == (
        b"n,count,streamed,product_sum\r\n"
        b"0,1,1,1\r\n"
        b"1,3,3,3\r\n"
        b"2,15,15,15\r\n"
        b"3,91,91,91\r\n"
        b"4,612,612,612\r\n"
    )
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


@pytest.mark.parametrize("flag", ["--max-n", "--list-max-n", "--oracle-max-n"])
def test_reproduce_rejects_a_negative_bound(flag, tmp_path):
    out = tmp_path / "out"
    proc = _script(REPRODUCE, flag, "-1", "--out", str(out), timeout=60)
    assert proc.returncode == 2
    assert f"{flag} must be non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_reproduce_refuses_an_oracle_bound_past_n7_candidates(n, tmp_path):
    # Unguarded, n = 8 alone runs for minutes; the refusal comes before any work.
    out = tmp_path / "out"
    proc = _script(REPRODUCE, "--oracle-max-n", str(n), "--out", str(out), timeout=1)
    assert proc.returncode == 2
    if n <= 10:
        assert (
            f"--oracle-max-n {n} would try {candidate_count(n)} candidates at n={n},"
            " more than the 2728704 at n=7"
        ) in proc.stderr
    else:
        assert f"--oracle-max-n {n} exceeds the cap 10" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [10, 11])
@pytest.mark.parametrize("flag", ["--max-n", "--list-max-n"])
def test_reproduce_refuses_a_listing_bound_past_the_enum_cap(flag, n, tmp_path):
    # Unguarded, --max-n 10 streams 133,767,543 codes and --list-max-n 10
    # writes about 1.5 GB; the refusal comes before any work.
    out = tmp_path / "out"
    proc = _script(REPRODUCE, flag, str(n), "--out", str(out), timeout=1)
    assert proc.returncode == 2
    assert f"{flag} {n} exceeds the cap 9" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
