"""Brute-force cross-checks of the closed-form counting paths."""

from __future__ import annotations

import itertools
import math
import time

import pytest

from diskflows import oracle
from diskflows.codec import Code, CodeToken, check_admissible, check_realizable, parse_code
from diskflows.enumeration import (
    _nested_trees,
    _nested_up_degrees,
    enumerate_flows,
    iter_flows,
)
from diskflows.model import cell_config_count, enumerate_cell_configs
from diskflows.oracle import (
    DEFAULT_BOUND,
    candidate_count,
    oracle_cell_configs,
    oracle_enumerate,
    oracle_report,
)


@pytest.mark.parametrize("lower", [1, -1])
@pytest.mark.parametrize("n", range(9))
def test_oracle_configs_agree_with_fast_path(n, lower):
    slow = oracle_cell_configs(n, lower)
    fast = enumerate_cell_configs(n, lower)
    assert list(slow) == list(fast)
    assert len(slow) == cell_config_count(n)


def test_oracle_census_for_three_children():
    # of the 8 colorings: one coherent (four marked variants), six polar,
    # one rejected with two source corners
    configs = oracle_cell_configs(3, 1)
    assert len(configs) == 10
    coherent = [d for d in configs if d.child_colors == (-1, -1, -1)]
    assert len(coherent) == 4
    assert len({d.child_colors for d in configs}) == 7


def test_oracle_matches_enumeration_at_two_loops():
    codes, report = oracle_enumerate(2)
    assert codes == set(enumerate_flows(2))
    assert report.agrees
    assert report.fast_count == report.oracle_count == 15
    assert report.admissible_only_count == 0
    assert report.witnesses == ()


def test_oracle_finds_single_gap_witness_at_three_loops():
    codes, report = oracle_enumerate(3)
    assert codes == set(enumerate_flows(3))
    assert report.oracle_count == 91
    assert report.admissible_only_count == 1
    assert [str(w) for w in report.witnesses] == ["300~0"]


def test_gap_witness_fails_only_the_cell_check():
    witness = parse_code("300~0")
    assert check_admissible(witness).passed
    verdict = check_realizable(witness)
    assert not verdict.realizable
    assert verdict.offending_vertex == 0
    assert verdict.offending_boundary == (1, -1, 1, -1)


def test_oracle_matches_enumeration_at_four_loops():
    codes, report = oracle_enumerate(4)
    assert codes == set(enumerate_flows(4))
    assert report.agrees
    assert report.oracle_count == 612
    assert report.admissible_only_count == 17


def test_gap_counts_grow_from_three_loops():
    gaps = [oracle_enumerate(n)[1].admissible_only_count for n in range(5)]
    assert gaps == [0, 0, 0, 1, 17]


def test_report_serialization():
    _, report = oracle_enumerate(3)
    assert report.to_json_dict() == {
        "n": 3,
        "fast_count": 91,
        "oracle_count": 91,
        "admissible_only_count": 1,
        "witnesses": ["300~0"],
    }
    text = report.to_text()
    assert "agreement: yes" in text
    assert "300~0" in text


def test_oracle_refuses_large_inputs():
    assert DEFAULT_BOUND == 5
    with pytest.raises(ValueError):
        oracle_enumerate(6)
    with pytest.raises(ValueError):
        oracle_enumerate(3, bound=2)
    for n, bound in ((6, DEFAULT_BOUND), (3, 2), (-1, DEFAULT_BOUND)):
        with pytest.raises(ValueError):
            oracle_report(n, bound=bound)


@pytest.mark.parametrize("n", range(7))
def test_report_is_the_report_of_the_enumeration(n):
    codes, enumerated = oracle_enumerate(n, bound=6)
    report = oracle_report(n, bound=6)
    for field in ("n", "fast_count", "oracle_count", "admissible_only_count", "witnesses"):
        assert getattr(report, field) == getattr(enumerated, field), field
    assert report.oracle_count == len(codes)


def test_report_builds_a_code_for_each_witness_only(monkeypatch):
    built = []

    class CountingCode(Code):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(oracle, "Code", CountingCode)
    report = oracle_report(5)
    assert len(built) == 211
    assert report.witnesses == tuple(sorted(built))
    assert report.oracle_count == 4389


def full_brute_force(n):
    """Every coloring and every prime pattern of every tree, 4**n
    candidates per tree, through the validator: the unpruned reference
    for the oracle's one-prime-per-block search."""
    realizable, witnesses, admissible = set(), [], 0
    for nested in _nested_trees(n):
        values = _nested_up_degrees(nested)
        for marks in itertools.product(
            itertools.product((False, True), repeat=2), repeat=n
        ):
            code = Code(
                (CodeToken(values[0]),)
                + tuple(CodeToken(d, o, p) for d, (o, p) in zip(values[1:], marks))
            )
            report = check_realizable(code)
            if report.admissible.passed:
                admissible += 1
                if report.realizable:
                    realizable.add(code)
                else:
                    witnesses.append(code)
    return realizable, admissible - len(realizable), sorted(witnesses)


@pytest.mark.parametrize("n", range(5))
def test_one_prime_per_block_drops_nothing(n):
    codes, report = oracle_enumerate(n)
    realizable, admissible_only, witnesses = full_brute_force(n)
    assert codes == realizable
    assert report.admissible_only_count == admissible_only
    assert list(report.witnesses) == witnesses


@pytest.mark.parametrize("n", range(7))
def test_every_candidate_is_decided_as_the_validator_decides(n):
    decided = 0
    for nested in _nested_trees(n):
        blocks, worst = oracle._candidates(_nested_up_degrees(nested))
        # Distinct decorations per block, so no code is a candidate twice.
        assert all(len(set(block)) == len(block) for block in blocks)
        for verdict, pick in zip(worst, itertools.product(*blocks), strict=True):
            decided += 1
            report = check_realizable(Code(sum(pick, ())))
            assert (verdict != oracle._INADMISSIBLE) == report.admissible.passed
            assert (verdict == oracle._OK) == report.realizable
    assert decided == candidate_count(n)


def test_candidate_count_follows_the_validator_calls():
    # The formula the test above checks against the candidates decided, up
    # to n = 7, whose count caps `diskflows oracle`.
    assert [candidate_count(n) for n in range(8)] == [
        2**n * math.comb(3 * n + 1, n) // (n + 1) for n in range(8)
    ]
    assert candidate_count(5) == 23_296
    assert candidate_count(6) == 248_064
    assert candidate_count(7) == 2_728_704


def test_oracle_matches_enumeration_at_six_loops():
    start = time.perf_counter()
    codes, report = oracle_enumerate(6, bound=6)
    assert time.perf_counter() - start < 60
    assert codes == set(iter_flows(6))
    assert report.agrees
    assert report.oracle_count == 32890
    assert report.admissible_only_count == 2328
