"""Tests of the benchmark itself, on quick sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stability  # noqa: E402
import workloads  # noqa: E402
from diskflows import cli, codec, render  # noqa: E402
from diskflows.model import CellKind, boundary_directions, classify_cell  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_inputs_depend_only_on_the_seed():
    assert gen.validate_mix(7, 300) == gen.validate_mix(7, 300)
    assert gen.validate_mix(7, 300) != gen.validate_mix(8, 300)
    assert gen.render_sample(7, 1, 10) == gen.render_sample(7, 1, 10)
    assert gen.render_sample(7, 1, 10) != gen.render_sample(8, 1, 10)


def test_random_trees_are_tree_sequences():
    rng = random.Random(1)
    for n in (0, 1, 2, 5, 30):
        for _ in range(50):
            assert gen.is_tree_sequence(gen.random_tree(rng, n))
    big = gen.random_tree(rng, 120, big_degree=10)
    assert gen.is_tree_sequence(big) and max(big) >= 10


def test_mix_has_its_classes_and_realizable_share():
    cases = gen.validate_mix(5, 3000)
    by_class = {}
    for case in cases:
        by_class.setdefault(case.cls, []).append(case)
    assert {cls: len(v) for cls, v in by_class.items()} == {
        "short": 2460, "bad": 360, "long": 150, "big": 30
    }
    short = by_class["short"]
    share = sum(c.expect == gen.REALIZABLE for c in short) / len(short)
    assert 0.6 < share < 0.7
    assert all(100 <= c.n <= 2000 and " " in c.text for c in by_class["long"])
    assert {c.expect for c in by_class["big"]} == {gen.INADMISSIBLE}


def test_labels_match_the_validator_at_this_commit():
    for case in gen.validate_mix(3, 2000):
        verdict, text = workloads.validate(case.text)
        assert workloads.verdict_ok(case.expect, verdict), case
        assert text in (None, case.text)


def test_coherent_cell_count_matches_the_cell_classifier():
    for case in gen.render_sample(2, 2, 12):
        graph = codec.code_to_graph(codec.parse_code(case.text))
        cyclic = sum(
            classify_cell(boundary_directions(graph, v)) is CellKind.CYCLIC
            for v in range(graph.tree.vertex_count)
        )
        assert cyclic == case.coherent_cells
        assert gen.code_text(*gen.parse_text(case.text)) == case.text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_pass_is_correct(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, True, str(tmp_path))
    failures = workloads.Failures()
    latencies = []
    workload.run_pass(latencies, failures)
    workload.run_pass(latencies, failures)
    assert failures.count == 0, failures.messages
    assert latencies and all(x > 0 for x in latencies)


def _failures_with(monkeypatch, tmp_path, name, owner, attr, fake):
    monkeypatch.setattr(owner, attr, fake)
    workload = workloads.WORKLOADS[name](1, True, str(tmp_path))
    failures = workloads.Failures()
    workload.run_pass([], failures)
    return failures.count


def test_checks_catch_wrong_outputs(monkeypatch, tmp_path):
    real_text = cli.codes_to_text
    assert _failures_with(monkeypatch, tmp_path, "enum-n7", cli, "codes_to_text",
                          lambda codes: real_text(codes[1:]))
    assert _failures_with(monkeypatch, tmp_path, "census", cli, "count_flows", lambda n: 0)
    real_check = codec.check_realizable

    def lenient(code):
        report = real_check(code)
        return codec.ValidationReport(report.admissible, report.admissible.passed)

    assert _failures_with(monkeypatch, tmp_path, "validate-mix", codec, "check_realizable",
                          lenient)
    real_svg = render.diagram_to_svg
    assert _failures_with(monkeypatch, tmp_path, "render", render, "diagram_to_svg",
                          lambda g: real_svg(g).replace('<g class="loop"', "<g", 1))


def test_census_table_check_is_independent():
    census = workloads.Census(1, True, "unused")
    text = "\n".join([workloads.CSV_HEADER, "0,0,1,1,1", "1,1,3,1,3"]) + "\n"
    assert census._check_table(0, text)  # rows for n = 2..5 missing


def test_tracer_records_nesting_and_restores():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    tracer = spans.Tracer()
    tracer.patch(Box, "inner", "inner", static=True)
    tracer.patch(Box, "outer", "outer", static=True)
    assert Box.outer(1) == 4
    tracer.restore()
    assert Box.outer.__name__ == "outer" and Box.inner.__name__ == "inner"
    (outer_id, _, *_), = [s for s in tracer.spans if s[2] == "outer"]
    (_, parent, *_), = [s for s in tracer.spans if s[2] == "inner"]
    assert parent == outer_id
    assert tracer.self_s("outer") <= tracer.total_s("outer")
    assert tracer.calls("inner") == 1


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["census", "render"])
def test_quick_run_prints_the_contract_line(name, trace):
    proc = _run(["bench/run.py", "--workload", name, "--seed", "4", "--seconds", "1",
                 "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["bench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stability_summary():
    s = stability.summarize([float(x) for x in range(1, 11)])
    assert s["median"] == 5.5 and s["q1"] == 2.75 and s["q3"] == 8.25
    assert s["spread"] == pytest.approx(1.0)
    lower = {"better": "lower"}
    assert stability.worse_by(lower, 10.0, 11.0) == pytest.approx(0.1)
    assert stability.worse_by({"better": "higher"}, 10.0, 11.0) == pytest.approx(-0.1)
    assert stability.parse_seeds("1-3,7") == [1, 2, 3, 7]
