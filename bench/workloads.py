"""The four workloads: seeded inputs, one pass of fixed work, and output
checks that do not trust the code under test.

Every workload is a closed loop in one thread: each operation starts
after the previous one has finished.  ``run_pass`` appends the duration
of each operation (nanoseconds) to ``latencies``; the wall time of a
pass is the sum of these, so output checks done between operations are
not timed.  A failed operation is an unexpected exception, a wrong
verdict or an output that fails a check; documented rejections
(``CodeSyntaxError``, an inadmissible or unrealizable verdict) are
correct results when the input's label says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

from diskflows import cli, codec, render
from diskflows.codec import CodeSyntaxError

import gen


def flow_count(n: int) -> int:
    """Closed form of the class count, C(4n+2, n)/(n+1) (OEIS A006632)."""
    return math.comb(4 * n + 2, n) // (n + 1)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# Rooted trees by vertex count (OEIS A000081), index = vertices.
A000081 = (0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719)

CSV_HEADER = "n,abstract_tree,flows_per_embedding,embeddings,total"


class Failures:
    """Failed operations: a count and the first few messages."""

    KEEP = 20

    def __init__(self) -> None:
        self.count = 0
        self.messages: list[str] = []

    def add(self, where: str, what: str) -> None:
        self.count += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(f"{where}: {what}")

    def check(self, ok: bool, where: str, what: str) -> None:
        if not ok:
            self.add(where, what)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------

class EnumN7:
    """``enum --n 7`` through ``cli.main``: materialize, sort and write
    all 254,475 codes.  The input is fixed; the seed does not change it."""

    name = "enum-n7"
    # sha256 of the output written at the commit that defined the benchmark.
    DIGESTS = {
        7: "6ce2b06c34d0b59bdc9f32f503ec3d75257f54c5ccdd18a783f91bfe31ec1940",
        4: "c760af25639182aefd1d1ee0b5d2a06030e1a00ffe90658638d81d23782f285d",
    }

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.n = 4 if quick else 7
        self.out = os.path.join(workdir, f"enum-{os.getpid()}.txt")

    def run_pass(self, latencies: list[int], failures: Failures, tracer=None) -> None:
        where = f"enum --n {self.n}"
        start = time.perf_counter_ns()
        try:
            rc = cli.main(["enum", "--n", str(self.n), "--out", self.out])
        except Exception as exc:
            latencies.append(time.perf_counter_ns() - start)
            failures.add(where, _error(exc))
            return
        latencies.append(time.perf_counter_ns() - start)
        try:
            with open(self.out, "rb") as fh:
                data = fh.read()
            os.remove(self.out)
        except OSError as exc:
            failures.add(where, _error(exc))
            return
        lines = data.count(b"\n")
        digest = hashlib.sha256(data).hexdigest()
        failures.check(
            rc == 0 and lines == flow_count(self.n) and digest == self.DIGESTS[self.n],
            where,
            f"exit {rc}, {lines} lines, sha256 {digest}",
        )


# ----------------------------------------------------------------------

class Census:
    """Every published number without listing codes: ``enum
    --count-only`` for n = 0..11, ``table --max-n 9`` and ``oracle --n 5
    --json``, all through ``cli.main``.  One operation is the whole set
    of calls.  The input is fixed; the seed does not change it."""

    name = "census"
    WITNESSES = {3: 1, 5: 211}

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.max_count_n = 6 if quick else 11
        self.table_n = 5 if quick else 9
        self.oracle_n = 3 if quick else 5
        self.json_path = os.path.join(workdir, f"oracle-{os.getpid()}.json")
        self.calls = [
            ["enum", "--n", str(n), "--count-only", "--cap", "11"]
            for n in range(self.max_count_n + 1)
        ]
        self.calls.append(["table", "--max-n", str(self.table_n)])
        self.calls.append(["oracle", "--n", str(self.oracle_n), "--json", self.json_path])

    def run_pass(self, latencies: list[int], failures: Failures, tracer=None) -> None:
        outputs = []
        start = time.perf_counter_ns()
        try:
            for argv in self.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                outputs.append((rc, buf.getvalue()))
        except Exception as exc:
            latencies.append(time.perf_counter_ns() - start)
            failures.add("census", _error(exc))
            return
        latencies.append(time.perf_counter_ns() - start)
        problems = []
        for n, (rc, out) in enumerate(outputs[: self.max_count_n + 1]):
            if rc != 0 or out != f"{flow_count(n)}\n":
                problems.append(f"count n={n}: exit {rc}, output {out!r}")
        try:
            problems += self._check_table(*outputs[-2])
            problems += self._check_oracle(*outputs[-1])
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            problems.append(f"unreadable output: {_error(exc)}")
        if problems:
            failures.add("census", "; ".join(problems))

    def _check_table(self, rc: int, text: str) -> list[str]:
        if rc != 0:
            return [f"table: exit {rc}"]
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return ["table: bad header"]
        rows = [line.split(",") for line in lines[1:]]
        expected_rows = sum(A000081[1 : self.table_n + 2])
        if len(rows) != expected_rows:
            return [f"table: {len(rows)} rows, expected {expected_rows}"]
        per_n: dict[int, list[int]] = {}
        for fields in rows:
            n, tree, flows, embeddings, total = fields
            n, flows, embeddings, total = int(n), int(flows), int(embeddings), int(total)
            degrees = [int(v) for v in (tree.split(" ") if " " in tree else tree)]
            product = math.prod((k + 1) * (k + 2) // 2 for k in degrees)
            if sum(degrees) != n or flows != product or total != flows * embeddings:
                return [f"table: bad row {','.join(fields)}"]
            acc = per_n.setdefault(n, [0, 0, 0])
            acc[0] += 1
            acc[1] += embeddings
            acc[2] += total
        for n in range(self.table_n + 1):
            got = per_n.get(n, [0, 0, 0])
            if got != [A000081[n + 1], catalan(n), flow_count(n)]:
                return [f"table: n={n} gives rows/embeddings/total {got}"]
        return []

    def _check_oracle(self, rc: int, text: str) -> list[str]:
        n = self.oracle_n
        if rc != 0 or "agreement: yes" not in text:
            return [f"oracle: exit {rc}"]
        try:
            with open(self.json_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(self.json_path)
        except OSError as exc:
            return [f"oracle: {_error(exc)}"]
        witnesses = doc.get("witnesses", [])
        expected = (n, flow_count(n), flow_count(n), self.WITNESSES[n], self.WITNESSES[n])
        got = (
            doc.get("n"),
            doc.get("fast_count"),
            doc.get("oracle_count"),
            doc.get("admissible_only_count"),
            len(set(witnesses)),
        )
        if got != expected:
            return [f"oracle: n/fast/oracle/admissible-only/witnesses {got}, expected {expected}"]
        for text in witnesses:
            decoded = gen.parse_text(text)
            if not gen.is_tree_sequence(decoded[0]) or gen.realizable_by_cells(*decoded):
                return [f"oracle: witness {text} is not an unrealizable tree code"]
        return []


# ----------------------------------------------------------------------

def validate(text: str) -> tuple[str, str | None]:
    """The validate-mix operation: parse and check; realizable codes make
    the round trip through the graph and its JSON form back to text."""
    try:
        code = codec.parse_code(text)
    except CodeSyntaxError:
        return gen.SYNTAX, None
    report = codec.check_realizable(code)
    if not report.realizable:
        return (gen.UNREALIZABLE if report.admissible.passed else gen.INADMISSIBLE), None
    graph = codec.graph_from_json(codec.graph_to_json(codec.code_to_graph(code)))
    return gen.REALIZABLE, codec.serialize_code(codec.graph_to_code(graph))


def verdict_ok(expect: str, verdict: str) -> bool:
    # A decoration that fits no cell configuration may fail property 4
    # (prime groups) and so be reported inadmissible.
    return verdict == expect or (expect == gen.UNREALIZABLE and verdict == gen.INADMISSIBLE)


class ValidateMix:
    """A seeded stream of code texts driven through the library (not
    ``cli.main``, whose argument parser would cost ten times the
    validation).  See ``gen.MIX_PER_MILLE`` for its classes."""

    name = "validate-mix"

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.cases = gen.validate_mix(seed, 300 if quick else 3000)

    def run_pass(self, latencies: list[int], failures: Failures, tracer=None) -> None:
        for case in self.cases:
            if tracer is not None:
                tracer.tag = case.cls
            start = time.perf_counter_ns()
            try:
                verdict, text = validate(case.text)
            except Exception as exc:
                latencies.append(time.perf_counter_ns() - start)
                failures.add(repr(case.text[:60]), _error(exc))
                continue
            latencies.append(time.perf_counter_ns() - start)
            if tracer is not None:
                tracer.counts[f"codec.verdicts.{verdict}"] += 1
            failures.check(
                verdict_ok(case.expect, verdict) and text in (None, case.text),
                repr(case.text[:60]),
                f"verdict {verdict} (expected {case.expect}), round trip {text!r:.60}",
            )


# ----------------------------------------------------------------------

class Render:
    """A seeded sample of realizable codes, ``per_n`` for every n up to
    40, each drawn as an SVG diagram and as a DOT tree."""

    name = "render"

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        if quick:
            self.cases = gen.render_sample(seed, per_n=2, max_n=10)
        else:
            self.cases = gen.render_sample(seed, per_n=20)
        self.digests: list[bytes] | None = None

    def run_pass(self, latencies: list[int], failures: Failures, tracer=None) -> None:
        first = self.digests is None
        digests = []
        for case in self.cases:
            if tracer is not None:
                tracer.tag = "short" if case.n <= 6 else "medium"
            start = time.perf_counter_ns()
            try:
                graph = codec.code_to_graph(codec.parse_code(case.text))
                svg = render.diagram_to_svg(graph)
                dot = render.tree_to_dot(graph)
            except Exception as exc:
                latencies.append(time.perf_counter_ns() - start)
                failures.add(repr(case.text), _error(exc))
                digests.append(b"")
                continue
            latencies.append(time.perf_counter_ns() - start)
            digest = hashlib.sha256(svg.encode()).digest()
            digests.append(digest)
            again = render.diagram_to_svg(graph) if first else None
            failures.check(
                svg.count('<g class="loop"') == case.n
                and svg.count('class="elliptic-dot"') == case.coherent_cells
                and dot.count(" -> ") == case.n
                and dot.count("[color=red") == case.red
                and (again is None or again == svg),
                repr(case.text),
                "diagram or tree view does not match the code",
            )
        if first:
            self.digests = digests
        else:
            for case, a, b in zip(self.cases, self.digests, digests):
                failures.check(a == b, repr(case.text), "SVG differs between passes")


WORKLOADS = {w.name: w for w in (EnumN7, Census, ValidateMix, Render)}
