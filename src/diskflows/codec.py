"""Linear codes for decorated plane rooted trees.

The code of a tree is its level-order sequence of up-degrees, one token
per vertex.  A token carries an overline when the edge below its vertex
has color -1 and a prime when that edge is labelled as entering the
elliptic corner of the cell above it.  In text form an overline is ``~``
and a prime is ``'``, in that order, e.g. ``20~0~'``.

Two text layouts exist.  The compact form concatenates the tokens and is
only possible when every value is a single digit; the spaced form
separates tokens with single spaces.  Presence of whitespace in the
input decides which grammar applies.  A compact code has only 40
distinct tokens (ten digits, each with or without an overline and a
prime), so its parser takes them from a fixed table instead of building
one per character.

A code is *admissible* when it satisfies the four necessary conditions
checked by :func:`check_admissible`:

1. the token count is one more than the sum of the values;
2. the first token carries no marks;
3. for every k up to the sum n, the first k values sum to at least k;
4. around any primed token, the siblings carry no other prime and share
   one overline state, opposite to the parent token's state.

Conditions 1 and 3 make the value sequence decodable into a tree.
Admissibility is necessary but not sufficient: a code is *realizable*
(comes from an actual flow) exactly when, in addition, no cell of the
decoded tree has a boundary with two or more source corners.  See
:func:`check_realizable`, which is the authoritative test.

Both checks are one linear scan of the tokens in level order, then
reports rendered from what the scan found.  The scan sums the values
once, stops the prefix sums at the last token, and counts each cell's
source corners from the marks of its own token and its block of
children.  No tree is built, and the cost depends on the length of the
code, never on the size of its values.  The scan builds no report: its
findings are a few small ints, and the reports rendered from them are
immutable, so codes with the same findings share one report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .model import (
    BLACK,
    RED,
    ROOT_LOWER_DIRECTION,
    DistinguishedGraph,
    PlaneRootedTree,
    _unchecked,
    classify_cell,  # not called here; kept for the tracer in bench/layers.py
    source_corners,
)

MAX_TOKEN_VALUE = 2**32 - 1
_MAX_TOKEN_DIGITS = len(str(MAX_TOKEN_VALUE))

PROPERTY_NAMES = ("length", "first token marks", "prefix sums", "prime groups")


class CodeSyntaxError(ValueError):
    """Raised when code text does not match the grammar."""


@dataclass(frozen=True, order=True, slots=True)
class CodeToken:
    value: int
    overline: bool = False
    prime: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.value <= MAX_TOKEN_VALUE:
            raise ValueError(
                f"token value must lie in [0, {MAX_TOKEN_VALUE}], got {self.value}"
            )

    def text(self) -> str:
        return f"{self.value}{'~' if self.overline else ''}{chr(39) if self.prime else ''}"


@dataclass(frozen=True, order=True, slots=True)
class Code:
    tokens: tuple[CodeToken, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("a code has at least one token")

    @property
    def n(self) -> int:
        """Separatrix count claimed by the code: the sum of the values."""
        return sum(t.value for t in self.tokens)

    def __str__(self) -> str:
        return serialize_code(self)


# Interned tokens.  Bounded, since graph_to_code may meet any value.  The
# token walk and the oracle make at most 4(n+1) distinct tokens for n
# separatrices, far below the bound at any n they can finish.
cached_token = lru_cache(maxsize=1024)(CodeToken)


# ======================================================================
# text grammar
# ======================================================================

_SPACED_TOKEN = re.compile(r"(\d+)(~?)('?)\Z", re.ASCII)


def _parse_spaced(text: str) -> list[CodeToken]:
    out = []
    for part in text.split(" "):
        m = _SPACED_TOKEN.match(part)
        if m is None:
            raise CodeSyntaxError(f"malformed token {part!r}")
        digits = m.group(1)
        if len(digits) > _MAX_TOKEN_DIGITS:
            # Also keeps int() clear of Python's int-string digit limit.
            digits = digits.lstrip("0") or "0"
            if len(digits) > _MAX_TOKEN_DIGITS:
                raise CodeSyntaxError(f"token value of {len(digits)} digits out of range")
        value = int(digits)
        if value > MAX_TOKEN_VALUE:
            raise CodeSyntaxError(f"token value {value} out of range")
        out.append(CodeToken(value, m.group(2) == "~", m.group(3) == "'"))
    return out


#: The 40 compact tokens by their text: a digit, then ``~`` and ``'`` if marked.
_COMPACT_TOKENS = {
    t.text(): t
    for t in (
        CodeToken(value, overline, prime)
        for value in range(10)
        for overline in (False, True)
        for prime in (False, True)
    )
}
_COMPACT_TOKEN = re.compile(r"[0-9]~?'?")
_COMPACT_RUN = re.compile(r"(?:[0-9]~?'?)*")


def _parse_compact(text: str) -> list[CodeToken]:
    # The run of tokens ends where a token should start but no digit does.
    end = _COMPACT_RUN.match(text).end()
    if end < len(text):
        raise CodeSyntaxError(f"unexpected character {text[end]!r} at position {end}")
    return [_COMPACT_TOKENS[part] for part in _COMPACT_TOKEN.findall(text)]


def parse_code(text: str) -> Code:
    """Parse code text, spaced or compact."""
    s = text.strip()
    if not s:
        raise CodeSyntaxError("empty code text")
    if any(ch.isspace() for ch in s):
        tokens = _parse_spaced(s)
    else:
        tokens = _parse_compact(s)
    if tokens[0].overline or tokens[0].prime:
        raise CodeSyntaxError("the first token of a code carries no marks")
    return Code(tuple(tokens))


def join_token_texts(values: list[int], texts: list[str]) -> str:
    """A code's text from its token values and token texts: compact when
    every value fits in one digit, spaced otherwise."""
    return ("" if max(values) <= 9 else " ").join(texts)


def serialize_code(code: Code) -> str:
    """Canonical text: compact when every value fits in one digit."""
    tokens = code.tokens
    return join_token_texts([t.value for t in tokens], [t.text() for t in tokens])


# ======================================================================
# validation
# ======================================================================

@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    token_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    checks: tuple[PropertyCheck, PropertyCheck, PropertyCheck, PropertyCheck]
    passed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(c.passed for c in self.checks))

    @property
    def failing(self) -> tuple[int, ...]:
        """1-based numbers of the failed properties."""
        return tuple(i + 1 for i, c in enumerate(self.checks) if not c.passed)


@dataclass(frozen=True)
class ValidationReport:
    admissible: AdmissibilityReport
    realizable: bool
    offending_vertex: int | None = None
    offending_boundary: tuple[int, ...] | None = None
    detail: str = ""


_PASS = PropertyCheck(True)
_NOT_EVALUATED = PropertyCheck(True, None, "not evaluated: values do not form a tree")

# Property 4's detail for each fault kind that _scan finds (0 is none):
# the check points at token {at}, and {other} is the other token named.
_GROUP_FAULTS = (
    "",
    "tokens {other} and {at} are both primed",
    "token {at} differs in overline from its primed sibling {other}",
    "token {other} must carry the opposite overline state of its children",
)


def check_admissible(code: Code) -> AdmissibilityReport:
    """Check the four necessary code properties."""
    return check_realizable(code).admissible


def check_realizable(code: Code) -> ValidationReport:
    """Authoritative validity test: admissible and every cell of the
    decoded tree is cyclic or polar, with primes only in cyclic cells.

    One scan of the tokens in level order finds the first failure of
    each property of :func:`check_admissible` and the first cell with
    two or more source corners; the report is rendered from those
    findings.  Reports are immutable, so codes with the same findings
    share one, except that the report of a multi-source cell, which
    carries the cell's whole boundary, is built per call.
    """
    findings, bad_cell = _scan(code.tokens)
    report = _render(*findings)
    if bad_cell is None or not report.admissible.passed:
        return report
    v, sides, sources = bad_cell
    return ValidationReport(
        report.admissible,
        False,
        offending_vertex=v,
        offending_boundary=tuple(1 if s else -1 for s in sides),
        detail=f"cell at vertex {v} has {sources} source corners",
    )


def _scan(tokens: tuple[CodeToken, ...]) -> tuple[tuple, tuple | None]:
    """The one validation pass.  It builds no report and no tree: the
    children of vertex v are the next ``value(v)`` tokens.

    Returns ``(findings, bad_cell)``.  ``findings`` is ``(count, n,
    marked, short, fault, at, other)``: the token count and the value
    sum (property 1), whether the first token is marked (property 2),
    the first k with a prefix sum below k, or 0 (property 3), and the
    first property 4 fault, or 0, 0, 0.  ``bad_cell`` is ``(v, sides,
    sources)`` for the first cell with two or more source corners.
    """
    values = [t.value for t in tokens]
    count = len(values)
    n = sum(values)
    marked = tokens[0].overline or tokens[0].prime
    # Past the last token the prefix is n >= k, so the loop stops there.
    short = prefix = 0
    for k in range(1, min(n, count) + 1):
        prefix += values[k - 1]
        if prefix < k:
            short = k
            break

    # The blocks are read only when the values form a tree.  Cell v has
    # side 0 of direction color(v) (+1 at the root) and side i of
    # direction -color(child i), which is +1 exactly on an overlined
    # child.  Property 4 makes every cell with a primed child coherent,
    # so a prime never sits in a polar cell.
    fault = at = other = 0
    bad_cell = None
    if count == n + 1 and not short:
        overlines = [t.overline for t in tokens]
        primes = [t.prime for t in tokens]
        nxt = 1
        for v, d in enumerate(values):
            if not d:
                continue
            end = nxt + d
            kid_overlines = overlines[nxt:end]
            if True in primes[nxt:end]:
                first = primes.index(True, nxt, end)
                shared = overlines[first]
                if True in primes[first + 1:end]:
                    fault, at, other = 1, primes.index(True, first + 1, end), first
                elif (not shared) in kid_overlines:
                    fault, at, other = 2, nxt + kid_overlines.index(not shared), first
                elif overlines[v] == shared:
                    fault, at, other = 3, first, v
                if fault:
                    break
            elif bad_cell is None:
                sides = [v == 0 or not overlines[v]] + kid_overlines
                sources = source_corners(sides)
                if sources > 1:
                    bad_cell = (v, sides, sources)
            nxt = end
    return (count, n, marked, short, fault, at, other), bad_cell


@lru_cache(maxsize=1024)
def _render(
    count: int, n: int, marked: bool, short: int, fault: int, at: int, other: int
) -> ValidationReport:
    """The report for the findings of :func:`_scan`, as if no cell had
    two or more source corners.  Bounded like :data:`cached_token`;
    every realizable code of one length shares one key."""
    length = _PASS
    if count != n + 1:
        length = PropertyCheck(
            False,
            n + 1 if count > n + 1 else None,
            f"{count} tokens but the values sum to {n}, expected {n + 1}",
        )
    marks = PropertyCheck(False, 0, "the first token carries a mark") if marked else _PASS
    prefixes = _PASS
    if short:
        # The first k - 1 values sum to at least k - 1: the sum is k - 1.
        detail = f"sum of the first {short} values is {short - 1}, needs >= {short}"
        prefixes = PropertyCheck(False, min(short, count - 1), detail)
    groups = _PASS
    if not (length.passed and prefixes.passed):
        groups = _NOT_EVALUATED
    elif fault:
        detail = _GROUP_FAULTS[fault].format(at=at, other=other)
        groups = PropertyCheck(False, at, detail)
    adm = AdmissibilityReport((length, marks, prefixes, groups))
    if not adm.passed:
        return ValidationReport(
            adm, False, detail="fails necessary code properties " + str(adm.failing)
        )
    return ValidationReport(adm, True)


# ======================================================================
# code <-> decorated tree
# ======================================================================

def code_to_graph(code: Code) -> DistinguishedGraph:
    """Decode a code into a decorated tree (needs properties 1 and 3)."""
    tokens = code.tokens
    try:
        tree = PlaneRootedTree.from_up_degrees([t.value for t in tokens])
    except ValueError as exc:
        raise ValueError(f"code {serialize_code(code)!r} is not a tree sequence: {exc}")
    colors = (ROOT_LOWER_DIRECTION,) + tuple(
        RED if t.overline else BLACK for t in tokens[1:]
    )
    primes = (False,) + tuple(bool(t.prime) for t in tokens[1:])
    # One slot per vertex, the root's fixed and every color +1 or -1 by
    # construction: the graph's checks would find nothing.
    return _unchecked(DistinguishedGraph, tree=tree, colors=colors, primes=primes)


def graph_to_code(graph: DistinguishedGraph) -> Code:
    """Encode a decorated tree; inverse of :func:`code_to_graph`."""
    tree = graph.tree
    tokens = [cached_token(len(tree.children[0]), False, False)]
    for v in range(1, tree.vertex_count):
        tokens.append(
            cached_token(
                len(tree.children[v]), graph.colors[v] == RED, graph.primes[v]
            )
        )
    return Code(tuple(tokens))


def are_equivalent(a: Code, b: Code) -> bool:
    """Whether two realizable codes denote the same flow class.

    Codes classify flows exactly, so this is token equality; passing an
    unrealizable code is an error.
    """
    for c in (a, b):
        if not check_realizable(c).realizable:
            raise ValueError(f"code {serialize_code(c)!r} is not realizable")
    return a.tokens == b.tokens


# ======================================================================
# JSON interchange for decorated trees
# ======================================================================

def graph_to_json(graph: DistinguishedGraph) -> dict:
    """Plain-dict form of a decorated tree, vertices in level order."""
    tree = graph.tree
    parents = tree.parents()
    vertices = []
    for v in range(tree.vertex_count):
        vertices.append(
            {
                "id": v,
                "parent": parents[v],
                "children": list(tree.children[v]),
                "color": None if v == 0 else graph.colors[v],
                "prime": graph.primes[v],
            }
        )
    return {"separatrices": tree.separatrix_count, "vertices": vertices}


def graph_from_json(doc: dict) -> DistinguishedGraph:
    """Rebuild a decorated tree from its plain-dict form.

    Integer fields must hold ints proper: JSON ``true`` equals 1 in
    Python, so ``type(x) is int`` keeps booleans out.  ``prime`` must
    hold a boolean proper, so that no other truthy value counts as one.
    """
    if not isinstance(doc, dict):
        raise ValueError("graph document must be an object")
    try:
        declared_n = doc["separatrices"]
        vertices = doc["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph document lacks required key: {exc}")
    if not isinstance(vertices, list) or not vertices:
        raise ValueError("graph document needs a non-empty vertex list")

    children = []
    colors = [ROOT_LOWER_DIRECTION]
    primes = [False]
    declared_parents = []
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict):
            raise ValueError(f"vertex {i} is not an object")
        for key in ("id", "parent", "children", "color", "prime"):
            if key not in entry:
                raise ValueError(f"vertex {i} lacks key {key!r}")
        if type(entry["id"]) is not int or entry["id"] != i:
            raise ValueError(f"vertex ids must run 0..{len(vertices) - 1} in order")
        kids = entry["children"]
        if not isinstance(kids, list) or not all(type(c) is int for c in kids):
            raise ValueError(f"children of vertex {i} must be a list of ids")
        children.append(tuple(kids))
        if entry["parent"] is not None and type(entry["parent"]) is not int:
            raise ValueError(f"parent of vertex {i} must be an id or null")
        declared_parents.append(entry["parent"])
        if type(entry["prime"]) is not bool:
            raise ValueError(f"prime of vertex {i} must be true or false")
        if i == 0:
            if entry["color"] is not None:
                raise ValueError("the root has no color")
            if entry["prime"]:
                raise ValueError("the root carries no prime")
        else:
            if type(entry["color"]) is not int or entry["color"] not in (BLACK, RED):
                raise ValueError(f"vertex {i} needs color 1 or -1")
            colors.append(entry["color"])
            primes.append(entry["prime"])

    tree = PlaneRootedTree(tuple(children))
    if declared_parents != list(tree.parents()):
        raise ValueError("declared parents disagree with the child lists")
    if type(declared_n) is not int or declared_n != tree.separatrix_count:
        raise ValueError(
            f"separatrices is {declared_n}, child lists give {tree.separatrix_count}"
        )
    return DistinguishedGraph(tree, tuple(colors), tuple(primes))
