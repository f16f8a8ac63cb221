"""Seeded inputs with known answers.

Everything here runs before timing starts.  The answers come from the
per-cell rule (membership of each cell's decoration in
``enumerate_cell_configs(k, d)``) and from arithmetic on token values,
never from ``check_realizable``, so a wrong verdict from the validator
shows up as a failed operation instead of being copied into the label.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from diskflows.model import enumerate_cell_configs

# Verdicts an input can have.  "unrealizable" covers every text that
# parses into a tree but whose decoration fits no cell configuration;
# the validator may report it as inadmissible (prime groups) or as
# admissible but unrealizable, and both are correct.
REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"
INADMISSIBLE = "inadmissible"
SYNTAX = "syntax"

# Classes of the validate-mix stream, in per-mille of the stream.  The
# long class is the slow tail: p99 falls inside it (its slowest quarter
# holds more than 1 % of the stream), and the big-value class stays
# below it, so a change to either class moves p99 without sitting on a
# boundary between two classes.  Short codes are the bulk, so p50 falls
# inside the short class.
MIX_PER_MILLE = {"short": 820, "bad": 120, "long": 50, "big": 10}
LONG_N = (100, 2000)
BIG_VALUE = (10_000, 100_000)
SHORT_MAX_N = 6
# Per-token mark probabilities for short decorations; they give about
# 65 % realizable codes.
SHORT_OVERLINE = 0.5
SHORT_PRIME = 0.2
# Share of long codes that get one overline flipped after sampling.
LONG_FLIP = 0.3
RENDER_MAX_N = 40

_COMPACT = re.compile(r"\d~?'?")


@dataclass(frozen=True)
class Case:
    """One input text with its class and its expected verdict."""

    cls: str
    text: str
    expect: str
    n: int = 0
    coherent_cells: int = 0
    red: int = 0


# ----------------------------------------------------------------------
# trees and decorations
# ----------------------------------------------------------------------

def random_tree(rng: random.Random, n: int, big_degree: int = 0) -> list[int]:
    """Level-order up-degrees of a random plane tree with n edges.

    Draws a composition of n into n+1 parts and rotates it by the cycle
    lemma into the one rotation whose prefix sums satisfy the tree
    condition.  ``big_degree`` adds that many edges to one random vertex
    (taken from the composition), so the tree has a vertex of at least
    that degree.
    """
    free = n - big_degree
    parts = [0] * (n + 1)
    bars = set(rng.sample(range(free + n), n))
    j = 0
    for pos in range(free + n):
        if pos in bars:
            j += 1
        else:
            parts[j] += 1
    if big_degree:
        parts[rng.randrange(n + 1)] += big_degree
    prefix, low, start = 0, 1, 0
    for i, d in enumerate(parts):
        prefix += d - 1
        if prefix < low:
            low, start = prefix, i + 1
    start %= n + 1
    return parts[start:] + parts[:start]


def is_tree_sequence(values: list[int]) -> bool:
    """Properties 1 and 3: the values sum to the token count minus one
    and every prefix of k values sums to at least k."""
    if sum(values) != len(values) - 1:
        return False
    prefix = 0
    for k in range(1, len(values)):
        prefix += values[k - 1]
        if prefix < k:
            return False
    return True


_CONFIG_SETS: dict[tuple[int, int], frozenset] = {}


def _config_set(k: int, lower: int) -> frozenset:
    key = (k, lower)
    if key not in _CONFIG_SETS:
        _CONFIG_SETS[key] = frozenset(
            (dec.child_colors, dec.child_primes) for dec in enumerate_cell_configs(k, lower)
        )
    return _CONFIG_SETS[key]


def sample_realizable(rng: random.Random, degrees: list[int]) -> tuple[list[int], list[bool]]:
    """Colors (+1/-1) and primes of a uniformly random realizable
    decoration: one configuration per cell, top down."""
    v_count = len(degrees)
    colors = [1] * v_count
    primes = [False] * v_count
    nxt = 1
    for v, k in enumerate(degrees):
        dec = rng.choice(enumerate_cell_configs(k, colors[v]))
        for j in range(k):
            colors[nxt + j] = dec.child_colors[j]
            primes[nxt + j] = dec.child_primes[j]
        nxt += k
    return colors, primes


def realizable_by_cells(degrees: list[int], colors: list[int], primes: list[bool]) -> bool:
    """Whether every cell's decoration is one of its configurations."""
    nxt = 1
    for v, k in enumerate(degrees):
        kids = range(nxt, nxt + k)
        pair = (tuple(colors[c] for c in kids), tuple(primes[c] for c in kids))
        if pair not in _config_set(k, colors[v]):
            return False
        nxt += k
    return True


def coherent_cells(degrees: list[int], colors: list[int]) -> int:
    """Cells whose boundary is one cycle: every inner loop has the
    color opposite to the cell's lower side (leaves included)."""
    count = 0
    nxt = 1
    for v, k in enumerate(degrees):
        if all(colors[c] == -colors[v] for c in range(nxt, nxt + k)):
            count += 1
        nxt += k
    return count


def code_text(degrees: list[int], colors: list[int], primes: list[bool]) -> str:
    """Canonical text: compact when every value is one digit."""
    parts = [str(degrees[0])] + [
        f"{d}{'~' if c == -1 else ''}{chr(39) if p else ''}"
        for d, c, p in zip(degrees[1:], colors[1:], primes[1:])
    ]
    sep = "" if max(degrees) <= 9 else " "
    return sep.join(parts)


def parse_text(text: str) -> tuple[list[int], list[int], list[bool]]:
    """Values, colors and primes of a well-formed code text."""
    parts = text.split(" ") if " " in text else _COMPACT.findall(text)
    degrees, colors, primes = [], [], []
    for part in parts:
        marks = part.lstrip("0123456789")
        degrees.append(int(part[: len(part) - len(marks)]))
        colors.append(-1 if "~" in marks else 1)
        primes.append("'" in marks)
    return degrees, colors, primes


def _case(cls: str, degrees, colors, primes, expect: str | None = None) -> Case:
    if expect is None:
        expect = REALIZABLE if realizable_by_cells(degrees, colors, primes) else UNREALIZABLE
    return Case(
        cls,
        code_text(degrees, colors, primes),
        expect,
        n=len(degrees) - 1,
        coherent_cells=coherent_cells(degrees, colors),
        red=sum(1 for c in colors[1:] if c == -1),
    )


# ----------------------------------------------------------------------
# validate-mix classes
# ----------------------------------------------------------------------

def short_case(rng: random.Random) -> Case:
    n = rng.randint(0, SHORT_MAX_N)
    degrees = random_tree(rng, n)
    colors = [1] + [-1 if rng.random() < SHORT_OVERLINE else 1 for _ in range(n)]
    primes = [False] + [rng.random() < SHORT_PRIME for _ in range(n)]
    return _case("short", degrees, colors, primes)


def long_case(rng: random.Random, n: int) -> Case:
    degrees = random_tree(rng, n, big_degree=10)
    colors, primes = sample_realizable(rng, degrees)
    if rng.random() < LONG_FLIP:
        v = rng.randrange(1, n + 1)
        colors[v] = -colors[v]
    return _case("long", degrees, colors, primes)


_LETTERS = "abxyz+-.,;"


def _inadmissible(rng: random.Random) -> str:
    """A code whose values do not form a tree (property 1 or 3 fails)."""
    base = short_case(rng).text.replace("~", "").replace("'", "")
    values = [int(ch) for ch in base]
    kind = rng.randrange(3)
    if kind == 0:
        values.append(0)
    elif kind == 1 and len(values) > 1:
        values.pop()
    else:
        values = values[1:] + values[:1]
        if values[0] == 0 and len(values) == 1:
            values = [1]
    if is_tree_sequence(values):
        values.append(0)
    return "".join(str(d) for d in values)


def _malformed(rng: random.Random) -> str:
    """A text that breaks the grammar."""
    text = short_case(rng).text
    kind = rng.randrange(7)
    if kind == 0:
        pos = rng.randrange(len(text) + 1)
        return text[:pos] + rng.choice(_LETTERS) + text[pos:]
    if kind == 1:
        return rng.choice(("", " ", "\t", " \n "))
    if kind == 2:
        return text[0] + "~" + text[1:]
    if kind == 3:
        return text[0] + "~~" + text[1:]
    if kind == 4:
        return text + "  0"
    if kind == 5:
        return f"{2**32 + rng.randrange(1000)} " + " ".join(["0"] * rng.randint(1, 3))
    return text[:-1] + "٣"


def bad_case(rng: random.Random) -> Case:
    if rng.random() < 0.5:
        return Case("bad", _inadmissible(rng), INADMISSIBLE)
    return Case("bad", _malformed(rng), SYNTAX)


def big_case(rng: random.Random, value: int) -> Case:
    zeros = rng.randint(1, 3)
    return Case("big", " ".join([str(value)] + ["0"] * zeros), INADMISSIBLE)


def _spread(count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers evenly spread over [lo, hi], so the size mix
    does not depend on the seed."""
    if count == 1:
        return [(lo + hi) // 2]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def validate_mix(seed: int, size: int) -> list[Case]:
    """The validate-mix stream: ``size`` cases in seeded order."""
    rng = random.Random(seed)
    counts = {cls: max(1, size * pm // 1000) for cls, pm in MIX_PER_MILLE.items()}
    cases = [short_case(rng) for _ in range(counts["short"])]
    cases += [bad_case(rng) for _ in range(counts["bad"])]
    cases += [long_case(rng, n) for n in _spread(counts["long"], *LONG_N)]
    cases += [big_case(rng, v) for v in _spread(counts["big"], *BIG_VALUE)]
    rng.shuffle(cases)
    return cases


# ----------------------------------------------------------------------
# render sample
# ----------------------------------------------------------------------

def render_sample(seed: int, per_n: int, max_n: int = RENDER_MAX_N) -> list[Case]:
    """``per_n`` realizable codes for every n in 1..max_n, shuffled."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, max_n + 1):
        for _ in range(per_n):
            degrees = random_tree(rng, n)
            colors, primes = sample_realizable(rng, degrees)
            cases.append(_case("render", degrees, colors, primes, REALIZABLE))
    rng.shuffle(cases)
    return cases
