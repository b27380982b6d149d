"""Golden parse outcomes for single source lines.

``golden/spec_lines.jsonl`` holds one entry per line: the canonical rendering
when the line parses, else the ``SpecSyntaxError`` as ``[message, line, column,
expected]``.  Entries marked ``crash`` name an exception other than
``SpecSyntaxError`` that the parser raised when the corpus was recorded; those
lines must now fail with ``SpecSyntaxError``.

Re-record from the current parser with
``PYTHONPATH=src:tests python tests/test_parser_golden.py``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from intentguard.dsl import _TOKEN_PATTERN, SpecSyntaxError, parse_specification, render_specification

import generators

CORPUS = Path(__file__).resolve().parent / "golden" / "spec_lines.jsonl"
SEED = 20251018
N_SEEDED = 1000

# Hand-picked lines the seeded mutations are unlikely to produce.
EDGE_LINES = (
    "S(x = ²) -> Done",
    "S(x = 1²) -> Done",
    "S(x = -²) -> Done",
    "S(t = ²:30) -> Done",
    "S(x = ٣) -> Done",
    "S(t = ١٩:٣٠, d = 2025-03-14) -> Done",
    'S(x = "a#b") -> Done # "c',
    'S(x = "a\\#b") -> Done',
    'S(x = "a\\',
    'S(x = "a\\   ',
    'S(x = "a\\ " # c',
    'S(x = "a\\"',
    " \tS(x not in [\"a\"]) -> Done",
    "S(x not inx) -> Done",
    "S(x = 1 # ) -> Done",
    "  S(x = 1.) -> Done",
    "S(x = 1) -> Done   ",
    "   # only a comment",
)


def outcome(line: str) -> dict:
    try:
        spec = parse_specification(line)
    except SpecSyntaxError as exc:
        return {"line": line, "error": [str(exc), exc.line, exc.column, list(exc.expected)]}
    except Exception as exc:  # noqa: BLE001 - recorded so the test can demand a typed error
        return {"line": line, "crash": type(exc).__name__}
    return {"line": line, "canonical": render_specification(spec)}


def corpus_lines() -> list[str]:
    rng = random.Random(SEED)
    return [generators.spec_source_line(rng) for _ in range(N_SEEDED)] + list(EDGE_LINES)


def load_corpus() -> list[dict]:
    return [json.loads(raw) for raw in CORPUS.read_text(encoding="utf-8").splitlines()]


def test_corpus_covers_both_outcomes():
    entries = load_corpus()
    parsed = sum("canonical" in e for e in entries)
    assert len(entries) >= 1000
    assert parsed >= len(entries) // 4
    assert sum("error" in e for e in entries) >= len(entries) // 4


def test_every_line_reproduces_its_recorded_outcome():
    mismatches = []
    for entry in load_corpus():
        if "crash" in entry:
            with pytest.raises(SpecSyntaxError):
                parse_specification(entry["line"])
            continue
        actual = outcome(entry["line"])
        if actual != entry:
            mismatches.append((entry, actual))
    assert not mismatches, f"{len(mismatches)} lines changed outcome; first: {mismatches[0]}"


def test_every_token_prefix_parses_or_raises_a_syntax_error():
    """A line cut after any of its tokens is a line the parser runs out of
    tokens on; it must say so with ``SpecSyntaxError``, never ``IndexError``."""
    crashes = []
    for entry in load_corpus():
        for match in _TOKEN_PATTERN.finditer(entry["line"]):
            if match.lastgroup == "END":
                break
            prefix = outcome(entry["line"][: match.end()])
            if "crash" in prefix:
                crashes.append(prefix)
    assert not crashes, f"{len(crashes)} prefixes crashed; first: {crashes[0]}"


if __name__ == "__main__":
    CORPUS.write_text(
        "".join(json.dumps(outcome(line), ensure_ascii=True) + "\n" for line in corpus_lines()),
        encoding="utf-8",
    )
