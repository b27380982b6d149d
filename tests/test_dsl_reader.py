"""The line reader against the token parser behind it.

``parse_specification`` hands each line first to ``dsl._read_rule``, which
builds the rule of a plainly written line directly and declines every other
line; ``_tokenize`` and ``_parse_rule`` parse what it declines, and stay the
reference.  The reader must be sound: a line it accepts must parse, under the
token parser, to an equal rule with the same line number.
"""

from __future__ import annotations

import random

import pytest

from intentguard.dsl import (
    Constant,
    Constraint,
    Operator,
    Rule,
    Specification,
    SpecSyntaxError,
    StatePredicate,
    _parse_rule,
    _read_rule,
    _tokenize,
    parse_specification,
    render_rule,
    render_specification,
)

import generators

# Characters on which \w, \d, str.isalpha, str.isdecimal and str.isidentifier
# disagree, and blanks and invisibles that only some of them count as blanks.
ODD_CHARACTERS = ("·", "²", "½", "٣", "Ⅻ", "𝟙", "ℕ", "ǅ", "\u00a0", "\u0301", "\u200b", "\x0c")
SEED = 7
N_LINES = 10_000
LINENO = 3


def odd_lines(rng: random.Random, count: int) -> list[str]:
    """Seeded source lines, each with up to two odd characters inserted."""
    lines = []
    for _ in range(count):
        line = generators.spec_source_line(rng)
        for _ in range(rng.randint(0, 2)):
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(ODD_CHARACTERS) + line[at:]
        lines.append(line)
    return lines


def unsound(line: str) -> str | None:
    """Why the reader's answer for ``line`` differs from the token parser's,
    or None when the reader declines the line or agrees."""
    rule = _read_rule(line, LINENO)
    if rule is None:
        return None
    try:
        reference = _parse_rule(_tokenize(line, LINENO), LINENO)
    except Exception as exc:  # noqa: BLE001 - any failure of the reference is a disagreement
        return f"{line!r}: read as {render_rule(rule)!r}, but the token parser raised {exc!r}"
    if rule != reference or rule.line != reference.line:
        return f"{line!r}: read as {render_rule(rule)!r} (line {rule.line}), parsed as {render_rule(reference)!r}"
    return None


def test_every_line_the_reader_accepts_parses_to_the_same_rule():
    lines = odd_lines(random.Random(SEED), N_LINES)
    accepted = sum(_read_rule(line, LINENO) is not None for line in lines)
    problems = [problem for problem in map(unsound, lines) if problem is not None]
    assert not problems, f"{len(problems)} unsound lines; first: {problems[0]}"
    # a reader that declined nearly everything would pass vacuously
    assert accepted >= N_LINES // 10


# Lines the reader must take, each spelled in a way canonical text is not.
READ_LINES = (
    'S(x = "a, b)", y in ["c)", "d,e"]) -> Done',
    'S(x = "a\\"b\\\\") -> Done',
    "S(á = 1, x = x½, ǅ = ℕ) -> Done",
    "S(x in[\"a\"], y not\u2028in []) -> Done",
    "S(x = -5, y >= -0.25, z=1)&A->Done",
    "S(x = ٣, t = ١٩:٣٠, d = ٢٠٢٥-٠٣-١٤) -> Done",
    "S(x ≥ 1, y ⊄ [\"a\"], z ≠ 2) -> Done",
    "S(x = 1) -> Done\r",
    "\x0cS(x = TRUE, d = today)\u00a0-> Done\u2028",
)
# Lines the reader must leave to the token parser: each is a comment, an
# error, or spelled in a way the reader does not split or match soundly.
DECLINED_LINES = (
    'S(x = "a & b") -> Done',
    'S(x = "a -> b") -> Done',
    "S·x(a = 1) -> Done",
    "S(x\u0301 = 1) -> Done",
    "S(²a = 1) -> Done",
    "S(x = ½) -> Done",
    "S(x = 𝟙a) -> Done",
    'S(xin ["a"]) -> Done',
    "S(x inx) -> Done",
    "S(x not iny) -> Done",
    "S(in = 1) -> Done",
    "S(not = 1) -> Done",
    "S(x = in) -> Done",
    "S(x = not) -> Done",
    "in -> Done",
    "S(x = 1) -> not",
    "S(x = 12ab) -> Done",
    "S(x = 2025-02-30) -> Done",
    "S(x = 24:00) -> Done",
    "S(x = 1.) -> Done",
    'S(x in ["a",]) -> Done',
    "S() -> Done",
    "S(x = 1) -> Done # note",
    'S(x = "a#b") -> Done',
    "# S(x = 1) -> Done",
    "S(x = 1) → Done",
    "S(x = 1) ∧ A -> Done",
    "S(x = 1)(y = 2) -> Done",
    "S(x = 1) & & A -> Done",
    "S(x = 1) -> Done -> Done",
    "S(x = 1) -> Done(",
    "",
)


def test_hand_picked_lines_are_read_soundly_or_declined():
    problems = [problem for problem in map(unsound, READ_LINES) if problem is not None]
    assert not problems, "\n".join(problems)
    assert [line for line in READ_LINES if _read_rule(line, LINENO) is None] == []
    assert [line for line in DECLINED_LINES if _read_rule(line, LINENO) is not None] == []


def test_the_reader_takes_every_canonical_line():
    """Every rule the renderer writes is a plainly written line, so set-up and
    each encoder draft never reach the token parser for it."""
    rng = random.Random(SEED)
    for _ in range(300):
        for rule in generators.specification(rng).rules:
            line = render_rule(rule)
            assert _read_rule(line, LINENO) == rule, line


# ---------------------------------------------------------------------------
# Line ends: a line ends at "\n" alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r"])
def test_text_holding_a_unicode_line_separator_round_trips(separator):
    """``str.splitlines`` broke a line at each of these, inside a string too."""
    constraint = Constraint("x", Operator.EQ, Constant.text(f"a{separator}b"))
    spec = Specification((Rule((StatePredicate("S", (constraint,)),), "Done"),))
    assert parse_specification(render_specification(spec)) == spec


def test_crlf_lines_keep_their_numbers():
    spec = parse_specification("# heading\r\n\r\nA(x = 1) -> Done\r\n")
    assert [rule.line for rule in spec.rules] == [3]
    with pytest.raises(SpecSyntaxError, match=r"^line 2, column 7: "):
        parse_specification("A(x = 1) -> Done\r\nB(y = ) -> Done\r\n")


@pytest.mark.parametrize(
    "text, line", [("", 1), ("\n", 1), ("# c\n", 1), ("# c\n\n", 2), ("# c\r\n \r\n", 2), ("\n\n# c", 3)]
)
def test_no_rules_found_names_the_last_line(text, line):
    with pytest.raises(SpecSyntaxError) as info:
        parse_specification(text)
    assert (str(info.value), info.value.line) == (f"line {line}, column 1: no rules found (expected rule)", line)
