"""The line reader against the token parser behind it.

``parse_specification`` hands each line first to ``dsl._read_rule``, which
builds the rule of a plainly written line directly and declines every other
line; ``_tokenize`` and ``_parse_rule`` parse what it declines, and stay the
reference.  The reader must be sound: a line it accepts must parse, under the
token parser, to an equal rule with the same line number.  The lines of one
spec share a memo of the constraints read so far, which must not change what
any line reads as.
"""

from __future__ import annotations

import random

import pytest

from intentguard import dsl
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


def with_odd_characters(rng: random.Random, line: str) -> str:
    """``line`` with up to two odd characters inserted."""
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(line))
        line = line[:at] + rng.choice(ODD_CHARACTERS) + line[at:]
    return line


def odd_lines(rng: random.Random, count: int) -> list[str]:
    """Seeded source lines, each with up to two odd characters inserted."""
    return [with_odd_characters(rng, generators.spec_source_line(rng)) for _ in range(count)]


def unsound(line: str) -> str | None:
    """Why the reader's answer for ``line`` differs from the token parser's,
    or None when the reader declines the line or agrees."""
    rule = _read_rule(line, LINENO, {})
    return None if rule is None else disagreement(line, rule)


def disagreement(line: str, rule: Rule) -> str | None:
    """Why ``rule``, read from ``line``, differs from the token parser's rule."""
    try:
        reference = _parse_rule(_tokenize(line, LINENO), LINENO)
    except Exception as exc:  # noqa: BLE001 - any failure of the reference is a disagreement
        return f"{line!r}: read as {render_rule(rule)!r}, but the token parser raised {exc!r}"
    if rule != reference or rule.line != reference.line:
        return f"{line!r}: read as {render_rule(rule)!r} (line {rule.line}), parsed as {render_rule(reference)!r}"
    return None


def test_every_line_the_reader_accepts_parses_to_the_same_rule():
    lines = odd_lines(random.Random(SEED), N_LINES)
    accepted = sum(_read_rule(line, LINENO, {}) is not None for line in lines)
    problems = [problem for problem in map(unsound, lines) if problem is not None]
    assert not problems, f"{len(problems)} unsound lines; first: {problems[0]}"
    # a reader that declined nearly everything would pass vacuously
    assert accepted >= N_LINES // 10


def test_lines_sharing_one_memo_parse_to_the_same_rules(monkeypatch):
    """The lines of one spec share one memo.  Here every name is one of four,
    so one variable recurs with other operators and literals, and a node read
    on one line is reused on lines whose odd characters sit elsewhere."""
    monkeypatch.setattr(generators, "identifier", lambda rng: rng.choice(("a", "b", "_c", "Dd")))
    lines = odd_lines(random.Random(SEED), N_LINES)
    memo: dict = {}
    # ids of the constraints read so far; the memo keeps each node alive
    earlier: set[int] = set()
    problems, reused = [], 0
    for line in lines:
        rule = _read_rule(line, LINENO, memo)
        if rule is None:
            continue
        if (problem := disagreement(line, rule)) is not None:
            problems.append(problem)
        constraints = [c for p in rule.predicates if isinstance(p, StatePredicate) for c in p.constraints]
        reused += not line.isascii() and any(id(c) in earlier for c in constraints)
        earlier.update(map(id, constraints))
    assert not problems, f"{len(problems)} unsound lines; first: {problems[0]}"
    # a memo no line with odd characters reused would test no sharing
    assert reused >= N_LINES // 50


def test_equal_spellings_in_one_spec_share_one_node():
    """Node identity is no part of the API; this holds the parse to building
    each spelling once, and to never building ``true``, ``false`` or ``Today``."""
    spec = parse_specification(
        'S(x = 1, y = "a") -> A\n'
        'A & S(y = "a", x = 1.0) -> B\n'
        "B & S(x  =  1) & T(b = TRUE, c = true, d = Today) -> Done\n"
        "T(b = False, d = today) -> Done # the token parser reads a line holding a comment\n"
    )
    first, second, third, fourth = (
        [c for p in rule.predicates if isinstance(p, StatePredicate) for c in p.constraints] for rule in spec.rules
    )
    (x1, y1), (y2, x2), (x3, *words) = first, second, third
    assert y2 is y1 and x3 is x1
    # equal constants that print differently stay apart
    assert x2 == x1 and x2 is not x1 and render_rule(spec.rules[1]).endswith("x = 1.0) -> B")
    shared = [dsl._TRUE, dsl._TRUE, dsl._TODAY, dsl._FALSE, dsl._TODAY]
    assert [id(c.constant) for c in words + fourth] == [id(c) for c in shared]
    assert Constant.boolean(True) is dsl._TRUE and Constant.boolean(0) is dsl._FALSE and Constant.today() is dsl._TODAY


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
    assert [line for line in READ_LINES if _read_rule(line, LINENO, {}) is None] == []
    assert [line for line in DECLINED_LINES if _read_rule(line, LINENO, {}) is not None] == []


# every spelling of every operator, and ``not in`` with other blanks between its words
OPERATOR_SPELLINGS = (
    ("=", Operator.EQ), ("!=", Operator.NEQ), ("~=", Operator.APPROX), (">", Operator.GT), (">=", Operator.GE),
    ("<", Operator.LT), ("<=", Operator.LE), ("in", Operator.IN), ("not in", Operator.NOT_IN),
    ("≠", Operator.NEQ), ("≃", Operator.APPROX), ("≥", Operator.GE), ("≤", Operator.LE),
    ("⊆", Operator.IN), ("⊄", Operator.NOT_IN), ("not \t in", Operator.NOT_IN),
)


def test_the_spelling_list_is_the_readers_table():
    assert {spelling for spelling, _ in OPERATOR_SPELLINGS} == {*dsl._SPELLED_OPERATORS, "not \t in"}
    # the token pattern spells operators through the same table
    assert dsl._OPERATOR_SHAPE in dsl._TOKEN_PATTERN.pattern
    assert "NOT_IN" not in dsl._TOKEN_PATTERN.groupindex


@pytest.mark.parametrize("spelling, operator", OPERATOR_SPELLINGS, ids=[repr(s) for s, _ in OPERATOR_SPELLINGS])
def test_both_parsers_read_each_operator_spelling_alike(spelling, operator):
    literal, constant = ('["a"]', Constant.text_list(("a",))) if operator.list_constant else ("1", Constant.number(1))
    line = f"S(x {spelling} {literal}) -> Done"
    expected = Rule((StatePredicate("S", (Constraint("x", operator, constant),)),), "Done")
    assert _read_rule(line, LINENO, {}) == expected
    # a comment makes the reader decline the line, so the token parser reads it
    commented = f"{line} # c"
    assert _read_rule(commented, LINENO, {}) is None
    tokens = _tokenize(commented, LINENO)
    assert tokens[3][:2] == ("OP", operator.value)
    assert _parse_rule(tokens, LINENO) == expected


def test_the_reader_takes_every_canonical_line():
    """Every rule the renderer writes is a plainly written line, so set-up and
    each encoder draft never reach the token parser for it."""
    rng = random.Random(SEED)
    for _ in range(300):
        for rule in generators.specification(rng).rules:
            line = render_rule(rule)
            assert _read_rule(line, LINENO, {}) == rule, line


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
