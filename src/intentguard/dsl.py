"""Horn-clause task specifications: syntax tree, parser, canonical printer,
static checker, and runtime constraint evaluation.

A specification is a list of rules, one per line.  Each rule is a conjunction
of predicates implying an objective::

    RestaurantInfo(name = "R") & ReserveInfo(time < 19:00) -> Reserve
    Reserve & ReserveResult(success = true) -> Done

A predicate is either a state predicate (a state name with constraints on its
typed variables) or a reference to another rule's objective.  The reserved
objective ``Done`` marks task completion.  Constraints compare one variable
against a constant with one of the operators ``= != ~= > >= < <= in "not in"``
(unicode spellings of the same operators are accepted on input).

Evaluation is three-valued only in the sense that an unobserved variable makes
every constraint over it false, for every operator.
"""

from __future__ import annotations

import operator
import re
import unicodedata
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from datetime import date, time
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import Callable, Union

from ._files import read_text
from .schema import (
    _BOOLEAN, _DATE, _ENUM, _NAME_SHAPE, _NUMBER, _TEXT, _TEXT_LIST, _TIME, _WORD_CONSTANTS, ConstKind,
    StateSchema, VarType, _letter_first,
)

DONE = "Done"
TODAY = "Today"


#: The variable kinds each family of operators applies to; a list is only ever a constant.
_DECLARABLE = (_TEXT, _NUMBER, _BOOLEAN, _DATE, _TIME, _ENUM)
_ORDERED = (_NUMBER, _DATE, _TIME)
_CHOICE = (_TEXT, _ENUM)


class Operator(Enum):
    """Comparison operators usable inside constraints.

    A member's ``value`` is its canonical spelling.  It also carries the rest
    of what the operator means: ``kinds``, the variable kinds it applies to;
    ``list_constant``, whether its constant is a string list; ``phrase``, its
    wording in feedback; and ``compare``, the test it makes of the normalized
    value against the normalized constant, or None for ``~=``, which scores
    similarity instead.
    """

    EQ = ("=", _DECLARABLE, False, "equal to", operator.eq)
    NEQ = ("!=", _DECLARABLE, False, "not equal to", operator.ne)
    APPROX = ("~=", (_TEXT,), False, "similar to", None)
    GT = (">", _ORDERED, False, "greater than", operator.gt)
    GE = (">=", _ORDERED, False, "greater than or equal to", operator.ge)
    LT = ("<", _ORDERED, False, "less than", operator.lt)
    LE = ("<=", _ORDERED, False, "less than or equal to", operator.le)
    IN = ("in", _CHOICE, True, "one of", lambda item, items: item in items)
    NOT_IN = ("not in", _CHOICE, True, "not one of", lambda item, items: item not in items)

    def __new__(cls, spelling: str, kinds: tuple[ConstKind, ...], list_constant: bool, phrase: str,
                compare: Callable[[object, object], bool] | None) -> "Operator":
        member = object.__new__(cls)
        member._value_ = spelling
        member.kinds = kinds
        member.list_constant = list_constant
        member.phrase = phrase
        member.compare = compare
        return member


#: Unicode operator spellings accepted by the parser, mapped to canon.
UNICODE_OPERATORS = {
    "∧": "&",
    "→": "->",
    "≠": "!=",
    "≃": "~=",
    "≥": ">=",
    "≤": "<=",
    "⊆": "in",
    "⊄": "not in",
}

#: ``a ~= b`` holds when the similarity of the normalized texts reaches this.
SIMILARITY_THRESHOLD = 0.7


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """Make ``cls`` a slotted frozen dataclass whose ``__init__`` stores each
    field through its slot's ``__set__``.

    A parse builds hundreds of syntax-tree nodes, and each event builds its
    own updates, event, verdict and feedback.  The ``__init__`` a frozen
    dataclass generates stores each field through ``object.__setattr__``,
    which looks the slot up by name; calling the slot's ``__set__`` is
    cheaper (CPython 3.11.7: ``Constant`` 497 -> 316 ns, ``Rule`` 1079 -> 615
    ns).  The ``__init__`` is generated as ``dataclasses`` generates its own:
    it takes the fields in order, with their defaults (a node field takes no
    ``default_factory``), and calls ``__post_init__`` last when the class
    defines one.  On CPython 3.11 a keyword call of an ``__init__`` this
    small costs about half as much again, so the per-event callers pass the
    fields by position.

    ``dataclass(slots=True)`` builds a new class to hold the slots, but the
    frozen ``__setattr__`` and ``__delattr__`` it generated still name the
    class from before, so a name that is not a field would fall through to
    ``super()`` and raise ``TypeError``.  A node refuses every name with the
    dataclass's own error; ``__init__``, ``object.__setattr__`` and pickling
    store through the slots directly.  Equality and hashing are the
    generated ones.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    node_fields = fields(cls)
    namespace: dict[str, object] = {"__name__": cls.__module__}
    params, body = [], []
    for f in node_fields:
        namespace[f"_store_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _store_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in node_fields}, "return": None}
    cls.__init__ = init
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return cls


# The syntax tree holds tuples whatever it is built from, so a list the
# caller keeps cannot change a spec after a clean check (``Session`` trusts
# that record); a parsed tree already holds tuples and pays one type test per
# container.
@_node
class Constant:
    """A typed constant literal.

    ``value`` holds, per kind: str (TEXT), Decimal (NUMBER), bool (BOOLEAN),
    datetime.date or the symbolic string ``"Today"`` (DATE), datetime.time
    (TIME), str variant name (ENUM), tuple[str, ...] (TEXT_LIST).
    """

    kind: ConstKind
    value: object

    @staticmethod
    def text(value: str) -> "Constant":
        return Constant(_TEXT, value)

    @staticmethod
    def number(value: Decimal | int | str) -> "Constant":
        return Constant(_NUMBER, Decimal(str(value)))

    @staticmethod
    def boolean(value: bool) -> "Constant":
        return _TRUE if value else _FALSE

    @staticmethod
    def calendar(value: date) -> "Constant":
        return Constant(_DATE, value)

    @staticmethod
    def today() -> "Constant":
        return _TODAY

    @staticmethod
    def clock(value: time) -> "Constant":
        return Constant(_TIME, value)

    @staticmethod
    def enum(variant: str) -> "Constant":
        return Constant(_ENUM, variant)

    @staticmethod
    def text_list(items: tuple[str, ...] | list[str]) -> "Constant":
        return Constant(_TEXT_LIST, tuple(items))


#: The Boolean and ``Today`` constants, each built once and shared.
_TRUE, _FALSE, _TODAY = Constant(_BOOLEAN, True), Constant(_BOOLEAN, False), Constant(_DATE, TODAY)


@_node
class Constraint:
    """One variable compared against a constant: ``variable operator constant``."""

    variable: str
    operator: Operator
    constant: Constant


@_node
class StatePredicate:
    """A state name with one or more constraints on its variables."""

    state_name: str
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if type(self.constraints) is not tuple:
            object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValueError(f"state predicate {self.state_name!r} needs at least one constraint")


@_node
class ObjectiveRef:
    """A reference to the objective another rule concludes."""

    objective_name: str


Predicate = Union[StatePredicate, ObjectiveRef]


@_node
class Rule:
    """A conjunction of predicates implying an objective; ``line`` is the
    source line it was parsed from, if any."""

    predicates: tuple[Predicate, ...]
    conclusion: str
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if type(self.predicates) is not tuple:
            object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.predicates:
            raise ValueError("a rule needs at least one predicate")


@dataclass(frozen=True)
class Specification:
    rules: tuple[Rule, ...]

    #: The schema object :func:`check_specification` last found this spec
    #: clean against; both are immutable, so the finding holds for good.
    #: Not a field: it takes no part in construction or equality.
    _checked_against = None

    def __post_init__(self) -> None:
        if type(self.rules) is not tuple:
            object.__setattr__(self, "rules", tuple(self.rules))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class SpecSyntaxError(ValueError):
    """Parse failure, with position and the token set that would have been accepted."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{hint}")


#: Spellings of the Date and Time literals, shared by the token pattern and
#: :func:`read_literal`.  ``\d`` is a decimal digit of any script.
_DATE_SHAPE = r"\d{4}-\d\d-\d\d"
_TIME_SHAPE = r"\d\d?:\d\d"
#: Spelling of a Number literal; the token pattern also matches a trailing
#: ``.``, to report it as a malformed number.
_NUMBER_SHAPE = r"-?\d+(?:\.\d+)?"
#: Spelling of a Text literal, shared by the token pattern and the reader.
#: It is matched whole, so this is the one place that knows the escapes (\"
#: and \\).  It is written unrolled, as runs of plain characters between
#: escapes, so ``re`` scans each run with one charset loop instead of one
#: group iteration per character; ``(?:[^"\\]|\\["\\])*`` is the same
#: language, and ``tests/test_text_scanners.py`` holds the two equal.
_STRING_SHAPE = r'"[^"\\]*(?:\\["\\][^"\\]*)*"'

_OPERATORS = {o.value: o for o in Operator}
_OPERATOR_SPELLINGS = tuple(sorted(_OPERATORS))
_NOT_IN = Operator.NOT_IN
#: Every spelling of an operator, shared by the token pattern and the reader:
#: the canonical ones and their Unicode forms.
_SPELLED_OPERATORS = {
    **_OPERATORS,
    **{spelling: _OPERATORS[canon] for spelling, canon in UNICODE_OPERATORS.items() if canon in _OPERATORS},
}
#: Longest spellings first; a spelling ending in a letter must end its word,
#: and the blank in ``not in`` may be any run of blanks.
_OPERATOR_SHAPE = "|".join(
    re.escape(spelling).replace(r"\ ", r"\s+") + (r"(?!\w)" if spelling[-1].isalpha() else "")
    for spelling in sorted(_SPELLED_OPERATORS, key=len, reverse=True)
)

# One alternative per token kind, tried in order at each position after
# optional blanks.  END is a comment or the end of the line; ERROR takes any
# character no other alternative starts with, so the pattern matches at every
# position and ``finditer`` skips no text.  A line is tokenized whole before
# any of it is parsed: a lexical error anywhere on the line wins over a syntax
# error earlier on it.
_TOKEN_PATTERN = re.compile(
    rf"""
    \s* (?:
        (?P<END> \#.* | \Z )
      | (?P<STRING> {_STRING_SHAPE} )
      | (?P<DATE> {_DATE_SHAPE} )
      | (?P<TIME> {_TIME_SHAPE} )
      | (?P<NUMBER> -?\d+ (?: \.\d* )? )
      | (?P<ARROW> -> | → )
      | (?P<OP> {_OPERATOR_SHAPE} )
      | (?P<IDENT> \w+ )
      | (?P<AND> [&∧] )
      | (?P<LPAREN> \( ) | (?P<RPAREN> \) ) | (?P<LBRACKET> \[ ) | (?P<RBRACKET> \] ) | (?P<COMMA> , )
      | (?P<ERROR> . )
    )
    """,
    re.VERBOSE,
)
_ESCAPE = re.compile(r'\\(["\\])')


def _unquote(literal: str) -> str:
    text = literal[1:-1]
    return _ESCAPE.sub(r"\1", text) if "\\" in text else text


def _tokenize(line_text: str, lineno: int) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` tokens of one source line, ending in EOL; empty
    for a blank or comment line.  Columns count from the line's first
    non-blank character."""
    offset = len(line_text) - len(line_text.lstrip()) - 1
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_PATTERN.finditer(line_text):
        kind = match.lastgroup
        if kind == "END":
            break
        text = match[kind]
        start = match.start(kind)
        column = start - offset
        if kind == "IDENT":
            if text == "not":
                raise SpecSyntaxError("'not' is only valid as part of 'not in'", lineno, column, ("not in",))
            if not _letter_first(text):
                raise SpecSyntaxError(f"unexpected character {text[0]!r}", lineno, column)
        elif kind == "STRING":
            text = _unquote(text)
        elif kind == "NUMBER":
            if text[-1] == ".":
                raise SpecSyntaxError("malformed number", lineno, column, ("digit",))
        elif kind == "OP":
            # the only spelling missing from the table is ``not in`` with
            # other blanks between its words
            text = _SPELLED_OPERATORS.get(text, _NOT_IN)._value_
        elif kind == "ERROR":
            if text == '"':
                raise _string_error(line_text, start, lineno, offset)
            raise SpecSyntaxError(f"unexpected character {text!r}", lineno, column)
        else:
            text = UNICODE_OPERATORS.get(text, text)
        tokens.append((kind, text, column))
    if tokens:
        tokens.append(("EOL", "", match.start() - offset))
    return tokens


def _string_error(line_text: str, quote: int, lineno: int, offset: int) -> SpecSyntaxError:
    """Name why the string literal opened at ``quote`` failed to match: its
    first bad escape, else the missing closing quote.  Trailing blanks are not
    part of the line, so a backslash followed only by blanks is unterminated."""
    end = len(line_text.rstrip())
    backslash = line_text.find("\\", quote + 1, end)
    while backslash != -1:
        if backslash + 1 == end:
            return SpecSyntaxError("unterminated escape", lineno, backslash - offset)
        escaped = line_text[backslash + 1]
        if escaped not in ('"', "\\"):
            return SpecSyntaxError(f"unsupported escape \\{escaped}", lineno, backslash - offset)
        backslash = line_text.find("\\", backslash + 2, end)
    return SpecSyntaxError("unterminated string literal", lineno, quote - offset, ('"',))


def _unexpected(token: tuple[str, str, int], lineno: int, expected: tuple[str, ...]) -> SpecSyntaxError:
    kind, text, column = token
    message = f"unexpected {kind} {text!r}" if kind != "EOL" else "unexpected end of line"
    return SpecSyntaxError(message, lineno, column, expected)


def _parse_rule(tokens: list[tuple[str, str, int]], lineno: int) -> Rule:
    """The rule one line's tokens spell.  Every token list ends in EOL and no
    step reads past a token it has not checked, so indexing stays in range."""
    predicates: list[Predicate] = []
    i = 0
    while True:
        kind, name, _ = tokens[i]
        if kind != "IDENT":
            raise _unexpected(tokens[i], lineno, ("state name", "objective name"))
        i += 1
        if tokens[i][0] != "LPAREN":
            predicates.append(ObjectiveRef(name))
        else:
            constraints: list[Constraint] = []
            while True:
                if tokens[i + 1][0] != "IDENT":
                    raise _unexpected(tokens[i + 1], lineno, ("variable name",))
                if tokens[i + 2][0] != "OP":
                    raise _unexpected(tokens[i + 2], lineno, _OPERATOR_SPELLINGS)
                constant, after = _parse_literal(tokens, i + 3, lineno)
                constraints.append(Constraint(tokens[i + 1][1], _OPERATORS[tokens[i + 2][1]], constant))
                i = after
                if tokens[i][0] != "COMMA":
                    break
            if tokens[i][0] != "RPAREN":
                raise _unexpected(tokens[i], lineno, ("')'", "','"))
            i += 1
            predicates.append(StatePredicate(name, tuple(constraints)))
        if tokens[i][0] != "AND":
            break
        i += 1
    if tokens[i][0] != "ARROW":
        raise _unexpected(tokens[i], lineno, ("'->'", "'&'"))
    kind, conclusion, _ = tokens[i + 1]
    if kind != "IDENT":
        raise _unexpected(tokens[i + 1], lineno, ("objective name",))
    if tokens[i + 2][0] != "EOL":
        raise _unexpected(tokens[i + 2], lineno, ("end of line",))
    return Rule(tuple(predicates), conclusion, line=lineno)


def _parse_literal(tokens: list[tuple[str, str, int]], i: int, lineno: int) -> tuple[Constant, int]:
    """The constant starting at ``tokens[i]``, and the index after it."""
    kind, text, column = tokens[i]
    if kind == "STRING":
        return Constant.text(text), i + 1
    if kind == "NUMBER":
        return Constant.number(text), i + 1
    if kind == "IDENT":
        return _word_constant(text), i + 1
    if kind == "DATE" or kind == "TIME":
        try:
            return read_literal(_DATE if kind == "DATE" else _TIME, text, shaped=True), i + 1
        except ValueError:
            raise SpecSyntaxError(f"invalid {kind.lower()} {text!r}", lineno, column) from None
    if kind != "LBRACKET":
        raise _unexpected(tokens[i], lineno, ("constant literal",))
    items: list[str] = []
    i += 1
    if tokens[i][0] == "STRING":
        items.append(tokens[i][1])
        i += 1
        while tokens[i][0] == "COMMA":
            if tokens[i + 1][0] != "STRING":
                raise _unexpected(tokens[i + 1], lineno, ("string literal",))
            items.append(tokens[i + 1][1])
            i += 2
    if tokens[i][0] != "RBRACKET":
        raise _unexpected(tokens[i], lineno, ("']'", "string literal"))
    return Constant.text_list(tuple(items)), i + 1


def _word_constant(text: str) -> Constant:
    """The constant a bare word spells: a Boolean, ``Today`` or an Enum variant."""
    lowered = text.lower()
    if lowered not in _WORD_CONSTANTS:
        return Constant.enum(text)
    return Constant.today() if lowered == "today" else Constant.boolean(lowered == "true")


# The reader.  Most lines are rules written plainly, and for them a token list
# is pure overhead, so ``parse_specification`` first hands each line to
# ``_read_rule``.  It splits the line on ``->`` and ``&`` and takes each
# ``variable operator literal`` with one match of ``_READ_CONSTRAINT``,
# building the Rule directly.  It answers None for any line it does not
# recognise whole: a blank line, any ``#`` (a comment, or a string holding
# one), ``→`` or ``∧``, a string holding ``&`` or ``->``, any lexical or
# syntax error.  Only those lines are tokenized, so ``_tokenize`` and
# ``_parse_rule`` alone decide every error, its column and its expected set,
# and the reader need only be sound: a line it accepts gives the Rule the
# token parser gives (``tests/test_dsl_reader.py`` holds it to that).  So each
# piece it matches is the token the tokenizer takes at the same place: its
# patterns are built from the token pattern's shapes and the operator
# spellings, and it reads a name as the tokenizer does: ``\w+`` taken whole,
# never ``in`` or ``not`` (an operator, or an error), and starting with a
# letter or ``_``.  That is ``schema._NAME_SHAPE``, which a schema's names
# must also match, except that its ``[^\W\d]`` is a letter or ``_`` only for
# ASCII.  So a pure-ASCII line, and on any other line a name whose first
# character is ASCII, skips ``_letter_first``; outside ASCII ``[^\W\d]`` also
# admits numerics such as ``²`` and ``½``, which ``_letter_first`` turns
# away.  ``str.isidentifier`` is no substitute: it takes characters ``\w``
# does not, such as ``·``.
#
# Rules restate the shared conditions of their branches, so one parse reads
# the same constraint many times.  ``parse_specification`` keeps one memo per
# call, from the spelling a ``_READ_CONSTRAINT`` match read (its groups but the
# separator) to the Constraint built from it, and every repeat of a spelling
# shares that node, its Constant and its value.  The key is the spelling, not
# the Constant: ``1`` and ``1.0`` are equal constants that print differently.
# The memo lives for one call only; lines the token parser reads share nothing.
#: A predicate's or the conclusion's name, and the parenthesis that opens a
#: state predicate's constraints.
_READ_HEAD = re.compile(rf"\s*({_NAME_SHAPE})\s*(\(?)")
#: One constraint and the ``,`` or ``)`` after it.  Groups: variable,
#: operator, then the literal as one of string, date, time, number, word or
#: the inside of a string list, then the separator.
_READ_CONSTRAINT = re.compile(
    rf"""
    \s* ({_NAME_SHAPE}) \s* ({_OPERATOR_SHAPE}) \s*
    (?: ({_STRING_SHAPE}) | ({_DATE_SHAPE}) | ({_TIME_SHAPE}) | ({_NUMBER_SHAPE}) | ({_NAME_SHAPE})
      | \[ \s* ( (?: {_STRING_SHAPE} (?: \s* , \s* {_STRING_SHAPE} )* )? ) \s* \] )
    \s* ([,)]) \s*
    """,
    re.VERBOSE,
)
_STRING = re.compile(_STRING_SHAPE)


def _read_rule(line: str, lineno: int, memo: dict[tuple, Constraint]) -> Rule | None:
    """The rule ``line`` spells, or None when it is not a plainly written rule.
    ``memo`` maps each constraint spelling read so far to its node."""
    if "#" in line:
        return None
    body, arrow, after = line.partition("->")
    if not arrow:
        return None
    plain = line.isascii()
    match = _READ_HEAD.match(after)
    if match is None or match[2] or match.end() != len(after):
        return None
    conclusion = match[1]
    if not (plain or conclusion[0] < "\x80" or _letter_first(conclusion)):
        return None
    predicates: list[Predicate] = []
    for text in body.split("&"):
        match = _READ_HEAD.match(text)
        if match is None:
            return None
        name, paren = match.groups()
        if not (plain or name[0] < "\x80" or _letter_first(name)):
            return None
        end = match.end()
        if not paren:
            if end != len(text):
                return None
            predicates.append(ObjectiveRef(name))
            continue
        constraints: list[Constraint] = []
        separator = ","
        while separator == ",":
            match = _READ_CONSTRAINT.match(text, end)
            if match is None:
                return None
            groups = match.groups()
            # the separator takes no part in what the constraint is
            spelled, separator = groups[:8], groups[8]
            constraint = memo.get(spelled)
            if constraint is None:
                variable, spelling, string, day, clock, number, word, items = spelled
                if not (plain or variable[0] < "\x80" or _letter_first(variable)):
                    return None
                if string is not None:
                    constant = Constant.text(_unquote(string))
                elif number is not None:
                    constant = Constant.number(number)
                elif word is not None:
                    if not (plain or word[0] < "\x80" or _letter_first(word)):
                        return None
                    constant = _word_constant(word)
                elif items is not None:
                    constant = Constant.text_list(tuple(_unquote(item) for item in _STRING.findall(items)))
                else:
                    kind, literal = (_DATE, day) if day is not None else (_TIME, clock)
                    try:
                        constant = read_literal(kind, literal, shaped=True)
                    except ValueError:
                        return None
                # the only spelling missing from the table is ``not in`` with
                # other blanks between its words
                constraint = memo[spelled] = Constraint(variable, _SPELLED_OPERATORS.get(spelling, _NOT_IN), constant)
            constraints.append(constraint)
            end = match.end()
        if end != len(text):
            return None
        predicates.append(StatePredicate(name, tuple(constraints)))
    return Rule(tuple(predicates), conclusion, line=lineno)


def parse_specification(text: str) -> Specification:
    """Parse DSL source into a :class:`Specification`.

    One rule per line; a line ends at ``\\n``, and a ``\\r`` before it is a
    blank like any other.  Blank lines and ``#`` comments are skipped.  Raises
    :class:`SpecSyntaxError` with line/column and the expected-token set on
    malformed input, including the empty (zero rules) case.
    """
    rules: list[Rule] = []
    memo: dict[tuple, Constraint] = {}
    lines = text.removesuffix("\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        rule = _read_rule(raw, lineno, memo)
        if rule is None:
            tokens = _tokenize(raw, lineno)
            if not tokens:
                continue
            rule = _parse_rule(tokens, lineno)
        rules.append(rule)
    if not rules:
        raise SpecSyntaxError("no rules found", len(lines), 1, ("rule",))
    return Specification(tuple(rules))


def load_specification(path: str | Path) -> Specification:
    """Read and parse the spec file at ``path``, through the one reader that
    :func:`~intentguard.schema.load_schema` and
    :func:`~intentguard.trace.load_trace` use: UTF-8, with no newline
    translated, so a lone ``\\r`` in a Text constant stays in it."""
    return parse_specification(read_text(path))


# ---------------------------------------------------------------------------
# Reading and rendering literals
# ---------------------------------------------------------------------------


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


_LITERAL_SHAPES = {
    _DATE: re.compile(_DATE_SHAPE),
    _TIME: re.compile(_TIME_SHAPE),
    _NUMBER: re.compile(_NUMBER_SHAPE),
}


def read_literal(kind: ConstKind, text: str, shaped: bool = False) -> Constant:
    """The Date (``YYYY-MM-DD``), Time (``H:MM``, ``HH:MM``) or Number
    (``-12.5``) constant that ``text`` spells; ``int()`` reads each Date and
    Time field.  ``ValueError`` for any other spelling, or a day or time that
    does not exist.  ``shaped`` skips the shape match for text the token
    pattern has already matched."""
    if not (shaped or _LITERAL_SHAPES[kind].fullmatch(text)):
        raise ValueError(f"not a {kind.value} literal: {text!r}")
    if kind is _NUMBER:
        return Constant.number(text)
    if kind is _DATE:
        return Constant.calendar(date(int(text[:4]), int(text[5:7]), int(text[8:])))
    hours, minutes = text.split(":")
    return Constant.clock(time(int(hours), int(minutes)))


def render_constant(constant: Constant) -> str:
    """Canonical DSL literal for a constant."""
    kind, value = constant.kind, constant.value
    if kind is _TEXT:
        return _quote(str(value))
    if kind is _NUMBER:
        return format(value, "f")
    if kind is _BOOLEAN:
        return "true" if value else "false"
    if kind is _DATE:
        return TODAY if value == TODAY else value.isoformat()
    if kind is _TIME:
        # what strftime("%H:%M") writes, at half its cost
        return f"{value.hour:02d}:{value.minute:02d}"
    if kind is _ENUM:
        return str(value)
    return "[" + ", ".join([_quote(item) for item in value]) + "]"


def render_predicate(predicate: Predicate) -> str:
    """The predicate as :func:`render_rule` writes it; for diagnostics."""
    if isinstance(predicate, ObjectiveRef):
        return predicate.objective_name
    # ``_value_`` is the member's plain attribute; ``.value`` is a descriptor
    inner = ", ".join([
        f"{c.variable} {c.operator._value_} {render_constant(c.constant)}" for c in predicate.constraints
    ])
    return f"{predicate.state_name}({inner})"


def _render_lines(rules: tuple[Rule, ...]) -> list[str]:
    """Each rule's spec line, in one flat pass: a constraint node the parse
    shared between equal spellings is rendered once, keyed by its identity,
    which cannot be reused while ``rules`` holds every node."""
    texts: dict[int, str] = {}
    known = texts.get
    lines = []
    for rule in rules:
        parts = []
        for pred in rule.predicates:
            if isinstance(pred, ObjectiveRef):
                parts.append(pred.objective_name)
                continue
            inner = []
            for c in pred.constraints:
                text = known(id(c))
                if text is None:
                    # spelled as in render_predicate, but inline: a call per
                    # distinct constraint gave back about a tenth of the saving
                    text = texts[id(c)] = f"{c.variable} {c.operator._value_} {render_constant(c.constant)}"
                inner.append(text)
            parts.append(f"{pred.state_name}({', '.join(inner)})")
        line = f"{' & '.join(parts)} -> {rule.conclusion}"
        if "\n" in line:
            raise ValueError(f"{_line_break(rule)} holding a line break cannot be written as a spec line")
        lines.append(line)
    return lines


def _line_break(rule: Rule) -> str:
    """The first piece of ``rule``, in the order it is written, that holds a
    ``\\n``: a state name, a variable name, a constant, an objective reference
    or the conclusion."""
    for pred in rule.predicates:
        if isinstance(pred, ObjectiveRef):
            if "\n" in pred.objective_name:
                return f"objective reference {pred.objective_name!r}"
            continue
        if "\n" in pred.state_name:
            return f"state name {pred.state_name!r}"
        for c in pred.constraints:
            if "\n" in c.variable:
                return f"{pred.state_name}: variable name {c.variable!r}"
            if "\n" in render_constant(c.constant):
                kind = c.constant.kind
                return f"{pred.state_name}.{c.variable}: {'an' if kind is _ENUM else 'a'} {kind.value} constant"
    return f"conclusion {rule.conclusion!r}"


def render_rule(rule: Rule) -> str:
    """The rule's spec line.  ``ValueError``, naming the first piece that
    holds it, for a ``\\n`` anywhere in the line: the language has no escape
    for it, so the line could not be read back."""
    return _render_lines((rule,))[0]


def render_specification(spec: Specification) -> str:
    """Deterministic canonical rendering; parse(render(s)) equals s
    structurally.  ``ValueError`` as :func:`render_rule` gives it."""
    return "\n".join(_render_lines(spec.rules)) + "\n"


# ---------------------------------------------------------------------------
# Static checking
# ---------------------------------------------------------------------------


class DiagnosticCode(str, Enum):
    UNKNOWN_STATE = "UNKNOWN_STATE"
    UNKNOWN_VARIABLE = "UNKNOWN_VARIABLE"
    TYPE_MISMATCH = "TYPE_MISMATCH"
    DUPLICATE_PREDICATE = "DUPLICATE_PREDICATE"
    RESERVED_OBJECTIVE = "RESERVED_OBJECTIVE"
    UNDEFINED_OBJECTIVE = "UNDEFINED_OBJECTIVE"
    NO_DONE_RULE = "NO_DONE_RULE"
    CYCLE = "CYCLE"


@dataclass(frozen=True)
class Diagnostic:
    """One static-check finding.  ``message`` is the text handed back to the
    encoding model verbatim, so it names the offending construct precisely."""

    code: DiagnosticCode
    message: str
    line: int | None = None
    rule_index: int | None = None

    def __str__(self) -> str:
        where = f" (rule {self.rule_index + 1})" if self.rule_index is not None else ""
        return f"{self.code.value}{where}: {self.message}"


def constraint_type_error(var_type: VarType, constraint: Constraint) -> str | None:
    """Return a human-readable incompatibility message, or None if compatible.

    At most one message per constraint: the operator/variable pairing is
    checked first, then the constant's kind against the variable's type, then
    its value: a Number constant must be finite, as an event's numbers must,
    and an Enum constant a declared variant.
    """
    op, constant, kind = constraint.operator, constraint.constant, var_type.kind
    if kind not in op.kinds:
        return (
            f"operator '{op.value}' is not applicable to variable "
            f"'{constraint.variable}' of type {var_type.describe()}"
        )
    if op.list_constant:
        if constant.kind is not _TEXT_LIST:
            return (
                f"operator '{op.value}' on variable '{constraint.variable}' "
                f"requires a list constant such as [\"a\", \"b\"]"
            )
        if kind is _ENUM:
            unknown = [item for item in constant.value if item not in var_type.variants]
            if unknown:
                return (
                    f"list items {unknown!r} are not variants of "
                    f"'{constraint.variable}' ({var_type.describe()})"
                )
        return None
    if constant.kind is not kind:
        return (
            f"variable '{constraint.variable}' has type {var_type.describe()} but the "
            f"constant {render_constant(constant)} is a {constant.kind.value}"
        )
    if kind is _NUMBER and not constant.value.is_finite():
        return f"the constant {constant.value} on variable '{constraint.variable}' is not a finite number"
    if kind is _ENUM and constant.value not in var_type.variants:
        return (
            f"'{constant.value}' is not a variant of "
            f"'{constraint.variable}' ({var_type.describe()})"
        )
    return None


def check_specification(spec: Specification, schema: StateSchema) -> list[Diagnostic]:
    """Run every static check; an empty result means the spec is ready to verify.

    Checks, in order per rule: state and variable resolution, constraint type
    compatibility, duplicate predicates, reserved-objective misuse.  Spec-wide:
    every referenced objective must be concluded somewhere, at least one rule
    must conclude ``Done``, and objective precedence must be acyclic.  The
    rules are walked once: the spec-wide checks read what that walk recorded.
    A clean result is recorded on the spec as the schema object it was
    checked against, which :class:`~intentguard.engine.Session` reads to
    skip a second check of the same pair.
    """
    diagnostics: list[Diagnostic] = []

    def report(code: DiagnosticCode, message: str, idx: int | None = None) -> None:
        line = spec.rules[idx].line if idx is not None else None
        diagnostics.append(Diagnostic(code, message, line, idx))

    # each concluded objective -> the objectives its rules reference
    references: dict[str, set[str]] = {}
    # each referenced objective but Done -> the index of the first rule referencing it
    first_reference: dict[str, int] = {}
    for idx, rule in enumerate(spec.rules):
        referenced = references.setdefault(rule.conclusion, set())
        # grouped by state or objective name and compared with == only within
        # a group, so no predicate is hashed
        seen: dict[str, list[Predicate]] = {}
        for pred in rule.predicates:
            key = pred.objective_name if isinstance(pred, ObjectiveRef) else pred.state_name
            same_name = seen.setdefault(key, [])
            if pred in same_name:
                report(
                    DiagnosticCode.DUPLICATE_PREDICATE,
                    f"predicate {render_predicate(pred)} appears more than once in the rule",
                    idx,
                )
                continue
            same_name.append(pred)
            if isinstance(pred, ObjectiveRef):
                referenced.add(pred.objective_name)
                if pred.objective_name == DONE:
                    report(
                        DiagnosticCode.RESERVED_OBJECTIVE,
                        f"'{DONE}' is reserved for rule conclusions and cannot be used as a predicate",
                        idx,
                    )
                else:
                    first_reference.setdefault(pred.objective_name, idx)
                continue
            state = schema.state(pred.state_name)
            if state is None:
                report(
                    DiagnosticCode.UNKNOWN_STATE,
                    f"state '{pred.state_name}' is not declared; declared states: "
                    f"{', '.join(sorted({s.name for s in schema.states})) or '(none)'}",
                    idx,
                )
                continue
            for constraint in pred.constraints:
                # a subscript, since a read-only mapping's .get costs a second call
                try:
                    var_type = state.variables[constraint.variable]
                except KeyError:
                    report(
                        DiagnosticCode.UNKNOWN_VARIABLE,
                        f"state '{pred.state_name}' has no variable '{constraint.variable}'; "
                        f"declared variables: {', '.join(sorted(state.variables))}",
                        idx,
                    )
                    continue
                problem = constraint_type_error(var_type, constraint)
                if problem is not None:
                    report(DiagnosticCode.TYPE_MISMATCH, problem, idx)

    for name, idx in first_reference.items():
        if name not in references:
            report(
                DiagnosticCode.UNDEFINED_OBJECTIVE,
                f"objective '{name}' is used as a predicate but no rule concludes it",
                idx,
            )
    if DONE not in references:
        report(DiagnosticCode.NO_DONE_RULE, f"no rule concludes the reserved objective '{DONE}'")
    cycle = _find_objective_cycle(references)
    if cycle is not None:
        report(DiagnosticCode.CYCLE, "objective precedence is cyclic: " + " -> ".join(cycle))
    if not diagnostics:
        object.__setattr__(spec, "_checked_against", schema)
    return diagnostics


def _find_objective_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """The first cycle in the graph from each concluded objective to the
    objectives its rules reference, as a path that ends where it starts."""
    # Depth-first, dependencies in sorted order, with explicit stacks so a
    # long precedence chain cannot exhaust the interpreter's recursion limit.
    # An objective with no prerequisite cannot lie on a cycle, so it gets no
    # entry and ``color.get(dep, BLACK)`` takes it as finished: a search from
    # it would end at once and reach nothing.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name, deps in edges.items() if deps}
    for root in sorted(color):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        pending = [iter(sorted(edges[root]))]
        while pending:
            for dep in pending[-1]:
                state = color.get(dep, BLACK)
                if state == GREY:
                    return path[path.index(dep) :] + [dep]
                if state == WHITE:
                    color[dep] = GREY
                    path.append(dep)
                    pending.append(iter(sorted(edges[dep])))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class PredicateStatus(str, Enum):
    """A predicate's standing under a session's world."""

    SATISFIED = "satisfied"
    UNSATISFIED = "unsatisfied"
    INDETERMINATE = "indeterminate"


#: Bound once, as the kinds are in ``schema``; ``engine`` and ``feedback``
#: import these.
_SATISFIED, _UNSATISFIED, _INDETERMINATE = (
    PredicateStatus.SATISFIED, PredicateStatus.UNSATISFIED, PredicateStatus.INDETERMINATE
)


class EvalTypeError(TypeError):
    """A runtime value's type conflicts with the constraint's constant: the
    schema and the observed trace disagree."""


@dataclass(frozen=True)
class EvalContext:
    """Everything constraint evaluation may consult: the date that resolves the
    symbolic ``Today`` constant, and the similarity function behind ``~=``."""

    today: date
    similarity: Callable[[str, str], float]


def normalize_text(value: str) -> str:
    """NFC-normalize and trim; the equality form used for exact Text matches."""
    return unicodedata.normalize("NFC", value).strip()


#: What :func:`lexical_similarity` drops: every character that is neither
#: alphanumeric nor a blank.  ``\w`` is ``str.isalnum`` plus ``_`` and ``\s``
#: is ``str.isspace``, so one substitution keeps exactly the characters a
#: per-character ``ch.isalnum() or ch.isspace()`` filter keeps.
_NOT_ALNUM_OR_SPACE = re.compile(r"[^\w\s]|_")


def _lexical_normalize(text: str) -> str:
    kept = _NOT_ALNUM_OR_SPACE.sub("", unicodedata.normalize("NFC", text).casefold())
    return " ".join(kept.split())


def _trigrams(text: str) -> set[str]:
    if len(text) < 3:
        return {text}
    return {text[i : i + 3] for i in range(len(text) - 2)}


def lexical_similarity(a: str, b: str) -> float:
    """The default scorer behind ``~=``: character-trigram Jaccard over
    punctuation-stripped, casefolded text.

    Punctuation is dropped before trigramming so spellings like "Joe's" and
    "Joes" coincide; without that, near-identical names score well under the
    equivalence threshold.
    """
    na, nb = _lexical_normalize(a), _lexical_normalize(b)
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    ga, gb = _trigrams(na), _trigrams(nb)
    return len(ga & gb) / len(ga | gb)


#: A compiled constraint: whether it holds of an observed value (None when
#: unobserved) under a context's clock and similarity function.
ConstraintTest = Callable[[Union[Constant, None], EvalContext], bool]


def _day(raw: object, ctx: EvalContext) -> object:
    return ctx.today if raw == TODAY else raw


def compile_constraint(constraint: Constraint, kind: ConstKind) -> ConstraintTest:
    """Compile ``constraint`` into a test of values of ``kind``, its variable's kind.

    The test answers what :func:`evaluate_constraint` answers for a value of
    that kind, without the kind checks, which the static check and
    ``validate_event`` already make on the verify path.  The constant is
    normalized here, once: Text by NFC and trimming, and a list into a
    frozenset, casefolded for Text.  A Date ``Today`` on either side is read
    from the context at call time, so one test serves any clock.
    """
    op, right = constraint.operator, constraint.constant.value
    compare = op.compare
    if kind is _TEXT:
        if op.list_constant:
            items = frozenset(normalize_text(item).casefold() for item in right)
            return lambda value, ctx: value is not None and compare(normalize_text(value.value).casefold(), items)
        right = normalize_text(right)
        if compare is None:
            return lambda value, ctx: (
                value is not None and ctx.similarity(normalize_text(value.value), right) >= SIMILARITY_THRESHOLD
            )
        return lambda value, ctx: value is not None and compare(normalize_text(value.value), right)
    if kind is _DATE:
        if right == TODAY:
            return lambda value, ctx: value is not None and compare(_day(value.value, ctx), ctx.today)
        return lambda value, ctx: value is not None and compare(_day(value.value, ctx), right)
    if op.list_constant:
        right = frozenset(right)
    return lambda value, ctx: value is not None and compare(value.value, right)


def evaluate_constraint(constraint: Constraint, value: Constant | None, ctx: EvalContext) -> bool:
    """Evaluate one constraint against an observed value.

    An unobserved value (``None``) makes the constraint false for every
    operator, including ``!=`` and ``not in``.  A value of a kind the operator
    does not apply to, or a constant of the wrong kind, raises
    :class:`EvalTypeError` instead of silently evaluating, since it signals a
    schema/trace mismatch rather than a normal failure.  Otherwise the answer
    is that of :func:`compile_constraint`'s test for the value's kind.
    """
    if value is None:
        return False
    op = constraint.operator
    const = constraint.constant
    kind = value.kind
    if kind not in op.kinds or const.kind is not (_TEXT_LIST if op.list_constant else kind):
        raise EvalTypeError(
            f"constraint on '{constraint.variable}': operator '{op.value}' with a "
            f"{const.kind.value} constant does not apply to a {kind.value} value"
        )
    return compile_constraint(constraint, kind)(value, ctx)
