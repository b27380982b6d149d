"""A constraint evaluator written from the operator semantics in README.md and
PAPER.md, sharing no code with ``intentguard.dsl``.

It reads a constraint's operator spelling and constant and the observed
value, and answers for well-typed pairs:

- an unobserved value makes every constraint false, ``!=`` and ``not in``
  included;
- Text compares after NFC normalization and trimming; ``in`` and ``not in``
  also casefold both sides, while Enum membership is exact;
- ``~=`` holds when ``ctx.similarity`` of the two normalized texts is at
  least 0.7;
- a Date ``Today`` stands for ``ctx.today``;
- Numbers compare as exact decimals: ``10.1 > 10.09`` and ``0.30 = 0.3``.
"""

from __future__ import annotations

import unicodedata

THRESHOLD = 0.7


def _text(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def _day(value, ctx):
    return ctx.today if value == "Today" else value


def holds(constraint, value, ctx) -> bool:
    """Whether ``constraint`` holds of the observed ``value`` (a
    ``Constant``, or None when unobserved), under ``ctx``'s clock and
    similarity function."""
    if value is None:
        return False
    spelling = constraint.operator.value
    kind = value.kind.value
    observed, expected = value.value, constraint.constant.value
    if spelling in ("in", "not in"):
        if kind == "Text":
            member = _text(observed).casefold() in [_text(item).casefold() for item in expected]
        else:
            member = observed in list(expected)
        return member if spelling == "in" else not member
    if kind == "Text":
        observed, expected = _text(observed), _text(expected)
        if spelling == "~=":
            return ctx.similarity(observed, expected) >= THRESHOLD
    elif kind == "Date":
        observed, expected = _day(observed, ctx), _day(expected, ctx)
    if spelling == "=":
        return observed == expected
    if spelling == "!=":
        return observed != expected
    if spelling == ">":
        return observed > expected
    if spelling == ">=":
        return observed >= expected
    if spelling == "<":
        return observed < expected
    if spelling == "<=":
        return observed <= expected
    raise ValueError(f"operator {spelling!r} does not apply to a {kind} value")
