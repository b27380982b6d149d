"""One word rule for both input languages: a schema declares exactly the Enum
variants that a spec can write as a bare word.

A spec names a variant with ``pay = Card``, so a schema must refuse a
variant the spec reader would not read back as that word (``Gift card``,
``3ds``, ``true``, ``Today``...).  The schema decides with
``schema._is_variant``; the reference here is the spec reader itself.  Which
characters are letters and word characters is read from the interpreter's
Unicode tables, so these tests import neither pytest nor click and also run
as a plain script on every Python the project supports::

    PYTHONPATH=src python3 tests/test_variant_words.py
"""

from __future__ import annotations

import itertools
import random

from intentguard import dsl
from intentguard.dsl import (
    Constant, Constraint, Operator, SpecSyntaxError, check_specification, parse_specification,
)
from intentguard.schema import ConstKind, SchemaError, StateDef, StateSchema, VarType, schema_from_dict

#: Letters of several scripts (a titlecase one, a mathematical one and one
#: whose lower case is two characters among them), numerics that are not
#: digits, a digit of another script, a character ``\w`` does not take, a
#: combining mark, and the ASCII pieces a variant is most often written with.
PIECES = ["a", "Z", "é", "ß", "Ж", "カ", "ǅ", "𝔸", "İ", "²", "½", "٣", "·", "_", "0", "7", " ", "-", "'", "\u0301"]
#: Words the spec reads as something other than an Enum variant, or not at
#: all, and words that only start like one.
KEYWORDS = ["true", "false", "today", "in", "not"]


def case_variants(word: str) -> list[str]:
    return ["".join(chars) for chars in itertools.product(*[(ch.lower(), ch.upper()) for ch in word])]


def candidates() -> list[str]:
    """Every string of up to three pieces, every casing of each keyword
    alone and beside one piece, then seeded longer mixes; trimmed, as the
    schema trims a variant, and without duplicates or the empty string."""
    texts = ["".join(p) for n in range(1, 4) for p in itertools.product(PIECES, repeat=n)]
    for keyword in KEYWORDS:
        for cased in case_variants(keyword):
            texts.append(cased)
            texts += [cased + piece for piece in PIECES] + [piece + cased for piece in PIECES]
    rng = random.Random(33)
    words = PIECES + KEYWORDS + ["Today", "Card", "Gift card"]
    for _ in range(3000):
        texts.append("".join(rng.choice(words) for _ in range(rng.randrange(1, 6))))
    return sorted({text.strip() for text in texts} - {""})


def schema_accepts(variant: str) -> bool:
    # a second variable keeps a refused one from emptying the state
    variables = [{"pay": f"Enum[{variant}]"}, {"x": "Text"}]
    document = {"app_id": "demo", "states": [{"name": "S", "variables": variables}]}
    try:
        schema_from_dict(document)
    except SchemaError as exc:
        assert [issue.code for issue in exc.issues] == ["BAD_VARIANT"], (variant, exc.issues)
        return False
    return True


def spec_reads_back(line: str, variant: str) -> bool:
    """Whether ``line`` parses to the one constraint ``pay = variant`` and
    checks clean against a schema that declares that variant."""
    try:
        spec = parse_specification(line)
    except SpecSyntaxError:
        return False
    [rule] = spec.rules
    [predicate] = rule.predicates
    if predicate.constraints != (Constraint("pay", Operator.EQ, Constant.enum(variant)),):
        return False
    schema = StateSchema("demo", (StateDef("S", "", {"pay": VarType(ConstKind.ENUM, (variant,))}),))
    return not check_specification(spec, schema)


def test_the_schema_accepts_exactly_the_variants_a_spec_reads_back():
    for variant in candidates():
        accepted = schema_accepts(variant)
        line = f"S(pay = {variant}) -> Done"
        # the line reader, and the token parser, which a comment forces
        assert spec_reads_back(line, variant) == accepted, ("reader", variant)
        assert spec_reads_back(line + " # c", variant) == accepted, ("token parser", variant)
        if accepted:
            # every writable variant is read by the line reader itself
            assert dsl._read_rule(line, 1, {}) is not None, variant


def test_the_candidates_cover_both_answers_and_every_refusal():
    verdicts = {variant: schema_accepts(variant) for variant in candidates()}
    assert len(verdicts) > 10000
    accepted = {variant for variant, ok in verdicts.items() if ok}
    for variant in ("a", "_", "a²", "İ", "ǅ", "a٣", "IN", "Not", "trueZ", "Today_"):
        assert variant in accepted, variant
    for variant in ("²", "½", "٣", "0a", "a Z", "a-Z", "a'", "a·", "a\u0301", "in", "not", "TrUe", "fAlSe", "TODAY"):
        assert variant in verdicts and variant not in accepted, variant


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
