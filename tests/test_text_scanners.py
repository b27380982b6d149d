"""The two Text scanners of ``dsl`` that consume runs of characters, held to
the per-character definitions they replace.

``_STRING_SHAPE``, the spelling of a Text literal, is written unrolled, as
runs of plain characters between escapes; ``OLD_STRING_SHAPE`` below takes
one character or escape per group iteration.  The similarity normalization
drops what it does not keep with one substitution, where it used to test
``ch.isalnum() or ch.isspace()`` per character.  Which characters those
tests pass is read from the interpreter's Unicode tables, so these tests
import neither pytest nor click and also run as a plain script on every
Python the project supports::

    PYTHONPATH=src python3 tests/test_text_scanners.py
"""

from __future__ import annotations

import itertools
import random
import re
import sys
import unicodedata

from intentguard import dsl
from intentguard.dsl import Constant, Constraint, Operator, lexical_similarity, parse_specification

#: The Text literal's spelling before it was unrolled: the reference.
OLD_STRING_SHAPE = r'"(?:[^"\\]|\\["\\])*"'
OLD_STRING = re.compile(OLD_STRING_SHAPE)

#: Quotes, backslashes, both escapes and every character the spec grammar
#: treats specially, plus blanks, separators and characters outside ASCII.
ALPHABET = ['"', "\\", "a", " ", "#", ",", "&", ")", "é", "\r", "\t", "\u2028", "\x00", "𝔸", "\\\\", '\\"']


def old_lexical_normalize(text: str) -> str:
    folded = unicodedata.normalize("NFC", text).casefold()
    kept = "".join(ch if (ch.isalnum() or ch.isspace()) else "" for ch in folded)
    return " ".join(kept.split())


def old_lexical_similarity(a: str, b: str) -> float:
    na, nb = old_lexical_normalize(a), old_lexical_normalize(b)
    if na == nb:
        return 1.0
    if not na or not nb:
        return 0.0
    ga, gb = dsl._trigrams(na), dsl._trigrams(nb)
    return len(ga & gb) / len(ga | gb)


def generated_texts() -> list[str]:
    """Every string of up to five of the pieces below, bare, quoted and
    after an opening quote alone, then seeded longer strings over
    ``ALPHABET``, some unterminated."""
    pieces = ['"', "\\", "a", "é", '\\"', "\\\\"]
    texts = ["".join(p) for n in range(6) for p in itertools.product(pieces, repeat=n)]
    texts += [f'"{text}"' for text in texts] + [f'"{text}' for text in texts]
    rng = random.Random(31)
    for _ in range(3000):
        body = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(40)))
        texts.append(rng.choice(['"{}"', '"{}', "{}", '"{}" x', '"{}\\']).format(body))
    return texts


def test_string_shape_matches_the_same_strings():
    for text in generated_texts():
        assert bool(OLD_STRING.fullmatch(text)) == bool(dsl._STRING.fullmatch(text)), repr(text)


def test_string_shape_takes_the_same_prefix():
    # the token pattern and the reader match a literal where it starts and
    # read on after it, so the two must also end each match at one place
    for text in generated_texts():
        old, new = OLD_STRING.match(text), dsl._STRING.match(text)
        assert (old and old.end()) == (new and new.end()), repr(text)


def test_string_literals_parse_to_their_text():
    for text in ['', 'a', '\\', '"', '\\"', 'a\\"b\\\\c', 'é # & -> , )', ' \r\t', '"' * 5, '\\' * 5]:
        spec = parse_specification(f"Form(note = {dsl._quote(text)}) -> Done")
        assert spec.rules[0].predicates[0].constraints == (Constraint("note", Operator.EQ, Constant.text(text)),)


def test_similarity_filter_keeps_alphanumerics_and_blanks_of_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(ch for ch in every if ch.isalnum() or ch.isspace())
    assert dsl._NOT_ALNUM_OR_SPACE.sub("", every) == kept


def test_similarity_scores_are_the_old_floats():
    rng = random.Random(601)
    words = ["Joe's", "Joes", "café", "CAFÉ", "Straße", "strasse", "a_b", "a b", "x²", "½", "٣",
             "\u2028", "  ", "", "...", "Olive Garden", "olive-garden!", "ǅ", "İstanbul", "ﬁne"]
    pairs = [(a, b) for a in words for b in words]
    pairs += [(" ".join(rng.choices(words, k=3)), " ".join(rng.choices(words, k=3))) for _ in range(500)]
    for a, b in pairs:
        assert dsl._lexical_normalize(a) == old_lexical_normalize(a), repr(a)
        assert lexical_similarity(a, b) == old_lexical_similarity(a, b), (a, b)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
