"""Golden output of the spec printer and the feedback phrasing.

``golden/printer.jsonl`` holds, for the 300 seeded specs that
``test_dsl_reader.py`` builds and for hand-built constants of every kind, the
text of ``render_specification``, ``render_constant``, ``feedback_constant``,
``roadmap_sentence`` and ``achieved_suffix``.  Both the spec and the verdict
stream are made of this text, so a change to any of these functions must
leave it byte-identical.

Re-record from the current code with
``PYTHONPATH=src:tests python tests/test_printer_golden.py``.
"""

from __future__ import annotations

import json
import random
from datetime import date, time
from decimal import Decimal
from pathlib import Path

from intentguard.dsl import (
    ConstKind,
    Constant,
    Constraint,
    Operator,
    Rule,
    Specification,
    StatePredicate,
    render_constant,
    render_specification,
)
from intentguard.engine import PredicateStatus
from intentguard.feedback import achieved_suffix, feedback_constant, roadmap_sentence
from intentguard.schema import StateDef, StateSchema

import generators

GOLDEN = Path(__file__).resolve().parent / "golden" / "printer.jsonl"
SEED = 7
N_SPECS = 300

# One constant of each kind, and the spellings a printer could get wrong:
# signs, exponents and trailing zeros of a Number, a one-digit hour, and the
# quote and backslash inside Text and a Text list.
HAND_BUILT = (
    Constant.today(),
    Constant.calendar(date(2025, 3, 4)),
    Constant.number(Decimal("-12.50")),
    Constant.number(Decimal("-0")),
    Constant.number(Decimal("-0.001")),
    Constant.number("1E+2"),
    Constant.number(7),
    Constant.clock(time(9, 5)),
    Constant.clock(time(0, 0)),
    Constant.boolean(True),
    Constant.boolean(False),
    Constant.enum("Confirmed"),
    Constant.text(""),
    Constant.text('say "hi"'),
    Constant.text("C:\\dir\\"),
    Constant.text('a\\"b'),
    Constant.text_list(()),
    Constant.text_list(('"q"', "back\\slash", "plain")),
)
STATUS_ROWS = (
    (PredicateStatus.INDETERMINATE,),
    (PredicateStatus.SATISFIED,),
    (PredicateStatus.UNSATISFIED, PredicateStatus.SATISFIED),
    (PredicateStatus.SATISFIED, PredicateStatus.INDETERMINATE, PredicateStatus.SATISFIED),
    (PredicateStatus.SATISFIED,) * 4,
)


def schema_for(spec: Specification) -> StateSchema:
    """Every other state of ``spec`` described, the rest left for the
    "(no description)" wording."""
    names = dict.fromkeys(p.state_name for r in spec.rules for p in r.predicates if isinstance(p, StatePredicate))
    states = tuple(StateDef(name, f" the {name} view. ", {}) for name in list(names)[::2])
    return StateSchema("golden", states)


def hand_built_spec() -> Specification:
    constraints = tuple(
        Constraint(f"v{k}", Operator.IN if c.kind is ConstKind.TEXT_LIST else Operator.EQ, c)
        for k, c in enumerate(HAND_BUILT)
    )
    return Specification((Rule((StatePredicate("Form", constraints),), "Done"),))


def spec_entry(spec: Specification) -> dict:
    schema = schema_for(spec)
    constants = [c.constant for r in spec.rules for p in r.predicates if isinstance(p, StatePredicate)
                 for c in p.constraints]
    return {
        "rendered": render_specification(spec),
        "roadmap": [roadmap_sentence(rule, schema) for rule in spec.rules],
        "feedback_constants": [feedback_constant(c) for c in constants],
    }


def entries() -> list[dict]:
    rng = random.Random(SEED)
    recorded = [{"spec": k, **spec_entry(generators.specification(rng))} for k in range(N_SPECS)]
    recorded.append({"spec": "hand-built", **spec_entry(hand_built_spec())})
    recorded.extend(
        {"constant": k, "render": render_constant(c), "feedback": feedback_constant(c)}
        for k, c in enumerate(HAND_BUILT)
    )
    recorded.extend({"statuses": k, "suffix": achieved_suffix(row)} for k, row in enumerate(STATUS_ROWS))
    return recorded


def test_the_golden_covers_every_constant_kind():
    kinds = {c.kind for c in HAND_BUILT}
    assert len(kinds) == 7


def test_printer_and_phrasing_are_byte_identical_to_the_golden():
    recorded = [json.loads(raw) for raw in GOLDEN.read_text(encoding="utf-8").splitlines()]
    actual = entries()
    assert len(actual) == len(recorded)
    mismatches = [(want, got) for want, got in zip(recorded, actual) if want != got]
    assert not mismatches, f"{len(mismatches)} entries changed; first: {mismatches[0]}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(e, ensure_ascii=True) + "\n" for e in entries()), encoding="utf-8")
