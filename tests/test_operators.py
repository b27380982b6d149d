"""What each operator applies to, over every pairing of operator, variable
(or value) kind and constant kind.

The expected results come from the table below, written from the README's
operator paragraph, not from the library: ordering operators apply to
Number, Date and Time; ``~=`` to Text; ``in`` and ``not in`` to Text and
Enum, with a list constant; ``=`` and ``!=`` to every declarable kind.  The
last test holds ``evaluate_constraint`` and the tests ``compile_constraint``
builds against ``reference_eval``, which shares no code with ``dsl``, on
seeded well-typed pairs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from datetime import date, time, timedelta

import pytest

from intentguard.dsl import (
    Constant,
    Constraint,
    EvalContext,
    EvalTypeError,
    Operator,
    compile_constraint,
    constraint_type_error,
    evaluate_constraint,
    lexical_similarity,
    render_constant,
)
from intentguard.schema import ConstKind, VarType

import reference_eval
from conftest import TODAY

DECLARABLE = ("Text", "Number", "Boolean", "Date", "Time", "Enum")
APPLIES_TO = {
    "=": DECLARABLE,
    "!=": DECLARABLE,
    "~=": ("Text",),
    ">": ("Number", "Date", "Time"),
    ">=": ("Number", "Date", "Time"),
    "<": ("Number", "Date", "Time"),
    "<=": ("Number", "Date", "Time"),
    "in": ("Text", "Enum"),
    "not in": ("Text", "Enum"),
}
LIST_OPERATORS = ("in", "not in")

#: One constant of each kind; the Enum and list constants name only variants
#: of the Enum variable below, so a variant check never decides a case.
CONSTANTS = (
    Constant.text("A"),
    Constant.number(1),
    Constant.boolean(True),
    Constant.calendar(date(2025, 3, 14)),
    Constant.clock(time(19, 0)),
    Constant.enum("A"),
    Constant.text_list(("A", "B")),
)
VALUES = CONSTANTS[:6]
VAR_TYPES = tuple(VarType(ConstKind(name), ("A", "B") if name == "Enum" else ()) for name in DECLARABLE)


def case_id(param) -> str:
    if isinstance(param, Operator):
        return param.value
    if isinstance(param, VarType):
        return param.describe()
    return render_constant(param)


def expected_type_error(op: Operator, var_type: VarType, constant: Constant) -> str | None:
    spelling, kind = op.value, var_type.kind.value
    if kind not in APPLIES_TO[spelling]:
        return f"operator '{spelling}' is not applicable to variable 'x' of type {var_type.describe()}"
    if spelling in LIST_OPERATORS:
        if constant.kind is not ConstKind.TEXT_LIST:
            return f"operator '{spelling}' on variable 'x' requires a list constant such as [\"a\", \"b\"]"
        return None
    if constant.kind is not var_type.kind:
        return (
            f"variable 'x' has type {var_type.describe()} but the constant "
            f"{render_constant(constant)} is a {constant.kind.value}"
        )
    return None


@pytest.mark.parametrize("op, var_type, constant", itertools.product(Operator, VAR_TYPES, CONSTANTS), ids=case_id)
def test_static_check_of_every_pairing(op, var_type, constant):
    constraint = Constraint("x", op, constant)
    assert constraint_type_error(var_type, constraint) == expected_type_error(op, var_type, constant)


@pytest.mark.parametrize("op, value, constant", itertools.product(Operator, VALUES, CONSTANTS), ids=case_id)
def test_runtime_outcome_of_every_pairing(op, value, constant, ctx):
    legal = value.kind.value in APPLIES_TO[op.value] and constant.kind is (
        ConstKind.TEXT_LIST if op.value in LIST_OPERATORS else value.kind
    )
    constraint = Constraint("x", op, constant)
    if legal:
        assert isinstance(evaluate_constraint(constraint, value, ctx), bool)
    else:
        with pytest.raises(EvalTypeError):
            evaluate_constraint(constraint, value, ctx)


@pytest.mark.parametrize("op, constant", itertools.product(Operator, CONSTANTS), ids=case_id)
def test_a_list_value_is_a_type_error(op, constant, ctx):
    # no schema declares a list variable and validate_event rejects a list
    # value, so a list value under any operator, = and != included, is a
    # schema/trace mismatch
    with pytest.raises(EvalTypeError):
        evaluate_constraint(Constraint("x", op, constant), Constant.text_list(("A", "B")), ctx)


# ---------------------------------------------------------------------------
# Against the reference evaluator
# ---------------------------------------------------------------------------

_TEXTS = ("Café", "Cafe\u0301", " café ", "CAFÉ", "cafe", "Joe's Pizza", "joes pizza", "", "  ")
_POOLS = {
    "Text": [Constant.text(t) for t in _TEXTS],
    "Number": [Constant.number(n) for n in ("10.1", "10.10", "10.09", "0", "-3", "1E+1", "10")],
    "Boolean": [Constant.boolean(True), Constant.boolean(False)],
    "Date": [Constant.calendar(date(2025, 3, d)) for d in (13, 14, 15)] + [Constant.today()],
    "Time": [Constant.clock(t) for t in (time(9, 0), time(19, 0), time(19, 1))],
    "Enum": [Constant.enum(v) for v in ("A", "B", "a")],
}
#: Scores on and either side of the threshold, besides the built-in scorer.
_SIMILARITIES = (lexical_similarity, lambda a, b: 0.7, lambda a, b: 0.6999999, lambda a, b: 0.7000001)


def _pair(rng: random.Random) -> tuple[Constraint, Constant | None, ConstKind]:
    """A well-typed constraint, a value for it (None one time in ten), and the
    variable's kind."""
    kind = rng.choice(DECLARABLE)
    op = rng.choice([o for o in Operator if kind in APPLIES_TO[o.value]])
    pool = _POOLS[kind]
    if op.value in LIST_OPERATORS:
        constant = Constant.text_list([str(c.value) for c in rng.sample(pool, rng.randint(1, 3))])
    else:
        constant = rng.choice(pool)
    return Constraint("x", op, constant), None if rng.random() < 0.1 else rng.choice(pool), ConstKind(kind)


def test_evaluation_agrees_with_the_reference_evaluator():
    # each constraint's compiled test and ``evaluate_constraint``, under two
    # clocks: one compiled test serves both, since a Date ``Today`` is read
    # from the context at call time
    rng = random.Random(1101)
    clocks = (TODAY, TODAY + timedelta(days=1))
    outcomes: Counter = Counter()
    for _ in range(12_000):
        constraint, value, kind = _pair(rng)
        test = compile_constraint(constraint, kind)
        similarity = rng.choice(_SIMILARITIES)
        for today in clocks:
            ctx = EvalContext(today=today, similarity=similarity)
            expected = reference_eval.holds(constraint, value, ctx)
            assert evaluate_constraint(constraint, value, ctx) is expected, (constraint, value, today)
            assert test(value, ctx) is expected, (constraint, value, today)
            outcomes[constraint.operator.value, expected] += 1
    # every operator both holds and fails somewhere in the sample
    assert len(outcomes) == 2 * len(Operator)
