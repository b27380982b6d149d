"""Seeded random generators for property-style tests.

Everything takes an explicit ``random.Random`` so test runs are reproducible
and the acceptance suite can demand exact case counts.
"""

from __future__ import annotations

import random
import string
from datetime import date, time, timedelta
from decimal import Decimal

from intentguard.dsl import (
    DONE,
    UNICODE_OPERATORS,
    ConstKind,
    Constant,
    Constraint,
    ObjectiveRef,
    Operator,
    Rule,
    Specification,
    StatePredicate,
    render_rule,
)
from intentguard.engine import ActionEvent, StateUpdate
from intentguard.schema import StateSchema, schema_from_dict

_RESERVED = {"in", "not", "true", "false", "today", "done"}
_TEXT_POOL = string.ascii_letters + string.digits + " '!?.,:-_()\"\\éüñ汉"


def identifier(rng: random.Random) -> str:
    while True:
        first = rng.choice(string.ascii_letters + "_")
        rest = "".join(rng.choice(string.ascii_letters + string.digits + "_") for _ in range(rng.randint(2, 9)))
        name = first + rest
        if name.lower() not in _RESERVED:
            return name


def text_value(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(0, 12)))


def number_constant(rng: random.Random) -> Constant:
    whole = rng.randint(-10_000, 10_000)
    if rng.random() < 0.5:
        return Constant.number(Decimal(whole))
    frac = rng.randint(0, 999_999)
    return Constant.number(Decimal(f"{whole}.{frac:06d}"[: rng.randint(len(str(whole)) + 2, len(str(whole)) + 8)]))


def date_constant(rng: random.Random) -> Constant:
    if rng.random() < 0.25:
        return Constant.today()
    base = date(2020, 1, 1) + timedelta(days=rng.randint(0, 3_000))
    return Constant.calendar(base)


def time_constant(rng: random.Random) -> Constant:
    return Constant.clock(time(rng.randint(0, 23), rng.randint(0, 59)))


def constant(rng: random.Random, kind: ConstKind | None = None) -> Constant:
    kind = kind or rng.choice(list(ConstKind))
    if kind is ConstKind.TEXT:
        return Constant.text(text_value(rng))
    if kind is ConstKind.NUMBER:
        return number_constant(rng)
    if kind is ConstKind.BOOLEAN:
        return Constant.boolean(rng.random() < 0.5)
    if kind is ConstKind.DATE:
        return date_constant(rng)
    if kind is ConstKind.TIME:
        return time_constant(rng)
    if kind is ConstKind.ENUM:
        return Constant.enum(identifier(rng))
    return Constant.text_list(tuple(text_value(rng) for _ in range(rng.randint(1, 3))))


def constraint(rng: random.Random) -> Constraint:
    operator = rng.choice(list(Operator))
    if operator in (Operator.IN, Operator.NOT_IN):
        const = constant(rng, ConstKind.TEXT_LIST)
    elif operator is Operator.APPROX:
        const = constant(rng, ConstKind.TEXT)
    elif operator in (Operator.GT, Operator.GE, Operator.LT, Operator.LE):
        const = constant(rng, rng.choice([ConstKind.NUMBER, ConstKind.DATE, ConstKind.TIME]))
    else:
        const = constant(rng, rng.choice([k for k in ConstKind if k is not ConstKind.TEXT_LIST]))
    return Constraint(identifier(rng), operator, const)


def state_predicate(rng: random.Random) -> StatePredicate:
    return StatePredicate(identifier(rng), tuple(constraint(rng) for _ in range(rng.randint(1, 3))))


def specification(rng: random.Random) -> Specification:
    """A structurally valid spec: acyclic objective references, one Done rule."""
    n_rules = rng.randint(1, 4)
    rules: list[Rule] = []
    objectives: list[str] = []
    for i in range(n_rules):
        predicates: list = []
        for _ in range(rng.randint(1, 3)):
            if objectives and rng.random() < 0.3:
                predicates.append(ObjectiveRef(rng.choice(objectives)))
            else:
                predicates.append(state_predicate(rng))
        last = i == n_rules - 1
        if last or rng.random() < 0.3:
            conclusion = "Done"
        else:
            conclusion = identifier(rng)
            objectives.append(conclusion)
        rules.append(Rule(tuple(predicates), conclusion))
    return Specification(tuple(rules))


# ---------------------------------------------------------------------------
# Source lines for parser golden tests: valid rules, restyled and mutated
# ---------------------------------------------------------------------------

# Fragments a mutation inserts or substitutes: every token kind with its
# unicode spelling, near-misses of each literal form, and characters on the
# scanner's boundaries (quotes, escapes, '#', blanks).  Non-decimal digits such
# as '²' are left out: they stopped starting a number on purpose.
_LINE_FRAGMENTS = (
    "(", ")", "[", "]", ",", "&", "∧", "->", "→", "-", ">", "<", "=", "!=", "~=", ">=", "<=",
    "≠", "≃", "≥", "≤", "⊆", "⊄", "!", "~", "in", "not", "not in", "not \tin", "in_", "x", "_a", "Done",
    "true", "Today", '"', '"a"', "\\", '\\"', "\\\\", "\\n", "#", "# c", '"#"', '"a#b"', "1", "-3",
    "1.5", "1.", "-", ".", ":", "2025-03-14", "2025-13-40", "19:00", "9:30", "25:00", "٣", "١٩:٣٠",
    "٢٠٢٥-٠٣-١٤", "½", "x½", "\u00a0", "\t", " ", "  ", "@", "é", "汉",
)
_ASCII_SPELLING = {canon: uni for uni, canon in UNICODE_OPERATORS.items()}
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BLANKS = (" ", "  ", "\t", "\u00a0")


def spec_source_line(rng: random.Random) -> str:
    """One rule's canonical text, restyled the ways input may differ
    (unicode operators, blanks, indentation, comments, Arabic-Indic digits),
    then hit by up to three mutations that insert, delete or replace text."""
    line = render_rule(rng.choice(specification(rng).rules))
    if rng.random() < 0.3:
        for canon, uni in _ASCII_SPELLING.items():
            if rng.random() < 0.5:
                line = line.replace(f" {canon} ", f" {uni} ")
    if rng.random() < 0.3:
        line = line.replace(" ", rng.choice(_BLANKS))
    if rng.random() < 0.15:
        line = line.replace(" ", "")
    if rng.random() < 0.15:
        line = line.translate(_ARABIC_INDIC)
    if rng.random() < 0.25:
        line = "".join(rng.choice(_BLANKS) for _ in range(rng.randint(1, 3))) + line
    if rng.random() < 0.25:
        line += rng.choice(("", " ", "\t")) + "#" + rng.choice((" note", ' "quoted" #', "", ' a\\"b'))
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(line))
        action = rng.random()
        if action < 0.4:
            line = line[:at] + rng.choice(_LINE_FRAGMENTS) + line[at:]
        elif action < 0.7:
            line = line[:at] + line[at + rng.randint(1, 3):]
        elif action < 0.9:
            line = line[:at] + rng.choice(_LINE_FRAGMENTS) + line[at + rng.randint(1, 3):]
        else:
            line = line[:at]
    return line


# ---------------------------------------------------------------------------
# Whole verification sessions: schema, spec and event stream together
# ---------------------------------------------------------------------------

_VARIANTS = ("Red", "Green", "Blue")
_OPERATORS = {
    "Text": (Operator.EQ, Operator.NEQ, Operator.APPROX, Operator.IN, Operator.NOT_IN),
    "Number": (Operator.EQ, Operator.NEQ, Operator.GT, Operator.GE, Operator.LT, Operator.LE),
    "Boolean": (Operator.EQ, Operator.NEQ),
    "Date": (Operator.EQ, Operator.NEQ, Operator.GT, Operator.GE, Operator.LT, Operator.LE),
    "Time": (Operator.EQ, Operator.NEQ, Operator.GT, Operator.GE, Operator.LT, Operator.LE),
    f"Enum[{', '.join(_VARIANTS)}]": (Operator.EQ, Operator.NEQ, Operator.IN, Operator.NOT_IN),
}


def _value_pool(type_name: str, today: date) -> list[Constant]:
    """A few values per type, so that writes often meet the spec's constants."""
    if type_name == "Text":
        return [Constant.text(v) for v in ("apples", "Apples!", "apple pie", "pears")]
    if type_name == "Number":
        return [Constant.number(n) for n in range(4)]
    if type_name == "Boolean":
        return [Constant.boolean(True), Constant.boolean(False)]
    if type_name == "Date":
        return [Constant.calendar(today + timedelta(days=d)) for d in (-1, 0, 1)]
    if type_name == "Time":
        return [Constant.clock(time(h, 0)) for h in (9, 12, 18)]
    return [Constant.enum(v) for v in _VARIANTS]


def _pooled_constraint(rng: random.Random, variable: str, type_name: str, pool: list[Constant]) -> Constraint:
    operator = rng.choice(_OPERATORS[type_name])
    if operator in (Operator.IN, Operator.NOT_IN):
        items = rng.sample([str(c.value) for c in pool], rng.randint(1, 2))
        return Constraint(variable, operator, Constant.text_list(tuple(items)))
    const = rng.choice(pool)
    if type_name == "Date" and rng.random() < 0.3:
        const = Constant.today()
    return Constraint(variable, operator, const)


def verification_session(
    rng: random.Random, today: date, n_states: int = 4, n_rules: int = 6, n_events: int = 40
) -> tuple[StateSchema, Specification, list[ActionEvent]]:
    """A schema, a spec that checks against it, and an event stream over it.

    Writes are drawn from small per-type pools that the spec's constants also
    come from, so predicates become satisfied, unsatisfied and satisfied
    again.  The stream mixes single- and multi-state updates, identical
    resubmissions of the previous event, and critical events naming concluded
    objectives (with or without updates).
    """
    names = list(dict.fromkeys(identifier(rng) for _ in range(n_states * 2)))[:n_states]
    types = list(_OPERATORS)
    states = {
        name: {identifier(rng): rng.choice(types) for _ in range(rng.randint(1, 3))}
        for name in names
    }
    schema = schema_from_dict(
        {
            "app_id": "generated",
            "states": [
                {"name": name, "description": f"state {name}", "variables": [{v: t} for v, t in variables.items()]}
                for name, variables in states.items()
            ],
        }
    )
    pools = {t: _value_pool(t, today) for t in types}

    rules: list[Rule] = []
    objectives: list[str] = []
    for i in range(n_rules):
        predicates: list = []
        for _ in range(rng.randint(1, 3)):
            if objectives and rng.random() < 0.3:
                predicates.append(ObjectiveRef(rng.choice(objectives)))
                continue
            state = rng.choice(names)
            variables = states[state]
            chosen = [rng.choice(list(variables)) for _ in range(rng.randint(1, 2))]
            predicates.append(
                StatePredicate(state, tuple(_pooled_constraint(rng, v, variables[v], pools[variables[v]]) for v in chosen))
            )
        if i == n_rules - 1 or rng.random() < 0.25:
            conclusion = DONE
        else:
            conclusion = f"Goal{i}"
            objectives.append(conclusion)
        rules.append(Rule(tuple(dict.fromkeys(predicates)), conclusion))
    spec = Specification(tuple(rules))

    def state_update() -> StateUpdate:
        state = rng.choice(names)
        variables = states[state]
        written = rng.sample(list(variables), rng.randint(1, len(variables)))
        return StateUpdate(state, {v: rng.choice(pools[variables[v]]) for v in written})

    critical_names = objectives + [DONE]
    events: list[ActionEvent] = []
    for k in range(n_events):
        roll = rng.random()
        if events and roll < 0.15:
            previous = events[-1]
            events.append(ActionEvent(f"e{k}", previous.phase, previous.updates, previous.critical))
            continue
        critical = rng.choice(critical_names) if roll < 0.35 else None
        n_updates = rng.choice([0, 1]) if critical else rng.randint(1, 2)
        updates = tuple(state_update() for _ in range(n_updates))
        events.append(ActionEvent(f"e{k}", rng.choice(["pre", "post"]), updates, critical))
    return schema, spec, events
