"""The spec printer on syntax trees whose nodes are shared.

A parse gives every repeat of one constraint spelling the same
``Constraint`` node, and ``render_specification`` renders each distinct node
once per call.  The specs ``golden/printer.jsonl`` prints share no node, so
these tests print parsed specs and hand-built ones that do.  They import
neither pytest nor click, so they also run as a plain script on an
interpreter that has neither::

    PYTHONPATH=src python3 tests/test_printer_sharing.py
"""

from __future__ import annotations

import random

from intentguard.dsl import (
    Constant,
    Constraint,
    ObjectiveRef,
    Operator,
    Rule,
    Specification,
    StatePredicate,
    parse_specification,
    render_predicate,
    render_rule,
    render_specification,
)

import generators

# the seed and count of the specs ``test_printer_golden.py`` records
SEED = 7
N_SPECS = 300


def constraint_occurrences(spec: Specification) -> list[Constraint]:
    return [c for r in spec.rules for p in r.predicates if isinstance(p, StatePredicate) for c in p.constraints]


def refusal(call, *args) -> str:
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{call.__name__} did not raise ValueError")


def test_a_parsed_spec_prints_as_the_spec_it_was_read_from():
    rng = random.Random(SEED)
    for k in range(N_SPECS):
        printed = render_specification(generators.specification(rng))
        assert render_specification(parse_specification(printed)) == printed, k
        # a generated spec seldom repeats a spelling; read twice over, each
        # of its constraints is one node shared by both copies
        twice = parse_specification(printed * 2)
        occurrences = constraint_occurrences(twice)
        assert len({id(c) for c in occurrences}) <= len(occurrences) // 2, k
        assert render_specification(twice) == printed * 2, k
        assert "".join(render_rule(r) + "\n" for r in twice.rules) == printed * 2, k
        # the check's duplicate-predicate message spells a predicate the same way
        for rule in twice.rules:
            assert " & ".join(map(render_predicate, rule.predicates)) + f" -> {rule.conclusion}" == render_rule(rule)


def test_one_node_under_two_states_prints_each_state_name():
    both = Constraint("x", Operator.EQ, Constant.number(1))
    other = Constraint("y", Operator.IN, Constant.text_list(["a"]))
    spec = Specification((
        Rule((StatePredicate("First", (both,)), StatePredicate("Second", (other, both))), "A"),
        Rule((ObjectiveRef("A"), StatePredicate("Third", (both, both))), "Done"),
    ))
    expected = (
        'First(x = 1) & Second(y in ["a"], x = 1) -> A\n'
        "A & Third(x = 1, x = 1) -> Done\n"
    )
    assert render_specification(spec) == expected
    assert [render_rule(r) for r in spec.rules] == expected.splitlines()
    assert parse_specification(expected) == spec


def test_a_line_break_is_refused_with_the_same_message():
    ok = Constraint("x", Operator.EQ, Constant.number(1))
    for broken, kind in (
        (Constraint("note", Operator.EQ, Constant.text("a\nb")), "Text"),
        (Constraint("note", Operator.IN, Constant.text_list(["a", "b\nc"])), "TextList"),
    ):
        # the shared node first prints clean under one state, then breaks under another
        rule = Rule((StatePredicate("Clean", (ok,)), ObjectiveRef("A"), StatePredicate("Form", (ok, broken))), "Done")
        spec = Specification((Rule((StatePredicate("Before", (ok,)),), "A"), rule))
        message = f"Form.note: a {kind} constant holding a line break cannot be written as a spec line"
        assert refusal(render_specification, spec) == message
        assert refusal(render_rule, rule) == message


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
