"""Slotted syntax-tree nodes keep the frozen-dataclass contract.

``Constant``, ``Constraint``, ``StatePredicate``, ``ObjectiveRef`` and
``Rule`` are slotted frozen dataclasses, and all but ``ObjectiveRef`` have a
hand-written ``__init__``.  These tests import neither pytest nor click, so
they also run as a plain script on an interpreter that has neither::

    PYTHONPATH=src python3 tests/test_dsl_nodes.py
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import weakref
from pathlib import Path

from intentguard.dsl import (
    Constant,
    Constraint,
    ObjectiveRef,
    Operator,
    Rule,
    Specification,
    StatePredicate,
    parse_specification,
    render_specification,
)

import generators

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "restaurant" / "reservation.vsa"
SEED = 11


def specs() -> list[Specification]:
    """The parsed restaurant fixture, a seeded generated spec, and that spec
    parsed back from its rendering (with line numbers and shared nodes)."""
    generated = generators.specification(random.Random(SEED))
    return [
        parse_specification(FIXTURE.read_text(encoding="utf-8")),
        generated,
        parse_specification(render_specification(generated)),
    ]


def nodes(spec: Specification) -> list[object]:
    """Every node of ``spec`` below the Specification, in reading order."""
    found: list[object] = []
    for rule in spec.rules:
        found.append(rule)
        for predicate in rule.predicates:
            found.append(predicate)
            if isinstance(predicate, StatePredicate):
                for constraint in predicate.constraints:
                    found += [constraint, constraint.constant]
    return found


def raises(error: type[Exception] | tuple[type[Exception], ...], call, *args, **kwargs) -> None:
    try:
        call(*args, **kwargs)
    except error:
        return
    raise AssertionError(f"{call.__name__}{args!r} {kwargs!r} did not raise {error!r}")


def test_pickle_and_deepcopy_round_trips():
    for spec in specs():
        lines = [rule.line for rule in spec.rules]
        copies = [pickle.loads(pickle.dumps(spec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(spec), copy.copy(spec)]:
            assert twin == spec and hash(twin) == hash(spec)
            assert [rule.line for rule in twin.rules] == lines
            assert render_specification(twin) == render_specification(spec)
            assert [type(node) for node in nodes(twin)] == [type(node) for node in nodes(spec)]


def test_replace_builds_through_the_constructor():
    rule = parse_specification('S(x = 1, y = "a") & A -> B').rules[0]
    predicate, reference = rule.predicates
    renamed = dataclasses.replace(rule, conclusion="C")
    assert (renamed.predicates, renamed.conclusion, renamed.line) == (rule.predicates, "C", 1)
    shorter = dataclasses.replace(predicate, constraints=[predicate.constraints[1]])
    assert shorter.constraints == (predicate.constraints[1],) and type(shorter.constraints) is tuple
    assert dataclasses.replace(rule, predicates=[reference]).predicates == (reference,)
    constant = predicate.constraints[0].constant
    assert dataclasses.replace(constant, value=constant.value + 1) == Constant.number(2)
    assert dataclasses.replace(reference, objective_name="Z") == ObjectiveRef("Z")
    raises(ValueError, dataclasses.replace, predicate, constraints=())
    raises(ValueError, dataclasses.replace, rule, predicates=[])


def test_assignment_raises_frozen_instance_error():
    for node in nodes(specs()[0]) + [ObjectiveRef("A")]:
        field = dataclasses.fields(node)[0].name
        raises(dataclasses.FrozenInstanceError, setattr, node, field, None)
        raises(dataclasses.FrozenInstanceError, delattr, node, field)
        # slotted: no per-instance dict, so no other name can be set either;
        # the frozen ``__setattr__`` the dataclass generates refers to the
        # class before slots were added, and raises TypeError for such a name
        raises((AttributeError, TypeError), setattr, node, "note", None)
        assert not hasattr(node, "__dict__")
        # and no weak references
        raises(TypeError, weakref.ref, node)


def test_rule_line_takes_no_part_in_equality_or_hash():
    predicates = (ObjectiveRef("A"),)
    numbered, unnumbered = Rule(predicates, "Done", line=7), Rule(predicates, "Done")
    assert numbered == unnumbered and hash(numbered) == hash(unnumbered)
    assert (numbered.line, unnumbered.line) == (7, None)
    assert Rule(predicates, "B", 7) != numbered


def test_list_inputs_are_coerced_and_empty_ones_refused():
    constraint = Constraint("x", Operator.EQ, Constant.number(1))
    cases = [
        # (build, the container it fills, what it holds)
        (lambda items: StatePredicate("S", items), "constraints", [constraint]),
        (lambda items: StatePredicate(state_name="S", constraints=items), "constraints", [constraint]),
        (lambda items: Rule(items, "Done"), "predicates", [ObjectiveRef("A")]),
        (lambda items: Rule(conclusion="Done", predicates=items, line=2), "predicates", [ObjectiveRef("A")]),
        (lambda items: Specification(items), "rules", [Rule((ObjectiveRef("A"),), "Done")]),
        (lambda items: Constant.text_list(items), "value", ["a", "b"]),
    ]
    for build, container, items in cases:
        for given in (items, tuple(items), iter(items)):
            held = getattr(build(given), container)
            assert type(held) is tuple and held == tuple(items), (container, given)
        if container in ("constraints", "predicates"):
            for empty in ([], (), iter(())):
                raises(ValueError, build, empty)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
