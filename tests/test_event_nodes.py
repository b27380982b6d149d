"""Slotted events and verdicts keep the frozen-dataclass contract.

``StateUpdate``, ``ActionEvent``, ``Verdict`` and ``FeedbackBundle`` are
slotted frozen dataclasses built by ``dsl._node``, like the syntax-tree nodes.
The events here come from ``parse_trace`` and the verdicts from ``replay``,
over the restaurant fixtures and seeded generated sessions.  These tests
import neither pytest nor click, so they also run as a plain script on an
interpreter that has neither::

    PYTHONPATH=src python3 tests/test_event_nodes.py
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import pickle
import random
import weakref
from datetime import datetime
from pathlib import Path

from intentguard.dsl import parse_specification
from intentguard.engine import ActionEvent, StateUpdate, Verdict, VerdictKind
from intentguard.feedback import FeedbackBundle
from intentguard.schema import load_schema
from intentguard.trace import event_to_dict, parse_trace, replay

import generators

RESTAURANT = Path(__file__).resolve().parent.parent / "fixtures" / "restaurant"
CLOCK = datetime(2025, 3, 14, 12, 0, 0)
SEEDS = range(6)
NODES = (StateUpdate, ActionEvent, Verdict, FeedbackBundle)


def sessions() -> list[tuple[list[ActionEvent], list[Verdict]]]:
    """The parsed events and replayed verdicts of every restaurant trace, and
    of each generated session written out as a trace and parsed back."""
    found = []
    schema = load_schema(RESTAURANT / "schema.json")
    spec = parse_specification((RESTAURANT / "reservation.vsa").read_text(encoding="utf-8"))
    for path in sorted((RESTAURANT / "traces").glob("*.jsonl")):
        trace = parse_trace(path.read_text(encoding="utf-8"), schema)
        found.append((list(trace.events), replay(spec, schema, trace).verdicts))
    for seed in SEEDS:
        schema, spec, events = generators.verification_session(random.Random(seed), CLOCK.date())
        header = {"app_id": schema.app_id, "schema_path": "", "instruction": "generated", "clock": CLOCK.isoformat()}
        lines = [json.dumps(header)] + [json.dumps(event_to_dict(event)) for event in events]
        trace = parse_trace("\n".join(lines), schema)
        assert list(trace.events) == events, seed
        found.append((list(trace.events), replay(spec, schema, trace).verdicts))
    return found


def nodes() -> list[object]:
    """Every event, update, verdict and feedback bundle of :func:`sessions`."""
    found: list[object] = []
    for events, verdicts in sessions():
        for event in events:
            found.append(event)
            found.extend(event.updates)
        for verdict in verdicts:
            found += [verdict, verdict.feedback]
    return found


def values(node: object) -> tuple:
    return tuple(getattr(node, f.name) for f in dataclasses.fields(node))


def raises(error: type[Exception] | tuple[type[Exception], ...], call, *args, **kwargs) -> Exception:
    try:
        call(*args, **kwargs)
    except error as exc:
        return exc
    raise AssertionError(f"{call.__name__}{args!r} {kwargs!r} did not raise {error!r}")


def test_sessions_reach_every_kind_of_node():
    found = nodes()
    kinds = {node.kind for node in found if isinstance(node, Verdict)}
    assert kinds == set(VerdictKind), kinds
    bundles = [node for node in found if isinstance(node, FeedbackBundle)]
    assert any(bundle.soft for bundle in bundles) and any(bundle.hard for bundle in bundles)
    events = [node for node in found if isinstance(node, ActionEvent)]
    assert any(event.critical for event in events) and any(not event.updates for event in events)


def test_pickle_and_deepcopy_round_trips():
    for node in nodes():
        copies = [pickle.loads(pickle.dumps(node, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(node), copy.copy(node)]:
            assert type(twin) is type(node) and twin == node and values(twin) == values(node)
            if isinstance(node, (Verdict, FeedbackBundle)):
                assert hash(twin) == hash(node)
        if isinstance(node, Verdict):
            assert copy.deepcopy(node).to_json_dict() == node.to_json_dict()


def test_replace_builds_through_the_constructor():
    events, verdicts = sessions()[0]
    event, verdict = events[0], verdicts[0]
    update, bundle = event.updates[0], verdict.feedback
    changes = [
        (update, {"state": "Elsewhere"}),
        (update, {"values": {}}),
        (event, {"critical": "Reserve"}),
        (event, {"action_id": "other", "phase": "post", "updates": ()}),
        (verdict, {"kind": VerdictKind.HARD_BLOCK, "achieved": ("Reserve",)}),
        (bundle, {"soft": "warning"}),
        (bundle, {"roadmap": (), "hard": "blocked"}),
    ]
    for node, change in changes:
        cls, calls = type(node), []
        original = cls.__init__

        def counted(self, *args, **kwargs):
            calls.append(kwargs)
            original(self, *args, **kwargs)

        cls.__init__ = counted
        try:
            built = dataclasses.replace(node, **change)
        finally:
            cls.__init__ = original
        assert len(calls) == 1 and set(calls[0]) == {f.name for f in dataclasses.fields(node)}, calls
        for f in dataclasses.fields(node):
            assert getattr(built, f.name) is change.get(f.name, getattr(node, f.name)), f.name
        raises(TypeError, dataclasses.replace, node, note=None)


def test_defaults_and_keywords_are_kept():
    bundle = FeedbackBundle(("line",))
    assert (bundle.soft, bundle.hard) == (None, None)
    assert Verdict("a1", VerdictKind.ALLOW, bundle).achieved == ()
    assert ActionEvent("a1", "pre", ()).critical is None
    assert ActionEvent(critical="X", updates=(), phase="post", action_id="a2") == ActionEvent("a2", "post", (), "X")
    assert StateUpdate(values={}, state="S") == StateUpdate("S", {})
    for cls in NODES:
        raises(TypeError, cls)


def test_signatures_list_the_fields_in_order():
    for cls in NODES:
        parameters = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in parameters] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)
        ], cls
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, cls


def test_assignment_and_deletion_raise_the_dataclass_errors():
    for node in nodes():
        for name in [f.name for f in dataclasses.fields(node)] + ["note", "__dict__"]:
            for verb, act in (("assign to", setattr), ("delete", delattr)):
                error = raises(dataclasses.FrozenInstanceError, act, node, name, *([None] if act is setattr else []))
                assert str(error) == f"cannot {verb} field {name!r}", error
        # slotted: no per-instance dict and no weak references
        assert not hasattr(node, "__dict__")
        raises(TypeError, weakref.ref, node)


def test_events_stay_unhashable():
    # an update's values are a dict, so neither it nor its event hashes
    for node in nodes():
        if isinstance(node, StateUpdate) or (isinstance(node, ActionEvent) and node.updates):
            raises(TypeError, hash, node)
    assert hash(ActionEvent("a1", "pre", (), "Done")) == hash(ActionEvent("a1", "pre", (), "Done"))


def test_equality_compares_the_fields_in_order():
    found = nodes()
    sample = random.Random(0).sample(found, 200)
    for a in sample:
        assert a == type(a)(*values(a)) and not a != type(a)(*values(a))
        assert a != values(a)
        for b in sample:
            same = type(a) is type(b) and values(a) == values(b)
            assert (a == b) is same and (a != b) is not same, (a, b)
    # two replays of one trace give equal verdicts, not the same objects
    first, second = sessions()[0][1], sessions()[0][1]
    assert first == second and all(a is not b for a, b in zip(first, second))


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
