"""Golden output of the schema validator.

``golden/schema_issues.jsonl`` holds, for seeded documents that mix well- and
ill-formed states, variables and types, either every issue
``schema_from_dict`` reports (code, path and message, in order) or the
``schema_to_dict`` of the schema it builds.  Each line carries its document,
so the golden replays as it stands even if the generator below changes.

Re-record from the current code with
``PYTHONPATH=src:tests python tests/test_schema_golden.py``.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
from pathlib import Path

from intentguard.schema import SchemaError, load_schema, schema_from_dict, schema_to_dict

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden" / "schema_issues.jsonl"
SEED = 11
N_DOCUMENTS = 400

GOOD_NAMES = ("name", "date", "time", "pay", "_count", "Item2", "available")
BAD_NAMES = ("9lives", "a b", "", "dash-ed", "ünï")
GOOD_TYPES = ("Text", "String", "str", "number", " Number ", "Boolean", "bool", "Date", "TIME",
              "Enum[Card, Cash]", "enum [Basic, Premium]", "Enum[ Solo ]", "Enum[a,,b]")
BAD_TYPES = ("Enum[]", "Enum[ , ]", "Float", "Enum Card", "", 3, None, ["Text"], {"Text": 1}, True)


def variable_name(rng: random.Random, taken: list[str], noise: float) -> str:
    roll = rng.random() / noise
    if roll < 0.1:
        return rng.choice(BAD_NAMES)
    if roll < 0.2 and taken:
        return rng.choice(taken)
    return rng.choice([name for name in GOOD_NAMES if name not in taken])


def type_text(rng: random.Random, noise: float) -> object:
    return rng.choice(BAD_TYPES) if rng.random() / noise < 0.15 else rng.choice(GOOD_TYPES)


def variables(rng: random.Random, noise: float) -> object:
    roll = rng.random() / noise
    if roll < 0.05:
        return "x: Text"
    if roll < 0.1:
        return []
    if roll < 0.3:
        names: list[str] = []
        for _ in range(rng.randint(0, 4)):
            names.append(variable_name(rng, names, noise))
        return {name: type_text(rng, noise) for name in names}
    items: list[object] = []
    names = []
    for _ in range(rng.randint(1, 5)):
        shape = rng.random() / noise
        if shape < 0.06:
            items.append(rng.choice(("x", 3, None, [])))
        elif shape < 0.12:
            items.append({"x": "Text", "y": "Number"})
        elif shape < 0.15:
            items.append({})
        else:
            names.append(variable_name(rng, names, noise))
            items.append({names[-1]: type_text(rng, noise)})
    return items


def state(rng: random.Random, taken: list[str], noise: float) -> object:
    if rng.random() / noise < 0.05:
        return rng.choice(("State", 3, None, []))
    raw: dict[str, object] = {}
    roll = rng.random() / noise
    if roll < 0.08:
        raw["name"] = rng.choice(("1st", "Bad Name", "", 7, None))
    elif roll < 0.15 and taken:
        raw["name"] = rng.choice(taken)
    elif roll < 0.16:
        pass
    else:
        raw["name"] = f"{rng.choice(('Form', 'View', 'Cart'))}{len(taken)}"
        taken.append(raw["name"])
    roll = rng.random() / noise
    if roll < 0.05:
        raw["description"] = rng.choice((1, None, ["x"]))
    elif roll < 0.75:
        raw["description"] = rng.choice(("", "A view.", "  padded  "))
    if rng.random() / noise > 0.05:
        raw["variables"] = variables(rng, noise)
    return raw


def document(rng: random.Random) -> object:
    """A document whose parts are each ill-formed with a chance scaled by
    ``noise``; about a third of the documents have none."""
    noise = rng.choice((1e-9, 0.3, 1.0))
    roll = rng.random() / noise
    if roll < 0.04:
        return rng.choice(([], "schema", 3))
    doc: dict[str, object] = {}
    if roll < 0.08:
        doc["app_id"] = rng.choice(("", "   ", 7))
    elif roll > 0.12:
        doc["app_id"] = "demo"
    roll = rng.random() / noise
    if roll < 0.03:
        doc["states"] = rng.choice(({}, "S", []))
    elif roll > 0.06:
        taken: list[str] = []
        doc["states"] = [state(rng, taken, noise) for _ in range(rng.randint(1, 5))]
    return doc


def outcome(doc: object) -> dict:
    try:
        schema = schema_from_dict(doc)
    except SchemaError as exc:
        return {"issues": [str(i) for i in exc.issues]}
    return {"schema": schema_to_dict(schema)}


def entries() -> list[dict]:
    rng = random.Random(SEED)
    return [{"document": doc, **outcome(doc)} for doc in (document(rng) for _ in range(N_DOCUMENTS))]


def recorded() -> list[dict]:
    return [json.loads(raw) for raw in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_the_golden_has_both_outcomes_and_every_issue_code():
    lines = recorded()
    assert len(lines) == N_DOCUMENTS
    assert sum("schema" in line for line in lines) >= 50
    codes = {issue.split(" at ", 1)[0] for line in lines for issue in line.get("issues", ())}
    assert codes == {"BAD_DOCUMENT", "BAD_APP_ID", "NO_STATES", "BAD_STATE", "DUPLICATE_STATE", "BAD_VARIABLE",
                     "DUPLICATE_VARIABLE", "UNKNOWN_TYPE", "EMPTY_ENUM", "NO_VARIABLES"}


def test_validator_is_byte_identical_to_the_golden():
    mismatches = [(line, got) for line in recorded()
                  if (got := outcome(line["document"])) != {k: v for k, v in line.items() if k != "document"}]
    assert not mismatches, f"{len(mismatches)} documents changed; first: {mismatches[0]}"


def test_a_type_text_is_parsed_once_per_load():
    schema = schema_from_dict({"app_id": "demo", "states": [
        {"name": "A", "variables": [{"x": "Number"}, {"pay": "Enum[Basic, Premium]"}]},
        {"name": "B", "variables": {"y": "Number", "plan": "Enum[Basic, Premium]", "z": "number"}},
    ]})
    a, b = (state.variables for state in schema.states)
    assert a["x"] is b["y"]
    assert a["pay"] is b["plan"]
    assert b["z"] == b["y"]


def test_a_loaded_schema_round_trips_through_pickle_and_deepcopy():
    for path in sorted(FIXTURES.glob("*/schema.json")):
        schema = load_schema(path)
        for copied in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema)):
            assert copied == schema
            assert schema_to_dict(copied) == schema_to_dict(schema)


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(e, ensure_ascii=True) + "\n" for e in entries()), encoding="utf-8")
