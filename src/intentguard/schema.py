"""Developer-declared application state definitions.

A schema bounds the vocabulary a specification may talk about: which abstract
states exist, what each one means, and the typed variables it exposes.  The
on-disk format is a JSON document::

    {
      "app_id": "restaurant_demo",
      "states": [
        {
          "name": "RestaurantInfo",
          "description": "Information about the restaurant you want to reserve",
          "variables": [{"name": "Text"}]
        }
      ]
    }

Each entry of ``variables`` is a single-key object mapping a variable name to
a type name: ``Text`` (alias ``String``), ``Number``, ``Boolean`` (alias
``Bool``), ``Date``, ``Time``, or ``Enum[A, B, ...]``.  A flat
``{"var": "Type", ...}`` object is accepted as a shorthand for the list form.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._files import parse_json, read_text, write_text_atomic


class ConstKind(Enum):
    """A variable's declared type or a constant's kind; only constants (the
    right-hand side of ``in``/``not in``) are ``TEXT_LIST``."""

    TEXT = "Text"
    NUMBER = "Number"
    BOOLEAN = "Boolean"
    DATE = "Date"
    TIME = "Time"
    ENUM = "Enum"
    TEXT_LIST = "TextList"


#: Each kind bound once, here beside its Enum.  On CPython 3.10 and 3.11 a
#: ``ConstKind.X`` load runs through ``EnumType.__getattr__`` at about fifteen
#: times the cost of a module global, and the schema, parse, check, print and
#: verify paths branch on kinds once per variable, constraint or value.  So
#: their functions read these names, and other modules import them instead of
#: binding their own (``tests/test_member_loads.py`` keeps it so).
_TEXT, _NUMBER, _BOOLEAN, _DATE, _TIME, _ENUM, _TEXT_LIST = (
    ConstKind.TEXT, ConstKind.NUMBER, ConstKind.BOOLEAN, ConstKind.DATE, ConstKind.TIME, ConstKind.ENUM,
    ConstKind.TEXT_LIST,
)

_TYPE_ALIASES = {
    "text": _TEXT,
    "string": _TEXT,
    "str": _TEXT,
    "number": _NUMBER,
    "boolean": _BOOLEAN,
    "bool": _BOOLEAN,
    "date": _DATE,
    "time": _TIME,
}

_ENUM_RE = re.compile(r"^enum\s*\[(?P<variants>.*)\]$", re.IGNORECASE)


@dataclass(frozen=True)
class VarType:
    kind: ConstKind
    variants: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind is _ENUM:
            return f"Enum[{', '.join(self.variants)}]"
        return self.kind._value_


@dataclass(frozen=True)
class StateDef:
    """A declared state.  ``variables`` is a read-only copy of the mapping
    it was built from, so a schema cannot change under a recorded static
    check."""

    name: str
    description: str
    variables: Mapping[str, VarType] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", MappingProxyType(dict(self.variables)))

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; rebuild from a dict
        return StateDef, (self.name, self.description, dict(self.variables))


@dataclass(frozen=True)
class StateSchema:
    app_id: str
    states: tuple[StateDef, ...]

    def __post_init__(self) -> None:
        # the first declaration of a name wins.  Built here, not on first
        # lookup: a cached_property holds one lock on CPython 3.10 and 3.11,
        # shared by every schema, so first lookups on two threads would wait
        object.__setattr__(self, "_states_by_name", {s.name: s for s in reversed(self.states)})

    def state(self, name: str) -> StateDef | None:
        return self._states_by_name.get(name)


@dataclass(frozen=True)
class SchemaIssue:
    path: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.message}"


class SchemaError(ValueError):
    """Schema file failed validation; carries every issue found."""

    def __init__(self, issues: list[SchemaIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


#: The one spelling of a name, shared with the spec readers in :mod:`.dsl`: a
#: word of ``\w`` characters, taken whole, that starts with a letter or ``_``
#: and is neither ``in`` nor ``not`` (an operator, or half of one).  A schema
#: reads it with ``re.ASCII``, so a state or variable it declares is an ASCII
#: letter or ``_`` followed by ASCII letters, digits and ``_``: a name any spec
#: can write.  An Enum variant may be a word of any script (:func:`_is_variant`).
_NAME_SHAPE = r"(?!(?:in|not)(?!\w))[^\W\d]\w*(?!\w)"
_is_name = re.compile(_NAME_SHAPE, re.ASCII).fullmatch
_is_word = re.compile(_NAME_SHAPE).fullmatch

#: The bare words, in any case, that a spec reads as a Boolean or as ``Today``
#: rather than as an Enum variant.
_WORD_CONSTANTS = frozenset(("true", "false", "today"))


def _letter_first(name: str) -> bool:
    # \w also takes numerics that are not letters (², ½): they may continue a
    # name but not start one
    return name[0].isalpha() or name[0] == "_"


def _is_variant(text: str) -> bool:
    """Whether a spec reads the bare word ``text`` back as the Enum variant
    ``text``: a name of any script by ``_NAME_SHAPE`` that starts with a
    letter or ``_`` and is not a word constant."""
    return _is_word(text) is not None and _letter_first(text) and text.lower() not in _WORD_CONSTANTS


def parse_var_type(text: str) -> VarType | None:
    """Parse a type name; returns None when the name is unknown."""
    lowered = text.strip().lower()
    if lowered in _TYPE_ALIASES:
        return VarType(_TYPE_ALIASES[lowered])
    match = _ENUM_RE.match(text.strip())
    if match:
        variants = tuple(v.strip() for v in match.group("variants").split(",") if v.strip())
        return VarType(_ENUM, variants)
    return None


@functools.lru_cache(maxsize=256)
def _read_type(text: str) -> VarType | tuple[str, str]:
    """The type ``text`` names, or the code and message that refuse it.

    Both answers are immutable, so the recently read type texts share them
    across loads, and a text repeated in one load or in the next schema of
    an app is judged once."""
    var_type = parse_var_type(text)
    if var_type is None:
        return "UNKNOWN_TYPE", f"unknown type {text!r}; expected Text, Number, Boolean, Date, Time, or Enum[...]"
    if var_type.kind is not _ENUM:
        return var_type
    variants = var_type.variants
    if not variants:
        return "EMPTY_ENUM", "an Enum type needs at least one variant"
    if len(set(variants)) < len(variants):
        twice = next(v for i, v in enumerate(variants) if v in variants[:i])
        return "DUPLICATE_VARIANT", f"variant '{twice}' listed twice"
    unwritable = ", ".join([repr(v) for v in variants if not _is_variant(v)])
    if unwritable:
        return ("BAD_VARIANT", f"not a word a spec can write: {unwritable}; a variant starts with a letter "
                "or '_', holds only letters, digits and '_', and is not in, not, true, false or Today")
    return var_type


def _parse_variables(raw: object, state: int, issues: list[SchemaIssue]) -> dict[str, VarType]:
    """The variables of ``states[state]``, in one pass over ``raw``.

    A list entry of the wrong shape is reported as it is met; issues of
    names and types wait for the end, after every shape issue, and an
    issue's path is built only when it is reported.
    """
    listed = isinstance(raw, list)
    if not listed and not isinstance(raw, dict):
        issues.append(SchemaIssue(f"states[{state}].variables", "BAD_VARIABLE",
                                  "expected a list of single-key objects or an object"))
        return {}

    variables: dict[str, VarType] = {}
    late: list[SchemaIssue] = []
    for i, entry in enumerate(raw if listed else raw.items()):
        if listed:
            if not isinstance(entry, dict) or len(entry) != 1:
                issues.append(SchemaIssue(f"states[{state}].variables[{i}]", "BAD_VARIABLE",
                                          "expected a single-key object like {\"name\": \"Text\"}"))
                continue
            [entry] = entry.items()
        name, type_text = entry
        if not isinstance(name, str) or not _is_name(name):
            problem = "BAD_VARIABLE", f"variable name {name!r} is not an identifier"
        elif name in variables:
            problem = "DUPLICATE_VARIABLE", f"variable '{name}' declared twice"
        elif not isinstance(type_text, str):
            problem = "UNKNOWN_TYPE", f"type must be a string, got {type_text!r}"
        else:
            var_type = _read_type(type_text)
            if type(var_type) is VarType:
                variables[name] = var_type
                continue
            problem = var_type
        late.append(SchemaIssue(f"states[{state}].variables.{name}", *problem))
    issues += late
    return variables


def schema_from_dict(data: object) -> StateSchema:
    """Validate a decoded JSON document and build the schema.

    Raises :class:`SchemaError` carrying every issue, each with the offending
    field path.
    """
    issues: list[SchemaIssue] = []
    if not isinstance(data, dict):
        raise SchemaError([SchemaIssue("$", "BAD_DOCUMENT", "top level must be an object")])

    app_id = data.get("app_id")
    if not isinstance(app_id, str) or not app_id.strip():
        issues.append(SchemaIssue("app_id", "BAD_APP_ID", "app_id must be a non-empty string"))
        app_id = ""

    raw_states = data.get("states")
    states: list[StateDef] = []
    if not isinstance(raw_states, list) or not raw_states:
        issues.append(SchemaIssue("states", "NO_STATES", "at least one state must be declared"))
        raw_states = []

    seen_names: set[str] = set()
    for i, raw in enumerate(raw_states):
        if not isinstance(raw, dict):
            issues.append(SchemaIssue(f"states[{i}]", "BAD_STATE", "expected an object"))
            continue
        name = raw.get("name")
        if not isinstance(name, str) or not _is_name(name):
            issues.append(SchemaIssue(f"states[{i}].name", "BAD_STATE", f"state name {name!r} is not an identifier"))
            continue
        if name in seen_names:
            issues.append(SchemaIssue(f"states[{i}].name", "DUPLICATE_STATE", f"state '{name}' declared twice"))
            continue
        seen_names.add(name)
        description = raw.get("description", "")
        if not isinstance(description, str):
            issues.append(SchemaIssue(f"states[{i}].description", "BAD_STATE", "description must be a string"))
            description = ""
        elif "\n" in description or "\r" in description:
            # the prompt lists one state per line
            issues.append(SchemaIssue(f"states[{i}].description", "BAD_STATE", "description must be one line"))
        variables = _parse_variables(raw.get("variables", []), i, issues)
        if not variables:
            issues.append(SchemaIssue(f"states[{i}].variables", "NO_VARIABLES", f"state '{name}' declares no variables"))
            continue
        states.append(StateDef(name, description, variables))

    if issues:
        raise SchemaError(issues)
    return StateSchema(app_id=app_id, states=tuple(states))


def load_schema(path: str | Path) -> StateSchema:
    """Load and validate a schema JSON file."""
    text = read_text(path)
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise SchemaError([SchemaIssue("$", "BAD_JSON", str(exc))]) from exc
    return schema_from_dict(data)


def schema_to_dict(schema: StateSchema) -> dict:
    return {
        "app_id": schema.app_id,
        "states": [
            {
                "name": s.name,
                "description": s.description,
                "variables": [{name: var.describe()} for name, var in s.variables.items()],
            }
            for s in schema.states
        ],
    }


def save_schema(schema: StateSchema, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(schema_to_dict(schema), indent=2) + "\n")


def _shown_description(description: str) -> str:
    """A state's description as the prompt and the roadmap show it: trimmed,
    or ``(no description)`` when it holds nothing but periods and blanks,
    which would print as nothing once the roadmap drops its final period."""
    if not description.replace(".", "").strip():
        return "(no description)"
    return description.strip()


def describe_states(schema: StateSchema) -> str:
    """Render the schema as deterministic prompt text for the encoding model.

    States and variables are listed sorted by name, so two permutations of the
    same schema describe identically.
    """
    lines: list[str] = []
    for state in sorted(schema.states, key=lambda s: s.name):
        lines.append(f"- {state.name}: {_shown_description(state.description)}")
        for name in sorted(state.variables):
            lines.append(f"    {name}: {state.variables[name].describe()}")
    return "\n".join(lines) + "\n"
