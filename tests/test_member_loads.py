"""No function on the schema, parse, check, print or verify path loads an
Enum member, and each member is bound in one module only.

On CPython 3.10 and 3.11 every ``ConstKind.X`` runs through the
``EnumType.__getattr__`` hook, at about fifteen times the cost of a module
global, and these modules run their functions once per variable, per
constraint or per event.  So each member they use is bound to a module-level
name once, and functions read that name.  The bindings sit beside their Enum:
``ConstKind``'s in ``schema``, ``Operator``'s and ``PredicateStatus``'s in
``dsl``, ``VerdictKind``'s in ``engine``.  Other modules import those names
and load no member of an Enum defined elsewhere, even at module level.
``DiagnosticCode`` is left out: it is loaded only when a diagnostic is
reported.
"""

from __future__ import annotations

import ast
from enum import Enum
from pathlib import Path

import pytest

from intentguard.dsl import ConstKind, Operator
from intentguard.engine import PredicateStatus, VerdictKind

SOURCE = Path(__file__).resolve().parent.parent / "src" / "intentguard"
MODULES = ["dsl.py", "feedback.py", "engine.py", "trace.py", "schema.py"]
GUARDED: dict[str, type[Enum]] = {cls.__name__: cls for cls in (ConstKind, Operator, PredicateStatus, VerdictKind)}
#: The module each guarded Enum is defined in, the one place its members are bound.
HOMES = {"ConstKind": "schema.py", "Operator": "dsl.py", "PredicateStatus": "dsl.py", "VerdictKind": "engine.py"}


def scan(node: ast.AST) -> list[tuple[ast.AST, str, str]]:
    """Every ``Kind.MEMBER`` or ``Kind[...]`` of a guarded Enum under
    ``node``: the load, its Enum's name and where it is."""
    found = []
    for inner in ast.walk(node):
        if not isinstance(inner, (ast.Attribute, ast.Subscript)) or not isinstance(inner.value, ast.Name):
            continue
        name = inner.value.id
        enum = GUARDED.get(name)
        if enum is None:
            continue
        if isinstance(inner, ast.Subscript):
            found.append((inner, name, f"line {inner.lineno}: {name}[...]"))
        elif inner.attr in enum.__members__:
            found.append((inner, name, f"line {inner.lineno}: {name}.{inner.attr}"))
    return found


def bodies(tree: ast.Module) -> list[ast.AST]:
    """The statements of every function body and the expression of every
    lambda; a default value or decorator is evaluated once, where the
    function is defined, and is not a body."""
    found: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(node.body)
        elif isinstance(node, ast.Lambda):
            found.append(node.body)
    return found


def member_loads(tree: ast.Module) -> list[str]:
    """Every guarded load inside a function or lambda body."""
    # a function nested in another is scanned with its parent and again alone
    found = {entry for body in bodies(tree) for _, _, entry in scan(body)}
    return sorted(found, key=lambda entry: int(entry.split()[1].rstrip(":")))


def module_level_loads(tree: ast.Module) -> list[tuple[str, str]]:
    """Every guarded load outside all function and lambda bodies, which runs
    once, at import: in a module-level statement, a class body, a default
    value or a decorator.  Each is ``(Enum name, where)``."""
    in_bodies = {id(load) for body in bodies(tree) for load, _, _ in scan(body)}
    return [(enum, entry) for load, enum, entry in scan(tree) if id(load) not in in_bodies]


@pytest.mark.parametrize(
    "source",
    [
        "def f(c):\n    return c.kind is ConstKind.TEXT",
        "def f(s):\n    return s.kind.value if s is VerdictKind.ALLOW else None",
        "class C:\n    def m(self):\n        return PredicateStatus.SATISFIED",
        "g = lambda: Operator.NOT_IN",
        "def f(k):\n    return ConstKind[k]",
        "def f():\n    def g():\n        return ConstKind.DATE\n    return g",
    ],
)
def test_member_loads_sees_a_load_in_any_function_body(source):
    assert member_loads(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "_TEXT = ConstKind.TEXT",
        "class C:\n    kinds = (ConstKind.TEXT, ConstKind.ENUM)",
        "def f(kind=ConstKind.TEXT):\n    return kind",
        "def f(c):\n    return c.kind is _TEXT and isinstance(c, ConstKind)",
        "def f(op):\n    return op.kinds",
    ],
)
def test_member_loads_allows_bindings_made_once(source):
    assert not member_loads(ast.parse(source))


@pytest.mark.parametrize("module", MODULES)
def test_no_function_loads_an_enum_member(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert not member_loads(tree), f"{module} loads Enum members in function bodies: {member_loads(tree)}"


@pytest.mark.parametrize(
    "source, expected",
    [
        ("_TEXT = ConstKind.TEXT", [("ConstKind", "line 1: ConstKind.TEXT")]),
        ("class C:\n    status = PredicateStatus.SATISFIED", [("PredicateStatus", "line 2: PredicateStatus.SATISFIED")]),
        ("def f(kind=VerdictKind.ALLOW):\n    return kind", [("VerdictKind", "line 1: VerdictKind.ALLOW")]),
        ("def f():\n    return Operator.EQ", []),
        ("g = lambda: ConstKind.DATE", []),
    ],
)
def test_module_level_loads_sees_only_loads_made_once(source, expected):
    assert module_level_loads(ast.parse(source)) == expected


@pytest.mark.parametrize("module", MODULES)
def test_members_are_bound_only_beside_their_enum(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    strays = [entry for enum, entry in module_level_loads(tree) if HOMES[enum] != module]
    assert not strays, f"{module} binds members of an Enum defined elsewhere (import the names instead): {strays}"
