"""No function on the schema, parse, check, print or verify path loads an
Enum member.

On CPython 3.10 and 3.11 every ``ConstKind.X`` runs through the
``EnumType.__getattr__`` hook, at about fifteen times the cost of a module
global, and these modules run their functions once per variable, per
constraint or per event.  So each member they use is bound to a module-level
name once, and functions read that name.  Module-level statements and class bodies run once
and may load members freely.  ``DiagnosticCode`` is left out: it is loaded
only when a diagnostic is reported.
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


def member_loads(tree: ast.Module) -> list[str]:
    """Every ``Kind.MEMBER`` or ``Kind[...]`` of a guarded Enum inside a
    function or lambda body; a default value or decorator is evaluated once,
    where the function is defined, and is not a body."""
    found: list[str] = []

    def scan(node: ast.AST) -> None:
        for inner in ast.walk(node):
            if not isinstance(inner, (ast.Attribute, ast.Subscript)) or not isinstance(inner.value, ast.Name):
                continue
            enum = GUARDED.get(inner.value.id)
            if enum is None:
                continue
            if isinstance(inner, ast.Subscript):
                found.append(f"line {inner.lineno}: {inner.value.id}[...]")
            elif inner.attr in enum.__members__:
                found.append(f"line {inner.lineno}: {inner.value.id}.{inner.attr}")

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for statement in node.body:
                scan(statement)
        elif isinstance(node, ast.Lambda):
            scan(node.body)
    # a function nested in another is scanned with its parent and again alone
    return sorted(set(found), key=lambda entry: int(entry.split()[1].rstrip(":")))


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
