"""The verify path is pure rule evaluation: no module it runs through may
reach a completion backend or the HTTP client.  The schema module is the
bottom layer: it imports no other intentguard module but the file boundary,
which alone reads input files and decodes JSON."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "intentguard"
RESTAURANT = SOURCE.parent.parent / "fixtures" / "restaurant"
VERIFY_PATH = ["dsl.py", "schema.py", "engine.py", "feedback.py", "trace.py"]
FORBIDDEN = ("intentguard.backend", "requests")


def imported_names(tree: ast.Module) -> set[str]:
    """Every dotted name an import statement can bind, with relative imports
    resolved against the ``intentguard`` package."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"intentguard.{module}" if module else "intentguard"
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", VERIFY_PATH)
def test_verify_path_never_imports_a_backend(module):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    reached = {
        name for name in imported_names(tree) for banned in FORBIDDEN if name == banned or name.startswith(banned + ".")
    }
    assert not reached, f"{module} imports {sorted(reached)}"


#: What a process that never calls a model must never load: the HTTP client
#: and OpenSSL's hash bindings.  ``certifi`` is left out, since a ``.pth``
#: file in some environments imports it at interpreter start.
NEVER_LOADED = ("requests", "urllib3", "_hashlib")

LOADS_PROBE = """
import json, sys
from intentguard import BackendError, HttpBackend
from intentguard.cli import main
try:
    HttpBackend("http://localhost:1", "model", api_key_env="INTENTGUARD_UNSET_KEY").complete("encoder", "", "")
except BackendError as exc:
    assert exc.category == "config", exc
spec, schema, trace = sys.argv[1:]
main(["verify", "--spec", spec, "--schema", schema, "--trace", trace], standalone_mode=False)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] in {names})))
"""


def test_verify_process_never_loads_the_http_client():
    # the import-statement check above sees each module alone; this one sees
    # the running process, the package __init__ and the CLI included.  An
    # HTTP backend with no API key fails before it loads anything
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    env.pop("INTENTGUARD_UNSET_KEY", None)
    probe = LOADS_PROBE.format(names=NEVER_LOADED)
    paths = [RESTAURANT / "reservation.vsa", RESTAURANT / "schema.json", RESTAURANT / "traces" / "happy_path.jsonl"]
    run = subprocess.run([sys.executable, "-c", probe, *map(str, paths)],
                         env=env, capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert json.loads(lines[-2])["kind"] == "task_done"
    assert json.loads(lines[-1]) == []


#: The modules only ``encode`` and ``eval`` run; no other command loads them.
ENCODE_ONLY = ("intentguard.encoder", "intentguard.evaluation", "intentguard.memory")

COMMAND_PROBE = """
import json, sys
import intentguard
imported = sorted(name for name in sys.modules if name.startswith("intentguard."))
from intentguard.cli import main
code = main(sys.argv[1:], standalone_mode=False)
ran = sorted(name for name in sys.modules if name.startswith("intentguard."))
print(json.dumps([code, imported, ran]))
"""


@pytest.mark.parametrize("command, code", [
    (["verify", "--spec", "reservation.vsa", "--schema", "schema.json", "--trace", "traces/happy_path.jsonl"], None),
    (["check", "--spec", "reservation.vsa", "--schema", "schema.json"], None),
    (["schema", "lint", "schema.json"], None),
    (["verify", "--spec", "reservation.vsa", "--schema", "schema.json", "--trace", "traces/wrong_time.jsonl"], 2),
], ids=["verify", "check", "schema-lint", "verify-blocked"])
def test_commands_that_never_encode_never_load_the_encoder(command, code):
    # importing the package loads none of them either: its names for them
    # are served on first use
    run = subprocess.run([sys.executable, "-c", COMMAND_PROBE, *command], cwd=RESTAURANT,
                         env=dict(os.environ, PYTHONPATH=str(SOURCE.parent)), capture_output=True, text=True, check=True)
    exit_code, imported, ran = json.loads(run.stdout.splitlines()[-1])
    assert exit_code == code
    assert "intentguard.trace" in imported and "intentguard.cli" in ran
    assert not set(ENCODE_ONLY) & set(imported + ran), ran


#: The names the package serves from the encode-only modules, by module.
ENCODE_ONLY_NAMES = {
    "encoder": ["ConstraintRef", "DiffReport", "EncodeConfig", "EncodeFailed", "EncodeResult", "FinalVerdict",
                "MalformedVerdict", "SchemaMismatch", "TranscriptEntry", "decode_spec", "diff_specifications", "encode",
                "majority_encode", "majority_verify", "semantic_check"],
    "evaluation": ["EvalCase", "EvalReport", "load_cases", "run_eval"],
    "memory": ["PredicateMemory", "ScoredPredicate", "used_predicates"],
}


def test_encode_only_names_are_the_modules_own():
    import importlib

    import intentguard

    for module_name, names in ENCODE_ONLY_NAMES.items():
        module = importlib.import_module(f"intentguard.{module_name}")
        for name in names:
            assert getattr(intentguard, name) is getattr(module, name), name
            assert name in dir(intentguard)
            namespace: dict = {}
            exec(f"from intentguard import {name}", namespace)
            assert namespace[name] is getattr(module, name)
    from intentguard import encoder

    assert encoder is importlib.import_module("intentguard.encoder")
    with pytest.raises(AttributeError, match="^module 'intentguard' has no attribute 'encoders'$"):
        intentguard.encoders


def intentguard_imports(module: str) -> set[str]:
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    return {name for name in imported_names(tree) if name == "intentguard" or name.startswith("intentguard.")}


def test_schema_is_the_bottom_layer():
    # ConstKind lives in schema.py so every other module can import it from
    # below; its only dependency is the file boundary, which depends on nothing
    assert intentguard_imports("schema.py") <= {
        "intentguard._files", "intentguard._files.parse_json", "intentguard._files.read_text",
        "intentguard._files.write_text_atomic",
    }
    assert intentguard_imports("_files.py") == set()


DECODER_NAMES = {"JSONDecodeError", "RecursionError"}
JSON_DECODERS = {"load", "loads"}


def decoder_uses(tree: ast.Module) -> list[str]:
    """Every use of ``json.load`` or ``json.loads`` (or an imported one), every
    ``.json()`` method call, such as a ``requests`` reply decoding itself, and
    every name that decides which decoder failures mean a malformed input."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "json":
            found.append(f"line {node.lineno}: .json()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id == "json" and node.attr in JSON_DECODERS) or node.attr in DECODER_NAMES:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in DECODER_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"line {node.lineno}: from json import {a.name}" for a in node.names
                         if a.name in JSON_DECODERS or a.name in DECODER_NAMES)
    return found


@pytest.mark.parametrize(
    "source",
    ["json.load(handle)", "from json import load", "from json import loads as decode", "data = response.json()",
     "requests.post(url).json()"],
)
def test_decoder_uses_sees_every_decoder(source):
    assert decoder_uses(ast.parse(source))


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "_files.py"))
def test_only_the_file_boundary_decodes_json(module):
    # _files.parse_json is the one decoder: it alone knows which failures of
    # json.loads mean "malformed", and every loader catches only ValueError
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert not decoder_uses(tree), f"{module} decodes JSON itself: {decoder_uses(tree)}"


def test_the_file_boundary_is_where_json_is_decoded():
    assert decoder_uses(ast.parse((SOURCE / "_files.py").read_text(encoding="utf-8")))


READ_METHODS = {"read_text", "read_bytes"}
#: The one read outside the file boundary: the encoder's prompt templates,
#: package data read through ``importlib.resources``, not a user's input.
PACKAGE_DATA_READS = {("encoder.py", "_prompt")}


def _reads_in_read_mode(call: ast.Call) -> bool:
    """Whether a builtin ``open`` call may read: no mode, a mode that is not a
    constant, or a constant one with ``r`` or ``+``."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return True
    return not isinstance(mode, ast.Constant) or not isinstance(mode.value, str) or bool(set(mode.value) & set("r+"))


def file_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``.read_text(``, ``.read_bytes(`` and read-mode ``open(`` or
    ``io.open(`` call, each with the function it sits in ("" at module level)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                is_open = (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr == "open"
                    and isinstance(func.value, ast.Name) and func.value.id == "io")
                if (isinstance(func, ast.Attribute) and func.attr in READ_METHODS) or (
                        is_open and _reads_in_read_mode(child)):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(tree, "")
    return found


@pytest.mark.parametrize(
    "source",
    ["Path(p).read_text(encoding='utf-8')", "p.read_bytes()", "open(p)", "open(p, 'rb', buffering=0)",
     "open(p, mode='r')", "open(p, 'w+')", "open(p, mode)", "io.open(p)", "def f():\n    with open(p) as h: pass"],
)
def test_file_reads_sees_every_read(source):
    assert file_reads(ast.parse(source))


@pytest.mark.parametrize("source", ["open(fd, 'w', encoding='utf-8')", "open(p, mode='ab')", "os.open(p, flags)",
                                    "handle.read()", "p.write_text(t)"])
def test_file_reads_passes_over_writes_and_other_calls(source):
    assert not file_reads(ast.parse(source))


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "_files.py"))
def test_only_the_file_boundary_reads_files(module):
    # _files.read_text is the one reader: UTF-8, with no newline translated,
    # so a lone \r in a spec reaches the parser as the character it is
    reads = [(function, line) for function, line in file_reads(ast.parse((SOURCE / module).read_text(encoding="utf-8")))
             if (module, function) not in PACKAGE_DATA_READS]
    assert not reads, f"{module} reads a file itself at {reads}"


def test_the_file_boundary_has_one_read():
    assert [function for function, _ in file_reads(ast.parse((SOURCE / "_files.py").read_text(encoding="utf-8")))] \
        == ["read_text"]
    encoder = file_reads(ast.parse((SOURCE / "encoder.py").read_text(encoding="utf-8")))
    assert [function for function, _ in encoder] == ["_prompt"]


def slot_writes(tree: ast.Module) -> list[str]:
    """Every load of a ``__set__`` attribute and every assignment to a
    ``__setattr__`` or ``__delattr__`` attribute: how a slotted frozen node
    stores its fields and refuses every other write."""
    return [
        f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            (node.attr == "__set__" and isinstance(node.ctx, ast.Load))
            or (node.attr in ("__setattr__", "__delattr__") and isinstance(node.ctx, ast.Store))
        )
    ]


@pytest.mark.parametrize(
    "source",
    ["store = Rule.line.__set__", "Rule.__setattr__ = refuse", "Rule.__setattr__, Rule.__delattr__ = refuse, refuse"],
)
def test_slot_writes_sees_every_form(source):
    assert slot_writes(ast.parse(source))


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "dsl.py"))
def test_only_dsl_builds_slotted_nodes(module):
    # dsl._node is the one place that knows how a slotted frozen node stores
    # its fields and refuses every other write; other modules decorate with it
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert not slot_writes(tree), f"{module} builds a node by hand: {slot_writes(tree)}"


def test_dsl_is_where_nodes_are_built():
    assert slot_writes(ast.parse((SOURCE / "dsl.py").read_text(encoding="utf-8")))


def cached_property_uses(tree: ast.Module) -> list[int]:
    """The line of every name, attribute or import spelled ``cached_property``."""
    return [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "cached_property" for alias in node.names))
    ]


@pytest.mark.parametrize("source", [
    "from functools import cached_property as lazy",
    "import functools\nclass A:\n    @functools.cached_property\n    def x(self): pass",
    "class A:\n    x = cached_property(len)",
])
def test_cached_property_uses_sees_every_form(source):
    assert cached_property_uses(ast.parse(source))


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_no_cached_property(module):
    # on CPython 3.10 and 3.11 a cached_property holds one lock, shared by
    # every instance, so first reads on objects that share nothing (two
    # sessions, two schemas) would wait for each other across threads
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    assert not cached_property_uses(tree), f"{module} uses cached_property on lines {cached_property_uses(tree)}"


def spellings(word: str) -> list[tuple[str, int]]:
    """The module and line of every string constant holding ``word``, but a
    docstring, and of every attribute named ``word``, in the package's source."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str) and word in node.value
                    and id(node) not in docstrings) or (isinstance(node, ast.Attribute) and node.attr == word):
                found.append((path.name, node.lineno))
    return found


@pytest.mark.parametrize("word, module", [("(no description)", "schema.py"), ("strerror", "_files.py")])
def test_a_shared_rule_is_written_once(word, module):
    # the prompt and the roadmap call an empty description the same, and every
    # message about a failed file gives the same reason, because one function
    # decides each
    found = spellings(word)
    assert [name for name, _ in found] == [module], found


def test_schema_and_spec_share_one_name_shape():
    from intentguard import dsl, schema

    assert dsl._NAME_SHAPE is schema._NAME_SHAPE
    assert not hasattr(schema, "_IDENT_RE")
