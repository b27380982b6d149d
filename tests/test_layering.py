"""The verify path is pure rule evaluation: no module it runs through may
reach a completion backend or the HTTP client.  The schema module is the
bottom layer: it imports no other intentguard module but the file boundary,
which alone decodes JSON."""

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


def intentguard_imports(module: str) -> set[str]:
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    return {name for name in imported_names(tree) if name == "intentguard" or name.startswith("intentguard.")}


def test_schema_is_the_bottom_layer():
    # ConstKind lives in schema.py so every other module can import it from
    # below; its only dependency is the file boundary, which depends on nothing
    assert intentguard_imports("schema.py") <= {
        "intentguard._files", "intentguard._files.parse_json", "intentguard._files.write_text_atomic"
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
