"""Command-line surface.

Subcommands:

* ``encode``      translate an instruction into a spec via a backend
* ``check``       static-check a spec file against a schema
* ``verify``      replay a trace file through a spec, streaming verdict JSON
* ``eval``        score a directory of labeled cases
* ``schema lint`` validate a schema file

The encoder, evaluation and memory modules are imported inside the commands
that run them, so ``verify``, ``check`` and ``schema lint`` never load them.

Exit codes: 0 on success (verify: task completed; check/lint: clean),
2 when verification ends blocked/incomplete or checks found findings,
1 on hard errors (unreadable files, parse failures, backend trouble).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import click

from . import __version__
from ._files import failure_reason, write_text_atomic
from .backend import BackendError, HttpBackend, MockBackend
from .dsl import check_specification, load_specification, render_specification
from .engine import EngineError, InvalidSpecification
from .schema import SchemaError, load_schema
from .trace import load_trace, replay


def _fail(message: str) -> "click.exceptions.Exit":
    click.echo(f"error: {message}", err=True)
    return click.exceptions.Exit(1)


@contextmanager
def _writing_or_exit(path: str):
    """Turn a failed write of ``path`` into an error message and exit 1.  The
    message gives the system's reason, not the temporary file it names."""
    try:
        yield
    except OSError as exc:
        raise _fail(f"cannot write {path}: {failure_reason(exc)}")


def _load_or_exit(what: str, load, path: str, *args):
    """``load(path, *args)``, with an unreadable or malformed input turned into
    ``error: <what> <path>: <reason>`` and exit 1.  Only this names the input:
    the reason is the loader's ``ValueError`` or ``BackendError``, or an ``OSError``'s strerror.
    Input options carry no ``click.Path`` check, so a directory or an unreadable
    file is judged here too, not by a usage error that exits 2."""
    try:
        return load(path, *args)
    except (OSError, ValueError, BackendError) as exc:
        raise _fail(f"{what} {path}: {failure_reason(exc)}")


def _backend_options(fn):
    fn = click.option("--backend", "backend_kind", type=click.Choice(["mock", "http"]), default="mock",
                      show_default=True, help="Completion backend.")(fn)
    fn = click.option("--fixture", help="Mock script file (required with --backend mock).")(fn)
    fn = click.option("--endpoint", default="https://api.openai.com/v1", show_default=True,
                      help="HTTP backend base URL.")(fn)
    fn = click.option("--model", default="gpt-4o", show_default=True, help="HTTP backend model name.")(fn)
    fn = click.option("--api-key-env", default="OPENAI_API_KEY", show_default=True,
                      help="Environment variable holding the API key.")(fn)
    fn = click.option("--timeout", "timeout_s", type=float, default=60.0, show_default=True,
                      help="HTTP timeout in seconds.")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")(fn)
    return fn


def _make_backend(backend_kind, fixture, **http_options):
    """The backend ``--backend`` names: the mock replaying ``--fixture``, or
    an :class:`HttpBackend` built from the remaining options."""
    if backend_kind == "http":
        return HttpBackend(**http_options)
    if fixture is None:
        raise _fail("mock backend needs a fixture file")
    return _load_or_exit("fixture", MockBackend.from_fixture, fixture)


@click.group()
@click.version_option(version=__version__, prog_name="intentguard")
def main() -> None:
    """Encode task instructions into rule programs and verify agent actions
    against them before they take effect."""


@main.command("encode")
@click.option("--instruction", required=True, help="Natural-language task instruction.")
@click.option("--schema", "schema_path", required=True)
@click.option("--memory", "memory_path", help="Predicate-memory JSON; read to prioritize candidates.")
@click.option("--majority", "majority_n", type=int, default=1, show_default=True,
              help="Encode N times (odd) and keep the modal spec.")
@click.option("--max-iterations", type=int, default=3, show_default=True,
              help="Repair-loop budget per encoding.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, readable=False),
              help="Write the spec here instead of stdout.")
@click.option("--log", "log_path", type=click.Path(dir_okay=False, readable=False),
              help="Write the transcript (JSONL) here.")
@_backend_options
def cmd_encode(instruction, schema_path, memory_path, majority_n, max_iterations, out_path, log_path, **backend_kw):
    """Translate an instruction into a specification."""
    from .encoder import EncodeConfig, EncodeFailed, majority_encode
    from .memory import PredicateMemory

    schema = _load_or_exit("schema", load_schema, schema_path)
    backend = _make_backend(**backend_kw)
    memory = _load_or_exit("memory", PredicateMemory.load_or_empty, memory_path) if memory_path else None
    try:
        config = EncodeConfig(max_repair_iterations=max_iterations, majority_n=majority_n)
        chosen = majority_encode(instruction, schema, backend, config, memory)
    except EncodeFailed as exc:
        for line in exc.diagnostics:
            click.echo(f"encode: {line}", err=True)
        if log_path:
            _write_transcript(log_path, exc.transcript)
        raise _fail(str(exc))
    except BackendError as exc:
        raise _fail(f"backend: {exc}")
    except ValueError as exc:
        raise _fail(str(exc))

    rendered = render_specification(chosen.spec)
    if out_path:
        with _writing_or_exit(out_path):
            write_text_atomic(out_path, rendered)
    else:
        click.echo(rendered, nl=False)
    if log_path:
        _write_transcript(log_path, chosen.transcript)
    click.echo(
        f"encoded in {chosen.iterations_used} iteration(s)"
        + (", warm-started from memory" if chosen.from_memory else ""),
        err=True,
    )


def _write_transcript(path: str, transcript) -> None:
    lines = [json.dumps(entry.to_json_dict(), sort_keys=True) for entry in transcript]
    with _writing_or_exit(path):
        write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


@main.command("check")
@click.option("--spec", "spec_path", required=True)
@click.option("--schema", "schema_path", required=True)
def cmd_check(spec_path, schema_path):
    """Static-check a spec against a schema; list diagnostics."""
    schema = _load_or_exit("schema", load_schema, schema_path)
    spec = _load_or_exit("spec", load_specification, spec_path)
    diagnostics = check_specification(spec, schema)
    if not diagnostics:
        click.echo("no findings")
        return
    for diag in diagnostics:
        location = f"line {diag.line}: " if diag.line is not None else ""
        click.echo(f"{diag.code.value}: {location}{diag.message}")
    raise click.exceptions.Exit(2)


@main.command("verify")
@click.option("--spec", "spec_path", required=True)
@click.option("--schema", "schema_path", required=True)
@click.option("--trace", "trace_path", required=True)
def cmd_verify(spec_path, schema_path, trace_path):
    """Replay a trace through a spec; one verdict JSON per event on stdout.

    Exits 0 when the task completes, 2 when it ends blocked or incomplete.
    No model is consulted: replay is pure rule evaluation.
    """
    schema = _load_or_exit("schema", load_schema, schema_path)
    spec = _load_or_exit("spec", load_specification, spec_path)
    trace = _load_or_exit("trace", load_trace, trace_path, schema)

    try:
        result = replay(spec, schema, trace)
    except InvalidSpecification as exc:
        raise _fail(f"spec does not check against schema: {exc.diagnostics[0]}")
    except EngineError as exc:
        raise _fail(str(exc))
    for verdict in result.verdicts:
        click.echo(json.dumps(verdict.to_json_dict(), sort_keys=True))
    if not result.done:
        raise click.exceptions.Exit(2)


@main.command("eval")
@click.option("--cases", "cases_dir", required=True)
@click.option("--majority", "majority_n", type=int, default=1, show_default=True)
@click.option("--memory", "memory_path",
              help="Predicate-memory JSON; read for warm starts and updated with verified successes.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, readable=False),
              help="Write the JSON report here.")
@_backend_options
def cmd_eval(cases_dir, majority_n, memory_path, out_path, **backend_kw):
    """Run a labeled case set and print the metric table."""
    from .encoder import EncodeConfig
    from .evaluation import format_report_table, load_cases, run_eval
    from .memory import PredicateMemory

    cases = _load_or_exit("cases", load_cases, cases_dir)
    if not cases:
        raise _fail(f"no case manifests (*.json) found in {cases_dir}")

    backend = None
    if backend_kw["backend_kind"] == "http" or backend_kw["fixture"]:
        backend = _make_backend(**backend_kw)
    try:
        config = EncodeConfig(majority_n=majority_n)
    except ValueError as exc:
        raise _fail(str(exc))
    memory = _load_or_exit("memory", PredicateMemory.load_or_empty, memory_path) if memory_path else None

    report = run_eval(cases, backend=backend, config=config, memory=memory)
    click.echo(format_report_table(report))
    for case in report.cases:
        if case.error:
            click.echo(f"case {case.name}: {case.error}", err=True)
    if out_path:
        with _writing_or_exit(out_path):
            write_text_atomic(out_path, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    # last, so that a memory file that cannot be written costs no report
    if memory is not None:
        with _writing_or_exit(memory_path):
            memory.save(memory_path)


@main.group("schema")
def schema_group():
    """Schema file utilities."""


@schema_group.command("lint")
@click.argument("schema_path")
def cmd_schema_lint(schema_path):
    """Validate a schema file; list every issue found."""
    try:
        schema = load_schema(schema_path)
    except SchemaError as exc:
        for issue in exc.issues:
            click.echo(str(issue))
        raise click.exceptions.Exit(2)
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail(f"schema {schema_path}: {failure_reason(exc)}")
    variables = sum(len(s.variables) for s in schema.states)
    click.echo(f"ok: app '{schema.app_id}', {len(schema.states)} state(s), {variables} variable(s)")


if __name__ == "__main__":
    main()
