"""Closed-loop runners for the three workloads.

One client, one thread: each event is submitted only after the verdict line
of the previous one is ready, because an agent waits for every verdict before
it acts.  The benchmark drives only the public library and the CLI.  Every
verdict is checked against the kind its generator built it to receive, and
every repeated session or task against the verdict lines of its first run.
Every timing is taken on the wall clock and scaled to a reference machine
speed by the calibration slices of ``speed.SpeedGauge``.
"""

from __future__ import annotations

import gc
from array import array
import hashlib
import json
import resource
import statistics
from datetime import datetime, timezone
from pathlib import Path
from random import Random
from time import perf_counter_ns

import intentguard as ig
from click.testing import CliRunner
from intentguard import cli as ig_cli

import workloads as wl
from spans import Tracer
from speed import SpeedGauge

SETUP_REPS = 15
ENCODE_REPS = 9
# fuzzy-text replays this many sessions per round: one small session's cost
# depends on its seed by several percent, their mean much less.
FUZZY_SESSIONS = 4
ENCODES_PER_ROUND = 3
ENCODE_CONFIG = ig.EncodeConfig(max_repair_iterations=3)
MEMORY_TIME = datetime(2025, 1, 1, tzinfo=timezone.utc)
_REJECT_PREFIXES = {
    "syntax error:": "syntax",
    "static check failed:": "static",
    "the encoding does not match the instruction:": "semantic",
}


def verdict_line(verdict) -> str:
    """The line ``intentguard verify`` prints for a verdict."""
    return json.dumps(verdict.to_json_dict(), sort_keys=True)


class Spans:
    """``perf_counter_ns`` intervals in two flat arrays, so that keeping one
    per event adds little memory and nothing for the garbage collector."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")

    def add(self, start: int, end: int) -> None:
        self.starts.append(start)
        self.ends.append(end)

    def __iter__(self):
        return zip(self.starts, self.ends)

    def __len__(self) -> int:
        return len(self.starts)


class Measurement:
    """Everything one phase of a run observed.

    Times are kept as raw intervals and scaled to the reference speed only
    when reported, once the calibration slices after them exist.
    """

    def __init__(self, gauge: SpeedGauge) -> None:
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.event_spans = Spans()
        # Which event of a round each span timed: its index in the session,
        # or across every task on encode-verify.
        self.event_keys = array("l")
        self.encode_spans = Spans()
        self.round_spans = Spans()
        # A set-up is timed in pieces, leaving out the trace parse; each
        # piece records which set-up it belongs to.
        self.setup_pieces = Spans()
        self.setup_of_piece = array("l")
        self.setups = 0
        self.completions: list[int] = []
        self.events = 0
        self.cli_verify_span: tuple[int, int] | None = None

    def add_setup(self, *pieces: tuple[int, int]) -> None:
        for start, end in pieces:
            self.setup_pieces.add(start, end)
            self.setup_of_piece.append(self.setups)
        self.setups += 1

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def scaled_ns(self, spans) -> list[float]:
        return [self.gauge.scale(start, end) for start, end in spans]

    def setup_ns(self) -> list[float]:
        totals = [0.0] * self.setups
        for setup, scaled in zip(self.setup_of_piece, self.scaled_ns(self.setup_pieces)):
            totals[setup] += scaled
        return totals

    @property
    def events_per_s(self) -> float:
        elapsed = sum(self.scaled_ns(self.round_spans))
        return self.events / (elapsed / 1e9) if elapsed else 0.0

    @property
    def cli_verify_ms(self) -> float:
        return self.gauge.scale(*self.cli_verify_span) / 1e6 if self.cli_verify_span else 0.0


def _rejects(transcript) -> tuple[str, ...]:
    """Gate that rejected each draft, read from the next draft's prompt."""
    found = []
    for entry in transcript[1:]:
        if entry.role != "encoder":
            continue
        reason = entry.prompt.partition("Rejection reason:\n")[2]
        found.append(next((gate for prefix, gate in _REJECT_PREFIXES.items() if reason.startswith(prefix)), "?"))
    return tuple(found)


def encode_task(m: Measurement, task: wl.Task, schema, memory=None):
    """Encode through a fresh scripted backend and check the repair loop
    against the script; returns (spec, backend) or None on failure."""
    backend = ig.MockBackend(task.turns)
    m.attempted += 1
    m.gauge.tick()
    start = perf_counter_ns()
    try:
        result = ig.encode(task.instruction, schema, backend, ENCODE_CONFIG, memory)
    except (ig.EncodeFailed, ig.BackendError) as exc:
        m.fail(f"encode ({task.script_kind}): {exc}")
        return None
    m.encode_spans.add(start, perf_counter_ns())
    m.completions.append(backend.complete_calls)
    roles = tuple(entry.role for entry in result.transcript)
    problems = []
    if roles != task.expected_roles or backend.complete_calls != len(task.expected_roles):
        problems.append(f"roles {roles}")
    if result.iterations_used != task.expected_roles.count("encoder"):
        problems.append(f"{result.iterations_used} iterations")
    if _rejects(result.transcript) != task.expected_rejects:
        problems.append(f"rejects {_rejects(result.transcript)}")
    if ig.render_specification(result.spec) != task.spec_text:
        problems.append("accepted a different program")
    if problems:
        m.fail(f"encode ({task.script_kind}): " + ", ".join(problems))
        return None
    return result.spec, backend


def replay_session(m: Measurement, session, events, expected, reference, line, lines_out=None, first=0) -> None:
    """Submit every event, timing each until its verdict line is ready;
    event ``i`` is recorded as event ``first + i`` of the round."""
    spans = m.event_spans
    keys = m.event_keys
    tick = m.gauge.tick
    if len(events) != len(expected):
        m.fail(f"trace parsed to {len(events)} events, expected {len(expected)}")
        return
    for i, event in enumerate(events):
        m.attempted += 1
        tick()
        start = perf_counter_ns()
        try:
            verdict = session.submit_action(event)
            text = line(verdict)
        except Exception as exc:  # an event that raised is a failed operation
            m.fail(f"event {event.action_id}: {exc!r}")
            continue
        spans.add(start, perf_counter_ns())
        keys.append(first + i)
        if verdict.kind.value != expected[i]:
            m.fail(f"event {event.action_id}: {verdict.kind.value}, expected {expected[i]}")
        elif reference is not None and text != reference[i]:
            m.fail(f"event {event.action_id}: verdict line differs from the first session")
        if lines_out is not None:
            lines_out.append(text)
    m.events += len(events)


def cli_verify(m: Measurement, schema_path: Path, spec_path: Path, trace_path: Path, lines: list[str]) -> None:
    """``intentguard verify`` in process must print the same lines and exit 0."""
    m.attempted += 1
    m.gauge.tick()
    start = perf_counter_ns()
    result = CliRunner().invoke(
        ig_cli.main, ["verify", "--spec", str(spec_path), "--schema", str(schema_path), "--trace", str(trace_path)]
    )
    m.cli_verify_span = (start, perf_counter_ns())
    if result.exit_code != 0 or result.stdout != "".join(line + "\n" for line in lines):
        m.fail(f"intentguard verify exited {result.exit_code} or printed other verdict lines")


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def timed_rounds(m: Measurement, seconds: float, one_round, between=None) -> None:
    """Repeat whole rounds until ``seconds`` have passed; ``between`` runs
    before each round, off the events' clock."""
    gc.collect()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        if between is not None:
            between()
        m.gauge.tick()
        begin = perf_counter_ns()
        one_round()
        end = perf_counter_ns()
        m.round_spans.add(begin, end)
        if end >= deadline:
            break


class ReplayWorkload:
    """Long sessions, replayed from their files again and again; a round
    replays each session once, in order."""

    def __init__(self, tasks: list[wl.Task], workdir: Path):
        self.tasks = tasks
        self.files = []
        for k, task in enumerate(tasks):
            paths = (workdir / f"schema{k}.json", workdir / f"spec{k}.vsa", workdir / f"trace{k}.jsonl")
            paths[0].write_text(task.schema.text(), encoding="utf-8")
            paths[1].write_text(task.spec_text, encoding="utf-8")
            paths[2].write_text(task.trace_text(), encoding="utf-8")
            self.files.append(paths)
            wl.script(task, "clean")
        self.traces = [task.trace_text() for task in tasks]
        self.first_event = [0]
        for task in tasks:
            self.first_event.append(self.first_event[-1] + len(task.expected))
        self.reference: list[list[str]] = [[] for _ in tasks]
        self.backends: list = [None] * len(tasks)
        self.encodes = 0

    @property
    def verdict_lines(self) -> list[str]:
        return [line for lines in self.reference for line in lines]

    def sizes(self) -> dict:
        sizes = {"sessions": len(self.tasks)}
        for key in self.tasks[0].sizes():
            values = {task.sizes()[key] for task in self.tasks}
            sizes[key] = values.pop() if len(values) == 1 else sorted(values)
        return sizes

    def setup(self, m: Measurement, k: int):
        """Raw schema and spec text to a ready session; the trace parse in
        between is not set-up time."""
        m.gauge.tick()
        start = perf_counter_ns()
        schema = ig.load_schema(self.files[k][0])
        spec = ig.parse_specification(self.tasks[k].spec_text)
        diagnostics = ig.check_specification(spec, schema)
        parsed = perf_counter_ns()
        trace = ig.parse_trace(self.traces[k], schema)
        traced = perf_counter_ns()
        session = ig.Session(spec, schema, trace.header.clock)
        m.add_setup((start, parsed), (traced, perf_counter_ns()))
        if diagnostics:
            m.fail(f"static check: {diagnostics[0]}")
        return session, trace

    def encode(self, m: Measurement) -> None:
        """The next session's one-iteration encode, in turn; timed, but not
        part of replay."""
        k = self.encodes % len(self.tasks)
        self.encodes += 1
        encoded = encode_task(m, self.tasks[k], ig.load_schema(self.files[k][0]))
        if encoded is not None:
            self.backends[k] = encoded[1]

    def prologue(self, m: Measurement) -> None:
        for i in range(SETUP_REPS):
            self.setup(m, i % len(self.tasks))
        for _ in range(ENCODE_REPS):
            self.encode(m)
        for k, task in enumerate(self.tasks):
            session, trace = self.setup(m, k)
            replay_session(m, session, trace.events, task.expected, None, verdict_line, self.reference[k],
                           self.first_event[k])
            cli_verify(m, *self.files[k], self.reference[k])

    def timed(self, m: Measurement, seconds: float, line) -> None:
        def one_round() -> None:
            calls = [backend.complete_calls if backend is not None else 0 for backend in self.backends]
            for k, task in enumerate(self.tasks):
                session, trace = self.setup(m, k)
                replay_session(m, session, trace.events, task.expected, self.reference[k], line,
                               first=self.first_event[k])
            if calls != [backend.complete_calls if backend is not None else 0 for backend in self.backends]:
                m.fail("replay made backend completions")

        def between() -> None:
            for _ in range(ENCODES_PER_ROUND):
                self.encode(m)

        timed_rounds(m, seconds, one_round, between)


class EncodeVerifyWorkload:
    """Many short tasks: encode, set up from the accepted program, replay."""

    def __init__(self, tasks: list[wl.Task], memory_entries, workdir: Path):
        self.tasks = tasks
        self.schema_paths: dict[str, Path] = {}
        for task in tasks:
            path = workdir / f"{task.schema.app_id}.json"
            path.write_text(task.schema.text(), encoding="utf-8")
            self.schema_paths[task.schema.app_id] = path
        self.traces = [task.trace_text() for task in tasks]
        self.first_event = [0]
        for task in tasks:
            self.first_event.append(self.first_event[-1] + len(task.expected))
        self.memory = ig.PredicateMemory()
        for app_id, instruction, spec_text in memory_entries:
            self.memory.record_success(app_id, instruction, ig.parse_specification(spec_text), now=MEMORY_TIME)
        self.memory_size = sum(len(bucket) for bucket in self.memory.entries.values())
        self.reference: list[list[str] | None] = [None] * len(tasks)
        first = tasks[0]
        self.cli_files = (self.schema_paths[first.schema.app_id], workdir / "task0.vsa", workdir / "task0.jsonl")
        self.cli_files[1].write_text(first.spec_text, encoding="utf-8")
        self.cli_files[2].write_text(self.traces[0], encoding="utf-8")

    def sizes(self) -> dict:
        mean = lambda values: sum(values) / len(values)
        return {
            "tasks": len(self.tasks),
            "apps": len(self.schema_paths),
            "memory_entries": self.memory_size,
            "mean_states": mean([t.sizes()["states"] for t in self.tasks]),
            "mean_rules": mean([t.sizes()["rules"] for t in self.tasks]),
            "mean_events": mean([t.sizes()["events"] for t in self.tasks]),
            "scripts": {kind: sum(t.script_kind == kind for t in self.tasks) for kind in wl.SCRIPT_KINDS},
        }

    def run_task(self, m: Measurement, i: int, line) -> None:
        task = self.tasks[i]
        m.gauge.tick()
        start = perf_counter_ns()
        schema = ig.load_schema(self.schema_paths[task.schema.app_id])
        loaded = perf_counter_ns()
        encoded = encode_task(m, task, schema, self.memory)
        if encoded is None:
            return
        spec, backend = encoded
        canonical = ig.render_specification(spec)
        begin = perf_counter_ns()
        spec = ig.parse_specification(canonical)
        diagnostics = ig.check_specification(spec, schema)
        parsed = perf_counter_ns()
        trace = ig.parse_trace(self.traces[i], schema)
        traced = perf_counter_ns()
        session = ig.Session(spec, schema, trace.header.clock)
        m.add_setup((start, loaded), (begin, parsed), (traced, perf_counter_ns()))
        if diagnostics:
            m.fail(f"static check: {diagnostics[0]}")
        calls = backend.complete_calls
        lines = [] if self.reference[i] is None else None
        replay_session(m, session, trace.events, task.expected, self.reference[i], line, lines, self.first_event[i])
        if lines is not None:
            self.reference[i] = lines
        if backend.complete_calls != calls:
            m.fail("replay made backend completions")

    def prologue(self, m: Measurement) -> None:
        for i in range(len(self.tasks)):
            self.run_task(m, i, verdict_line)
        if self.reference[0] is not None:
            cli_verify(m, *self.cli_files, self.reference[0])

    def timed(self, m: Measurement, seconds: float, line) -> None:
        def one_round() -> None:
            for i in range(len(self.tasks)):
                self.run_task(m, i, line)

        timed_rounds(m, seconds, one_round)

    @property
    def verdict_lines(self) -> list[str]:
        return [line for lines in self.reference if lines for line in lines]


def make_workload(name: str, seed: int, workdir: Path, small: bool = False):
    """Build a workload from its seed; ``small`` shrinks it for tests."""
    rng = Random(seed)
    if name == "replay-wide":
        task = wl.replay_wide(rng, 8, 16) if small else wl.replay_wide(rng)
        return ReplayWorkload([task], workdir)
    if name == "fuzzy-text":
        if small:
            return ReplayWorkload([wl.fuzzy_text(rng, 5, 8, rounds=2) for _ in range(2)], workdir)
        return ReplayWorkload([wl.fuzzy_text(rng) for _ in range(FUZZY_SESSIONS)], workdir)
    if name == "encode-verify":
        tasks, memory = wl.encode_verify(rng, 8, 2, 3) if small else wl.encode_verify(rng)
        return EncodeVerifyWorkload(tasks, memory, workdir)
    raise ValueError(f"unknown workload {name!r}")


def run(workload, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the result record.

    Untraced, the timed phase yields the end-to-end metrics.  Traced, half
    the time runs untraced and half with every layer wrapped in spans, and
    the record carries the per-layer metrics and the tracing overhead.
    """
    gauge = SpeedGauge()
    gauge.calibrate()
    m = Measurement(gauge)
    workload.prologue(m)
    lines = workload.verdict_lines
    info = {
        "sizes": workload.sizes(),
        "verdict_sha256": _digest(lines),
        "verdict_lines": len(lines),
    }
    if not traced:
        timed = Measurement(gauge)
        workload.timed(timed, seconds, verdict_line)
        gauge.calibrate()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = end_to_end(m, timed, lines, peak_rss_mb)
        runs = [m, timed]
    else:
        untraced = Measurement(gauge)
        workload.timed(untraced, seconds / 2, verdict_line)
        tracer = Tracer()
        traced_m = Measurement(gauge)
        tracer.install()
        begin = perf_counter_ns()
        try:
            workload.timed(traced_m, seconds / 2, tracer.wrap("cli.verdict_json", verdict_line))
        finally:
            tracer.restore()
        end = perf_counter_ns()
        gauge.calibrate()
        measured = tracer.layer_metrics(traced_m.events, traced_m.events_per_s, untraced.events_per_s,
                                        m.cli_verify_ms, gauge.mean_factor(begin, end))
        runs = [m, untraced, traced_m]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info["error_rate"] = (failed / attempted if attempted else 1.0, "fraction", attempted)
    info["failures"] = [f for r in runs for f in r.failures][:10]
    info["calibration"] = (gauge.slice_ns(), len(gauge.starts))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: (value, unit) for name, (value, unit, _) in measured.items()},
        "samples": {name: count for name, (_, _, count) in measured.items()},
        "info": info,
    }


def end_to_end(prologue: Measurement, timed: Measurement, lines: list[str],
               peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics as ``name -> (value, unit, samples)``; every time
    is at reference speed.  Every event of a round is timed once per round;
    its latency is its median over the rounds, which leaves out one-off
    stalls, and the event quantiles are taken over those latencies.  Peak
    memory is read before the times are scaled, so that the lists this makes
    do not count."""
    by_event: dict[int, list[float]] = {}
    for key, scaled in zip(timed.event_keys, timed.scaled_ns(timed.event_spans)):
        by_event.setdefault(key, []).append(scaled)
    events = [statistics.median(times) for times in by_event.values()]
    timed_events = len(timed.event_spans)
    encodes = prologue.scaled_ns(prologue.encode_spans) + timed.scaled_ns(timed.encode_spans)
    setups = prologue.setup_ns() + timed.setup_ns()
    completions = prologue.completions + timed.completions
    return {
        "event_p50_us": (statistics.median(events) / 1e3, "us", timed_events),
        "event_p90_us": (statistics.quantiles(events, n=10)[-1] / 1e3, "us", timed_events),
        "events_per_s": (timed.events_per_s, "events/s", timed.events),
        "setup_s": (statistics.median(setups) / 1e9, "s", len(setups)),
        "encode_p50_ms": (statistics.median(encodes) / 1e6, "ms", len(encodes)),
        "completions_per_task": (sum(completions) / len(completions) if completions else 0.0, "count",
                                 len(completions)),
        "verdict_bytes_per_event": (sum(len(line.encode("utf-8")) for line in lines) / max(len(lines), 1),
                                    "bytes", len(lines)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
