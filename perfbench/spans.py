"""Span recording from outside the library.

Each layer's public functions are replaced, where their callers look them
up, by wrappers that time every call.  A span's self time is its duration
minus the time covered by the spans it caused.  Spans stay in memory as
per-name totals; nothing is written until the run ends.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

import intentguard
from intentguard import backend, encoder, engine, feedback, memory


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Per-name span totals plus the counters that observers record."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.similarity_pairs: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def wrap(self, name: str, fn, observe=None):
        """Time ``fn`` under ``name``; ``observe(args, result, error)`` runs
        after the clock stops."""
        stats = self.stats(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0)
            error = None
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - children
                if observe is not None:
                    observe(args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- observers -----------------------------------------------------------

    def _on_parse(self, args, result, error):
        if isinstance(error, intentguard.SpecSyntaxError):
            self.counts["reject.syntax"] += 1

    def _on_check(self, args, result, error):
        if result:
            self.counts["reject.static"] += 1

    def _on_semantic(self, args, result, error):
        if result is not None and not result[0]:
            self.counts["reject.semantic"] += 1

    def _on_complete(self, args, result, error):
        if args[1] == "encoder":
            self.counts["drafts"] += 1

    def _on_retrieve(self, args, result, error):
        if result is not None:
            self.counts["candidates"] += len(result)

    def _on_similarity(self, args, result, error):
        self.similarity_pairs.add((args[0], args[1]))

    def _on_submit(self, args, result, error):
        if result is not None:
            self.counts["verdict." + result.kind.value] += 1

    def _on_encode(self, args, result, error):
        if result is not None:
            self.counts["accepted"] += 1

    def install(self) -> None:
        """Wrap every timed public call where its caller looks it up.

        The benchmark calls through the ``intentguard`` package and the
        library through its own module namespaces; methods are wrapped on
        their classes.  The CLI runs untraced, so its names stay unwrapped.
        """
        Session = engine.Session
        self.patch(intentguard, "load_schema", "schema.load")
        self.patch(intentguard, "parse_specification", "dsl.parse")
        self.patch(encoder, "parse_specification", "dsl.parse", self._on_parse)
        self.patch(intentguard, "check_specification", "dsl.check")
        self.patch(engine, "check_specification", "dsl.check")
        self.patch(encoder, "check_specification", "dsl.check", self._on_check)
        self.patch(engine, "evaluate_constraint", "dsl.eval")
        self.patch(engine, "lexical_similarity", "backend.similarity", self._on_similarity)
        self.patch(backend.MockBackend, "complete", "backend.complete", self._on_complete)
        self.patch(intentguard, "encode", "encoder.encode", self._on_encode)
        self.patch(encoder, "decode_spec", "encoder.decode")
        self.patch(encoder, "semantic_check", "encoder.semantic_check", self._on_semantic)
        self.patch(memory.PredicateMemory, "retrieve_candidates", "memory.retrieve", self._on_retrieve)
        self.patch(intentguard, "parse_trace", "trace.parse")
        self.patch(Session, "__init__", "engine.session_init")
        self.patch(Session, "submit_action", "engine.submit", self._on_submit)
        self.patch(engine, "event_fingerprint", "engine.fingerprint")
        self.patch(Session, "soft_check", "engine.soft_check")
        self.patch(Session, "hard_check", "engine.hard_check")
        self.patch(Session, "progress_report", "engine.progress_report")
        self.patch(feedback, "render_roadmap_lines", "feedback.roadmap")
        self.patch(feedback, "render_soft", "feedback.soft")
        self.patch(feedback, "render_hard", "feedback.hard")

    # -- report ----------------------------------------------------------------

    def layer_metrics(self, events: int, traced_events_per_s: float, untraced_events_per_s: float,
                      cli_verify_ms: float, speed: float) -> dict[str, tuple[float, str, int]]:
        """Per-layer metrics as ``name -> (value, unit, samples)``.

        ``*_us`` values are per event unless the layer runs once per session,
        encode, draft or blocked event, in which case they are per call.
        Span times are scaled to reference speed by ``speed``, the traced
        phase's reference time over its wall time.
        """
        s = self.spans.get
        empty = SpanStats()

        def span(name: str) -> SpanStats:
            return s(name) or empty

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def per_call_us(name: str, self_time: bool = False) -> tuple[float, str, int]:
            st = span(name)
            return (ratio((st.self_ns if self_time else st.total_ns) * speed / 1000, st.calls), "us", st.calls)

        def per_event_us(name: str, self_time: bool = False) -> tuple[float, str, int]:
            st = span(name)
            return (ratio((st.self_ns if self_time else st.total_ns) * speed / 1000, events), "us", st.calls)

        sessions = span("engine.session_init").calls
        encodes = span("encoder.encode").calls
        drafts = self.counts["drafts"]
        sim = span("backend.similarity")
        metrics = {
            "schema.load_us": per_call_us("schema.load"),
            "dsl.parse_us": per_call_us("dsl.parse"),
            "dsl.check_us": per_call_us("dsl.check"),
            "dsl.check_calls_per_session": (ratio(span("dsl.check").calls, sessions), "count", sessions),
            "dsl.evals_per_event": (ratio(span("dsl.eval").calls, events), "count", events),
            "dsl.eval_self_us": per_event_us("dsl.eval", self_time=True),
            "backend.similarity_calls": (ratio(sim.calls, events), "count", events),
            "backend.similarity_us": per_event_us("backend.similarity"),
            "backend.distinct_pair_share": (ratio(len(self.similarity_pairs), sim.calls), "fraction", sim.calls),
            "backend.complete_calls": (ratio(span("backend.complete").calls, encodes), "count", encodes),
            "backend.complete_us": per_call_us("backend.complete"),
            "encoder.iterations_per_encode": (ratio(drafts, encodes), "count", encodes),
            "encoder.gate_rejects.syntax": (ratio(self.counts["reject.syntax"], encodes), "count", encodes),
            "encoder.gate_rejects.static": (ratio(self.counts["reject.static"], encodes), "count", encodes),
            "encoder.gate_rejects.semantic": (ratio(self.counts["reject.semantic"], encodes), "count", encodes),
            "encoder.accept_ratio": (ratio(self.counts["accepted"], drafts), "fraction", drafts),
            "encoder.encode_self_us": per_call_us("encoder.encode", self_time=True),
            "encoder.decode_us": per_call_us("encoder.decode"),
            "encoder.semantic_check_us": per_call_us("encoder.semantic_check"),
            "memory.retrieve_us": per_call_us("memory.retrieve"),
            "memory.candidates_per_encode": (ratio(self.counts["candidates"], encodes), "count", encodes),
            "trace.parse_us": per_event_us("trace.parse"),
            "engine.session_init_us": per_call_us("engine.session_init"),
            "engine.submit_self_us": per_event_us("engine.submit", self_time=True),
            "engine.fingerprint_us": per_event_us("engine.fingerprint"),
            "engine.soft_check_us": per_event_us("engine.soft_check"),
            "engine.hard_check_us": per_call_us("engine.hard_check"),
            "engine.progress_report_us": per_event_us("engine.progress_report"),
            "feedback.roadmap_us": per_event_us("feedback.roadmap"),
            "feedback.soft_us": per_call_us("feedback.soft"),
            "feedback.hard_us": per_call_us("feedback.hard"),
            "cli.verdict_json_us": per_event_us("cli.verdict_json"),
            "cli.verify_ms": (cli_verify_ms, "ms", 1),
        }
        for kind in ("allow", "soft_block", "hard_block", "task_done"):
            metrics[f"engine.verdicts.{kind}"] = (ratio(self.counts["verdict." + kind], sessions), "count", sessions)
        metrics["bench.event_us"] = (
            ratio((span("engine.submit").total_ns + span("cli.verdict_json").total_ns) * speed / 1000, events),
            "us", events,
        )
        metrics["bench.events_per_s_untraced"] = (untraced_events_per_s, "events/s", events)
        metrics["bench.events_per_s_traced"] = (traced_events_per_s, "events/s", events)
        metrics["bench.tracing_overhead"] = (ratio(untraced_events_per_s, traced_events_per_s), "ratio", events)
        return metrics
