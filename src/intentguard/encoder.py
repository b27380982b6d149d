"""Instruction autoformalization with two repair gates.

``encode`` asks the backend for a draft rule program, then pushes it through
(i) syntax/type checking against the schema and (ii) a decode-and-compare
semantic check, feeding structured failure text back into the next draft
until both gates pass or the iteration budget runs out.  ``majority_encode``
repeats encoding N times and keeps the modal spec; ``majority_verify`` repeats
encode-plus-replay N times and takes the majority task verdict.  Both damp
sampling noise.  ``diff_specifications`` explains how a candidate encoding
deviates from a hand-written ground truth, and which omissions actually flip a
wrong trace from blocked to allowed.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources

from .backend import Backend, BackendError
from .dsl import (
    Constraint,
    Rule,
    Specification,
    SpecSyntaxError,
    StatePredicate,
    check_specification,
    parse_specification,
    render_constant,
    render_specification,
)
from .memory import PredicateMemory
from .schema import StateSchema, describe_states
from .trace import Trace, replay


class EncodeFailed(Exception):
    """Both gates kept rejecting drafts for the whole iteration budget."""

    def __init__(self, message: str, diagnostics: list[str], transcript: list["TranscriptEntry"]):
        self.diagnostics = diagnostics
        self.transcript = transcript
        super().__init__(message)


class MalformedVerdict(ValueError):
    """Checker reply did not follow the PASS / FAIL: <cause> grammar."""


class SchemaMismatch(ValueError):
    """The two specs being diffed do not check against the shared schema."""


@dataclass(frozen=True)
class EncodeConfig:
    max_repair_iterations: int = 3
    majority_n: int = 1

    def __post_init__(self) -> None:
        if self.max_repair_iterations < 1:
            raise ValueError("max_repair_iterations must be >= 1")
        if self.majority_n < 1 or self.majority_n % 2 == 0:
            raise ValueError("majority_n must be odd and >= 1")


@dataclass(frozen=True)
class TranscriptEntry:
    role: str  # encoder | decoder | checker
    prompt: str
    response: str

    def to_json_dict(self) -> dict:
        return {"role": self.role, "prompt": self.prompt, "response": self.response}


@dataclass(frozen=True)
class EncodeResult:
    spec: Specification
    transcript: tuple[TranscriptEntry, ...]
    iterations_used: int
    from_memory: bool


@cache
def _prompt(name: str) -> str:
    return resources.files("intentguard").joinpath("prompts", name).read_text(encoding="utf-8")


#: What follows a fence's opening backticks: a language tag, then a newline.
_FENCE_TAG = re.compile(r"[a-zA-Z0-9_-]*\n")


def extract_rules_block(response: str) -> str:
    """Pull the DSL source out of a fenced code block; fall back to the whole
    reply when the model skipped the fence.

    The block is what lies between the first "```" followed by a tag and a
    newline and the next "```" after it; a "```" not followed by a tag and a
    newline opens nothing, and the search goes on from the next character.
    ``str.find`` locates both fences; a lazy DOTALL regex scan for the
    closing one costs about twelve times as much on a long reply."""
    start = response.find("```")
    while start != -1:
        tag = _FENCE_TAG.match(response, start + 3)
        if tag is not None:
            end = response.find("```", tag.end())
            # no later opener can find a closing fence this one did not
            return response[tag.end() : end] if end != -1 else response
        start = response.find("```", start + 1)
    return response


def build_encoder_prompt(
    instruction: str,
    schema: StateSchema,
    candidates: list | None = None,
    previous_draft: str | None = None,
    failure: str | None = None,
) -> str:
    sections = [
        f"Task instruction:\n{instruction}",
        f"Declared states and variables:\n{describe_states(schema)}",
    ]
    if candidates:
        listed = "\n".join(f"- {c.state}.{c.variable} {c.operator}" for c in candidates)
        sections.append(
            "Predicates that worked for similar past instructions in this app, most relevant first:\n"
            + listed
        )
    if failure is not None:
        sections.append(
            "Your previous attempt was rejected.\n"
            f"Previous attempt:\n{previous_draft}\n"
            f"Rejection reason:\n{failure}\n"
            "Produce a corrected rule program."
        )
    sections.append("Write the rule program now, inside one fenced code block.")
    return "\n\n".join(sections)


def decode_spec(spec: Specification, backend: Backend, transcript: list[TranscriptEntry] | None = None) -> str:
    """Ask the decoder role to describe the spec in plain English.

    The prompt embeds the canonical rendering of every rule, so the decoder
    sees exactly what the verifier will run.  A blank reply raises
    :class:`BackendError` with category ``protocol``.
    """
    if not spec.rules:
        raise ValueError("cannot decode a specification with no rules")
    prompt = "Rule program:\n```\n" + render_specification(spec) + "```\nDescribe the task it verifies."
    response = backend.complete("decoder", _prompt("decoder_system.txt"), prompt)
    if transcript is not None:
        transcript.append(TranscriptEntry("decoder", prompt, response))
    if not response.strip():
        raise BackendError("decoder returned an empty description", category="protocol")
    return response


_VERDICT_RE = re.compile(r"^\s*(PASS|FAIL)\s*(?::\s*(.*))?\s*$", re.IGNORECASE | re.DOTALL)


def parse_checker_verdict(response: str) -> tuple[bool, str]:
    match = _VERDICT_RE.match(response.strip())
    if not match:
        raise MalformedVerdict(f"checker reply does not match PASS|FAIL: <cause>: {response!r}")
    passed = match.group(1).upper() == "PASS"
    cause = (match.group(2) or "").strip()
    if not passed and not cause:
        cause = "no cause given"
    return passed, cause


def semantic_check(
    instruction: str,
    decoded_description: str,
    backend: Backend,
    transcript: list[TranscriptEntry] | None = None,
) -> tuple[bool, str]:
    """Compare the decoded description against the original instruction via
    the checker role.  Returns (passed, cause).

    One malformed checker reply earns a single re-ask; a second malformed
    reply counts as a failure with cause "unparseable".
    """
    if not instruction.strip() or not decoded_description.strip():
        raise ValueError("semantic_check needs non-empty instruction and description")
    prompt = (
        f"Original instruction:\n{instruction}\n\n"
        f"Description of the encoded rule program:\n{decoded_description}\n\n"
        "Does the program faithfully capture the instruction? Reply PASS or FAIL: <cause>."
    )
    for _ in range(2):
        response = backend.complete("checker", _prompt("checker_system.txt"), prompt)
        if transcript is not None:
            transcript.append(TranscriptEntry("checker", prompt, response))
        try:
            return parse_checker_verdict(response)
        except MalformedVerdict:
            pass
    return False, "unparseable"


def encode(
    instruction: str,
    schema: StateSchema,
    backend: Backend,
    config: EncodeConfig | None = None,
    memory: PredicateMemory | None = None,
) -> EncodeResult:
    """Translate an instruction into a checked specification.

    Each iteration drafts, syntax-checks, then semantically decode-checks;
    any failure becomes the structured feedback of the next draft.  Raises
    :class:`EncodeFailed` with the last gate's findings after
    ``max_repair_iterations`` drafts, and ``ValueError`` for a blank
    instruction before any completion.
    """
    if not instruction.strip():
        raise ValueError("encode needs a non-empty instruction")
    config = config or EncodeConfig()
    candidates = None
    if memory is not None:
        candidates = memory.retrieve_candidates(schema.app_id, instruction)
    from_memory = bool(candidates)

    transcript: list[TranscriptEntry] = []
    previous_draft: str | None = None
    failure: str | None = None
    last_diagnostics: list[str] = []

    for iteration in range(1, config.max_repair_iterations + 1):
        prompt = build_encoder_prompt(instruction, schema, candidates, previous_draft, failure)
        response = backend.complete("encoder", _prompt("encoder_system.txt"), prompt)
        transcript.append(TranscriptEntry("encoder", prompt, response))
        draft = extract_rules_block(response)
        previous_draft = draft

        try:
            spec = parse_specification(draft)
        except SpecSyntaxError as exc:
            failure = f"syntax error: {exc}"
            last_diagnostics = [failure]
            continue

        diagnostics = check_specification(spec, schema)
        if diagnostics:
            last_diagnostics = [str(d) for d in diagnostics]
            failure = "static check failed:\n" + "\n".join(last_diagnostics)
            continue

        decoded = decode_spec(spec, backend, transcript)
        passed, cause = semantic_check(instruction, decoded, backend, transcript)
        if not passed:
            last_diagnostics = [f"semantic check failed: {cause}"]
            failure = f"the encoding does not match the instruction: {cause}"
            continue

        return EncodeResult(
            spec=spec,
            transcript=tuple(transcript),
            iterations_used=iteration,
            from_memory=from_memory,
        )

    raise EncodeFailed(
        f"no acceptable specification after {config.max_repair_iterations} iterations",
        last_diagnostics,
        transcript,
    )


# ---------------------------------------------------------------------------
# Majority voting
# ---------------------------------------------------------------------------


def majority_encode(
    instruction: str,
    schema: StateSchema,
    backend: Backend,
    config: EncodeConfig | None = None,
    memory: PredicateMemory | None = None,
) -> EncodeResult:
    """Encode ``majority_n`` times and keep the modal spec.

    Runs vote by canonical rendering, and a tie goes to the rendering seen
    first.  The result is the first run that produced the modal spec, with
    the transcript of every run.
    """
    config = config or EncodeConfig()
    results = [encode(instruction, schema, backend, config, memory) for _ in range(config.majority_n)]
    renderings = [render_specification(r.spec) for r in results]
    modal = Counter(renderings).most_common(1)[0][0]
    chosen = results[renderings.index(modal)]
    return replace(chosen, transcript=tuple(entry for r in results for entry in r.transcript))


@dataclass(frozen=True)
class RunOutcome:
    passed: bool
    encode_error: str | None = None


@dataclass(frozen=True)
class FinalVerdict:
    passed: bool
    votes: tuple[RunOutcome, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for v in self.votes if v.passed)


def majority_verify(
    instruction: str,
    schema: StateSchema,
    trace: Trace,
    backend: Backend,
    config: EncodeConfig | None = None,
    memory: PredicateMemory | None = None,
) -> FinalVerdict:
    """Encode and replay ``majority_n`` times; the task verdict is the
    majority of per-run verdicts.  A failed encoding is a fail vote."""
    config = config or EncodeConfig()
    votes: list[RunOutcome] = []
    for _ in range(config.majority_n):
        try:
            result = encode(instruction, schema, backend, config, memory)
        except EncodeFailed as exc:
            votes.append(RunOutcome(passed=False, encode_error=str(exc)))
            continue
        votes.append(RunOutcome(passed=replay(result.spec, schema, trace).done))
    passed = sum(1 for v in votes if v.passed) * 2 > len(votes)
    return FinalVerdict(passed=passed, votes=tuple(votes))


# ---------------------------------------------------------------------------
# Specification diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintRef:
    """One constraint located by its (state, variable) slot."""

    state: str
    variable: str
    operator: str
    constant: str

    @property
    def slot(self) -> tuple[str, str]:
        return (self.state, self.variable)

    def __str__(self) -> str:
        return f"{self.state}.{self.variable} {self.operator} {self.constant}"


@dataclass(frozen=True)
class DiffReport:
    missing_predicates: tuple[ConstraintRef, ...]
    critical_missing: tuple[ConstraintRef, ...]
    superfluous_predicates: tuple[ConstraintRef, ...]
    constraint_mismatches: tuple[ConstraintRef, ...]

    def is_clean(self) -> bool:
        return not (
            self.missing_predicates
            or self.critical_missing
            or self.superfluous_predicates
            or self.constraint_mismatches
        )


def _constraint_refs(
    spec: Specification,
) -> dict[tuple[str, str], dict[ConstraintRef, tuple[Constraint, set[str]]]]:
    """Each distinct constraint of the spec by slot, in rule order, with the
    constraint it names and the conclusions of the rules that hold it."""
    by_slot: dict[tuple[str, str], dict[ConstraintRef, tuple[Constraint, set[str]]]] = {}
    for rule in spec.rules:
        for pred in rule.predicates:
            if not isinstance(pred, StatePredicate):
                continue
            for c in pred.constraints:
                ref = ConstraintRef(
                    pred.state_name, c.variable, c.operator.value, render_constant(c.constant)
                )
                _, conclusions = by_slot.setdefault(ref.slot, {}).setdefault(ref, (c, set()))
                conclusions.add(rule.conclusion)
    return by_slot


def _with_constraint_added(
    spec: Specification, state: str, constraint: Constraint, conclusions: set[str]
) -> Specification:
    """Insert a truth constraint over ``state`` into the candidate next to its
    natural home: rules sharing a conclusion of the truth rules that hold it,
    else rules already touching the state, else every rule."""
    rule_indices = [i for i, r in enumerate(spec.rules) if r.conclusion in conclusions]
    if not rule_indices:
        rule_indices = [
            i
            for i, r in enumerate(spec.rules)
            if any(isinstance(p, StatePredicate) and p.state_name == state for p in r.predicates)
        ]
    if not rule_indices:
        rule_indices = list(range(len(spec.rules)))

    new_rules: list[Rule] = []
    for i, rule in enumerate(spec.rules):
        if i not in rule_indices:
            new_rules.append(rule)
            continue
        predicates = list(rule.predicates)
        for j, pred in enumerate(predicates):
            if isinstance(pred, StatePredicate) and pred.state_name == state:
                predicates[j] = StatePredicate(pred.state_name, pred.constraints + (constraint,))
                break
        else:
            predicates.append(StatePredicate(state, (constraint,)))
        new_rules.append(Rule(tuple(predicates), rule.conclusion, line=rule.line))
    return Specification(tuple(new_rules))


def diff_specifications(
    candidate: Specification,
    ground_truth: Specification,
    schema: StateSchema,
    wrong_trace: Trace | None = None,
) -> DiffReport:
    """Classify how a candidate encoding deviates from the ground truth.

    Constraints are compared slot-wise by (state, variable): a truth slot the
    candidate never constrains is missing; a candidate slot absent from the
    truth is superfluous; a shared slot whose operator or constant differs is
    a constraint mismatch.  When a wrong trace is supplied, a missing
    constraint is additionally flagged critical if adding it back to the
    candidate flips that trace's replay from completed to blocked — i.e. its
    absence alone lets the wrong execution through.
    """
    for label, spec in (("candidate", candidate), ("ground_truth", ground_truth)):
        diagnostics = check_specification(spec, schema)
        if diagnostics:
            raise SchemaMismatch(f"{label} does not check against the schema: {diagnostics[0]}")

    truth_slots = _constraint_refs(ground_truth)
    candidate_slots = _constraint_refs(candidate)

    missing: list[ConstraintRef] = []
    mismatches: list[ConstraintRef] = []
    for slot in sorted(truth_slots):
        truth_refs = truth_slots[slot]
        candidate_refs = candidate_slots.get(slot)
        if candidate_refs is None:
            missing.extend(truth_refs)
            continue
        for ref in truth_refs:
            if ref not in candidate_refs:
                mismatches.append(ref)

    superfluous = [
        ref
        for slot in sorted(candidate_slots)
        if slot not in truth_slots
        for ref in candidate_slots[slot]
    ]

    critical: list[ConstraintRef] = []
    if wrong_trace is not None and missing:
        candidate_allows = replay(candidate, schema, wrong_trace).done
        if candidate_allows:
            for ref in missing:
                patched = _with_constraint_added(candidate, ref.state, *truth_slots[ref.slot][ref])
                if not replay(patched, schema, wrong_trace).done:
                    critical.append(ref)

    return DiffReport(
        missing_predicates=tuple(missing),
        critical_missing=tuple(critical),
        superfluous_predicates=tuple(superfluous),
        constraint_mismatches=tuple(mismatches),
    )
