"""Runtime verification of agent state updates against a specification.

A :class:`Session` holds the world valuation (all variables start unobserved)
and consumes :class:`ActionEvent` objects one at a time.  Ordinary updates go
through predicate-level checking: if every predicate over every touched state
is contradicted by the update, the update is reverted and a warning verdict is
returned; resubmitting the identical event immediately afterwards is permitted
on the grounds that it may be a legitimate intermediate step (identical by
:func:`event_fingerprint`, down to each value's literal spelling).  Events
flagged ``critical`` name an objective and pass only when a full rule
concluding that objective is satisfied; a blocked critical event stays
blocked no matter how often it is resubmitted.

A blocking verdict of either kind leaves the world untouched.  After every
applied update the rules concluding ``Done`` are evaluated, and the first
fully satisfied one terminates the session.

A session compiles its specification on first use: an index from each
``(state, variable)`` slot and each objective to the predicates that read it
and to the rules concluding it, every constraint compiled into a test with
its constant already normalized (:func:`~intentguard.dsl.compile_constraint`),
every predicate's status, and every rule's roadmap line.  An event then costs
what it touches: each predicate over a written slot is evaluated once, against
the world with the event's values overlaid, and the soft check reads that
evaluation.  Only an allowed event commits its values, the new statuses and
the re-rendered roadmap lines, so an event that raises changes nothing.  With
the built-in similarity function, a session scores each distinct pair of texts
once; an injected one is called once per ``~=`` evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable

from . import feedback as feedback_mod
from .dsl import (
    DONE,
    ConstKind,
    Constant,
    ConstraintTest,
    EvalContext,
    ObjectiveRef,
    Predicate,
    Specification,
    check_specification,
    compile_constraint,
    evaluate_constraint,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
    lexical_similarity,
    render_constant,
)
from .schema import StateSchema, VarType


class EngineError(Exception):
    """Base for verification-time failures."""


class InvalidSpecification(EngineError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "specification failed static checks: " + "; ".join(str(d) for d in self.diagnostics)
        )


class SessionDone(EngineError):
    """An event arrived after the task already completed."""


class TraceError(EngineError):
    """An event refers to states/variables the schema does not declare, or
    carries values of the wrong type."""


class UnknownObjective(EngineError):
    def __init__(self, objective: str):
        self.objective = objective
        super().__init__(f"no rule concludes objective '{objective}'")


@dataclass(frozen=True)
class StateUpdate:
    state: str
    values: dict[str, Constant]


@dataclass(frozen=True)
class ActionEvent:
    """One agent action's proposed effect: pre-action expectation or
    post-action observation, plus an optional critical objective."""

    action_id: str
    phase: str  # pre | post
    updates: tuple[StateUpdate, ...]
    critical: str | None = None


class VerdictKind(str, Enum):
    ALLOW = "allow"
    SOFT_BLOCK = "soft_block"
    HARD_BLOCK = "hard_block"
    TASK_DONE = "task_done"


@dataclass(frozen=True)
class Verdict:
    action_id: str
    kind: VerdictKind
    feedback: "feedback_mod.FeedbackBundle"
    achieved: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "kind": self.kind.value,
            "achieved": list(self.achieved),
            "feedback": self.feedback.to_json_dict(),
        }


class PredicateStatus(str, Enum):
    SATISFIED = "satisfied"
    UNSATISFIED = "unsatisfied"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RuleProgress:
    rule_index: int
    conclusion: str
    statuses: tuple[PredicateStatus, ...]


@dataclass(frozen=True)
class Violation:
    """One predicate that does not hold, with its false constraints (none for
    an objective not yet achieved)."""

    rule_index: int
    predicate: Predicate
    failed_constraints: tuple = ()


@dataclass(frozen=True)
class SoftCheckResult:
    passed: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class HardCheckResult:
    objective: str
    satisfied: bool
    rule_index: int
    unmet: tuple[Violation, ...] = ()


@dataclass
class _CompiledSpec:
    """A session's compiled spec, in the manner of Rete's alpha memories: the
    predicates indexed by what they read, plus every predicate's current
    status and every rule's current roadmap line.

    ``by_state`` maps a state to the ``(rule, predicate index)`` pairs over
    it in rule order, for :meth:`Session.soft_check`.  ``by_slot`` maps a
    ``(state, variable)`` slot, and ``by_objective`` an objective, to the
    ``(rule, predicate index)`` pairs that read it.  ``by_conclusion`` maps an
    objective to the rules concluding it, in rule order.  ``tests`` holds, by
    rule and predicate index, each constraint's compiled test (none for an
    objective reference).  ``sentences`` holds each rule's fixed roadmap
    sentence; ``lines`` adds its current "achieved" suffix.
    """

    by_state: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    by_slot: dict[tuple[str, str], list[tuple[int, int]]] = field(default_factory=dict)
    by_objective: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    by_conclusion: dict[str, list[int]] = field(default_factory=dict)
    tests: list[list[tuple[ConstraintTest, ...]]] = field(default_factory=list)
    statuses: list[list[PredicateStatus]] = field(default_factory=list)
    sentences: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def declared_type(schema: StateSchema, state_name: str, variable: str) -> VarType:
    """The schema's type for ``state_name.variable``; raises :class:`TraceError`
    when either is undeclared."""
    state = schema.state(state_name)
    if state is None:
        raise TraceError(f"state '{state_name}' is not declared in the schema")
    declared = state.variables.get(variable)
    if declared is None:
        raise TraceError(f"'{state_name}' has no variable '{variable}'")
    return declared


def validate_event(event: ActionEvent, schema: StateSchema) -> None:
    """The one check of what an event may contain; raises :class:`TraceError`.

    The phase is ``pre`` or ``post``; the event carries updates or a critical
    flag; no update is empty; every state and variable is declared; every value
    has its variable's declared kind, numbers are finite, and Enum values are
    declared variants.
    """
    if event.phase not in ("pre", "post"):
        raise TraceError(f"phase must be 'pre' or 'post', got {event.phase!r}")
    if not event.updates and event.critical is None:
        raise TraceError("event has neither updates nor a critical flag")
    for update in event.updates:
        if not update.values:
            raise TraceError(f"update for '{update.state}' needs non-empty 'values'")
        for var, value in update.values.items():
            declared = declared_type(schema, update.state, var)
            if value.kind is not declared.kind:
                raise TraceError(
                    f"{update.state}.{var} ({declared.describe()}) cannot hold a {value.kind.value} value"
                )
            if value.kind is ConstKind.NUMBER and not value.value.is_finite():
                raise TraceError(f"{update.state}.{var}: {value.value} is not a finite number")
            if value.kind is ConstKind.ENUM and value.value not in declared.variants:
                raise TraceError(f"{update.state}.{var} ({declared.describe()}) has no variant '{value.value}'")


def event_fingerprint(event: ActionEvent) -> tuple:
    """Content identity of an event: the tuple of its phase, its critical
    flag, and each updated state's sorted ``(variable, literal)`` pairs,
    sorted by state.

    A value counts by its literal spelling, so ``1`` and ``1.0`` are
    different events.  The action id is deliberately excluded; "the same
    action" resubmitted under a fresh id must land on the same identity.
    """
    updates = sorted(
        (update.state, tuple(sorted((var, render_constant(value)) for var, value in update.values.items())))
        for update in event.updates
    )
    return event.phase, event.critical, tuple(updates)


def _memoized_lexical_similarity() -> Callable[[str, str], float]:
    """:func:`~intentguard.dsl.lexical_similarity` with a memo of its own, for
    one session: a score depends on nothing but the two texts."""
    memo: dict[tuple[str, str], float] = {}

    def similarity(a: str, b: str) -> float:
        score = memo.get((a, b))
        if score is None:
            score = memo[a, b] = lexical_similarity(a, b)
        return score

    return similarity


class Session:
    """Sequential verification session for one instruction.

    Events must be submitted one at a time; sessions share nothing, so
    distinct sessions are free to live on distinct threads.  ``world`` and
    ``achieved_objectives`` are read-only outside the session: the compiled
    statuses follow them only through :meth:`submit_action`.
    """

    def __init__(
        self,
        spec: Specification,
        schema: StateSchema,
        clock: datetime | date,
        similarity: Callable[[str, str], float] | None = None,
    ):
        diagnostics = check_specification(spec, schema)
        if diagnostics:
            raise InvalidSpecification(diagnostics)
        self.spec = spec
        self.schema = schema
        today = clock.date() if isinstance(clock, datetime) else clock
        self.ctx = EvalContext(
            today=today,
            similarity=similarity if similarity is not None else _memoized_lexical_similarity(),
        )
        self.world: dict[tuple[str, str], Constant] = {}
        self.achieved_objectives: set[str] = set()
        self.pending_soft: tuple | None = None
        self.done = False

    @cached_property
    def _compiled(self) -> _CompiledSpec:
        """The spec's compiled form, built on first use so that constructing a
        session stays as cheap as the static check.  It evaluates nothing: no
        event has been committed yet, so every predicate is indeterminate and
        every roadmap line is its rule's bare sentence."""
        compiled = _CompiledSpec()
        for r, rule in enumerate(self.spec.rules):
            tests: list[tuple[ConstraintTest, ...]] = []
            for p, pred in enumerate(rule.predicates):
                if isinstance(pred, ObjectiveRef):
                    compiled.by_objective.setdefault(pred.objective_name, []).append((r, p))
                    tests.append(())
                    continue
                compiled.by_state.setdefault(pred.state_name, []).append((r, p))
                for var in dict.fromkeys(c.variable for c in pred.constraints):
                    compiled.by_slot.setdefault((pred.state_name, var), []).append((r, p))
                variables = self.schema.state(pred.state_name).variables
                tests.append(tuple([compile_constraint(c, variables[c.variable].kind) for c in pred.constraints]))
            compiled.tests.append(tests)
            sentence = feedback_mod.roadmap_sentence(rule, self.schema)
            compiled.statuses.append([PredicateStatus.INDETERMINATE] * len(tests))
            compiled.sentences.append(sentence)
            compiled.lines.append(sentence)
            compiled.by_conclusion.setdefault(rule.conclusion, []).append(r)
        return compiled

    def _evaluate(self, updates: Iterable[StateUpdate]) -> tuple[dict, dict, dict]:
        """The one evaluation of an update, which commits nothing.

        Returns the slots it writes; the new status of each predicate that
        reads one of them, under the world with those slots overlaid; and,
        for each such predicate with any, its false constraints on written
        slots.  Each of those predicates' constraints is tested at most once;
        those on unwritten slots only until the predicate is known to fail.
        """
        written = {(update.state, var): value for update in updates for var, value in update.values.items()}
        compiled, rules, world, ctx = self._compiled, self.spec.rules, self.world, self.ctx
        statuses: dict[tuple[int, int], PredicateStatus] = {}
        failures: dict[tuple[int, int], tuple] = {}
        for r, p in dict.fromkeys(key for slot in written for key in compiled.by_slot.get(slot, ())):
            pred = rules[r].predicates[p]
            failed, holds = [], True
            for c, test in zip(pred.constraints, compiled.tests[r][p]):
                slot = (pred.state_name, c.variable)
                if slot in written:
                    if not test(written[slot], ctx):
                        failed.append(c)
                        holds = False
                elif holds and not test(world.get(slot), ctx):
                    holds = False
            statuses[r, p] = PredicateStatus.SATISFIED if holds else PredicateStatus.UNSATISFIED
            if failed:
                failures[r, p] = tuple(failed)
        return written, statuses, failures

    def _commit(self, written: dict, statuses: dict) -> None:
        """Write ``written`` into the world, record the predicate
        ``statuses`` and re-render the roadmap line of each rule whose
        statuses changed."""
        self.world.update(written)
        compiled = self._compiled
        changed: set[int] = set()
        for (r, p), status in statuses.items():
            if status is not compiled.statuses[r][p]:
                compiled.statuses[r][p] = status
                changed.add(r)
        for r in changed:
            compiled.lines[r] = compiled.sentences[r] + feedback_mod.achieved_suffix(compiled.statuses[r])

    def _achieve(self, objective: str) -> None:
        self.achieved_objectives.add(objective)
        self._commit({}, dict.fromkeys(self._compiled.by_objective.get(objective, ()), PredicateStatus.SATISFIED))

    # -- checks ------------------------------------------------------------

    def soft_check(self, updates: tuple[StateUpdate, ...] | list[StateUpdate]) -> SoftCheckResult:
        """Predicate-level check of a hypothetical update; never mutates.

        Fails only when, for every touched state that the specification
        constrains at all, every predicate over that state has at least one
        constraint on an updated variable evaluating false under the
        post-update valuation.  Constraints on variables the update does not
        touch are treated as not-yet-violated.  A touched state no predicate
        mentions keeps the update consistent, and so does an empty update.
        """
        return self._soft_result(updates, self._evaluate(updates)[2])

    def _soft_result(self, updates: Iterable[StateUpdate], failures: dict) -> SoftCheckResult:
        """The soft check's verdict from the ``failures`` of the update's
        evaluation, read state by state and rule by rule; it is settled at
        the first predicate over a touched state with no false constraint."""
        by_state, rules = self._compiled.by_state, self.spec.rules
        violations: list[Violation] = []
        for state_name in dict.fromkeys(update.state for update in updates):
            predicates = by_state.get(state_name)
            if not predicates:
                return SoftCheckResult(passed=True)
            for r, p in predicates:
                failed = failures.get((r, p))
                if failed is None:
                    return SoftCheckResult(passed=True)
                violations.append(Violation(r, rules[r].predicates[p], failed))

        if not violations:
            return SoftCheckResult(passed=True)
        violations.sort(key=lambda v: v.rule_index)
        return SoftCheckResult(passed=False, violations=tuple(violations))

    def hard_check(self, objective: str) -> HardCheckResult:
        """Rule-level check: is some rule concluding ``objective`` fully
        satisfied right now?

        The cached predicate statuses decide, and the first satisfied rule
        settles it.  When none is, the report covers only the closest rule
        (most satisfied predicates, ties to the earliest) and lists each unmet
        predicate with its false constraints; those of that rule are the only
        constraints this check evaluates.
        """
        candidates = self._compiled.by_conclusion.get(objective)
        if not candidates:
            raise UnknownObjective(objective)
        for idx in candidates:
            if self._holds(idx):
                return HardCheckResult(objective, satisfied=True, rule_index=idx)

        statuses = self._compiled.statuses
        closest = max(candidates, key=lambda r: (statuses[r].count(PredicateStatus.SATISFIED), -r))
        unmet: list[Violation] = []
        for pred, status, tests in zip(
            self.spec.rules[closest].predicates, statuses[closest], self._compiled.tests[closest]
        ):
            if status is PredicateStatus.SATISFIED:
                continue
            failed = () if isinstance(pred, ObjectiveRef) else tuple(
                c for c, test in zip(pred.constraints, tests)
                if not test(self.world.get((pred.state_name, c.variable)), self.ctx)
            )
            unmet.append(Violation(closest, pred, failed))
        return HardCheckResult(objective, satisfied=False, rule_index=closest, unmet=tuple(unmet))

    def _holds(self, rule_index: int) -> bool:
        """Every predicate of the rule is satisfied."""
        statuses = self._compiled.statuses[rule_index]
        return statuses.count(PredicateStatus.SATISFIED) == len(statuses)

    def progress_report(self) -> list[RuleProgress]:
        """Snapshot of every rule's predicate statuses.

        A state predicate none of whose variables have been observed is
        indeterminate rather than unsatisfied; an objective reference is
        indeterminate until achieved.  The statuses are maintained
        incrementally: an allowed update re-evaluates only the predicates over
        the slots it wrote, and an achieved objective marks only the
        references to it satisfied.
        """
        statuses = self._compiled.statuses
        return [
            RuleProgress(idx, rule.conclusion, tuple(statuses[idx]))
            for idx, rule in enumerate(self.spec.rules)
        ]

    def _done_rule_satisfied(self) -> bool:
        return any(self._holds(r) for r in self._compiled.by_conclusion.get(DONE, ()))

    # -- main entry point ----------------------------------------------------

    def submit_action(self, event: ActionEvent) -> Verdict:
        """Verify one event and return the verdict with feedback attached.

        Only an allowed event changes the session; one that raises, say from
        an injected similarity function, leaves it as it was."""
        if self.done:
            raise SessionDone("the task already completed; no further events are accepted")
        validate_event(event, self.schema)

        if event.critical is not None:
            result = self.hard_check(event.critical)
            if not result.satisfied:
                self.pending_soft = None
                return self._verdict(event, VerdictKind.HARD_BLOCK, hard_report=result)
        written, statuses, failures = self._evaluate(event.updates)
        if event.critical is None and (self.pending_soft is None or event_fingerprint(event) != self.pending_soft):
            result = self._soft_result(event.updates, failures)
            if not result.passed:
                self.pending_soft = event_fingerprint(event)
                return self._verdict(event, VerdictKind.SOFT_BLOCK, violations=result.violations)

        self.pending_soft = None
        self._commit(written, statuses)
        newly: tuple[str, ...] = ()
        if event.critical is not None and event.critical not in self.achieved_objectives:
            newly = (event.critical,)
            self._achieve(event.critical)
        if self._done_rule_satisfied():
            self.done = True
            return self._verdict(event, VerdictKind.TASK_DONE, achieved=newly + (DONE,))
        return self._verdict(event, VerdictKind.ALLOW, achieved=newly)

    def _verdict(
        self,
        event: ActionEvent,
        kind: VerdictKind,
        achieved: tuple[str, ...] = (),
        violations: tuple[Violation, ...] = (),
        hard_report: HardCheckResult | None = None,
    ) -> Verdict:
        bundle = feedback_mod.FeedbackBundle(
            roadmap=tuple(self._compiled.lines),
            soft=feedback_mod.render_soft(violations) if violations else None,
            hard=feedback_mod.render_hard(hard_report) if hard_report is not None else None,
        )
        return Verdict(action_id=event.action_id, kind=kind, feedback=bundle, achieved=achieved)
