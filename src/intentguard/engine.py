"""Runtime verification of agent state updates against a specification.

A :class:`Session` holds the world valuation (all variables start unobserved)
and consumes :class:`ActionEvent` objects one at a time.  Ordinary updates go
through predicate-level checking: if every predicate over every touched state
is contradicted by the update, the update is reverted and a warning verdict is
returned; resubmitting the identical event immediately afterwards is permitted
on the grounds that it may be a legitimate intermediate step.  Events flagged
``critical`` name an objective and pass only when a full rule concluding that
objective is satisfied; a blocked critical event stays blocked no matter how
often it is resubmitted.

A blocking verdict of either kind leaves the world untouched.  After every
applied update the rules concluding ``Done`` are evaluated, and the first
fully satisfied one terminates the session.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import date, datetime
from enum import Enum
from typing import Callable

from . import feedback as feedback_mod
from .backend import DEFAULT_SIMILARITY_THRESHOLD, lexical_similarity
from .dsl import (
    DONE,
    ConstKind,
    Constant,
    EvalContext,
    KIND_FOR_TYPE,
    ObjectiveRef,
    Predicate,
    Specification,
    StatePredicate,
    check_specification,
    evaluate_constraint,
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
    """One predicate contradicted by a proposed update."""

    rule_index: int
    predicate: StatePredicate
    failed_constraints: tuple

    @property
    def state_name(self) -> str:
        return self.predicate.state_name


@dataclass(frozen=True)
class SoftCheckResult:
    passed: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class UnmetPredicate:
    predicate: Predicate
    failed_constraints: tuple = ()


@dataclass(frozen=True)
class HardCheckResult:
    objective: str
    satisfied: bool
    rule_index: int
    unmet: tuple[UnmetPredicate, ...] = ()


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
    has its variable's declared kind, and numbers are finite.
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
            if value.kind is not KIND_FOR_TYPE[declared.kind]:
                raise TraceError(
                    f"{update.state}.{var} ({declared.describe()}) cannot hold a {value.kind.value} value"
                )
            if value.kind is ConstKind.NUMBER and not value.value.is_finite():
                raise TraceError(f"{update.state}.{var}: {value.value} is not a finite number")


def event_fingerprint(event: ActionEvent) -> str:
    """Content identity of an event: phase, sorted updates, critical flag.

    The action id is deliberately excluded; "the same action" resubmitted
    under a fresh id must land on the same fingerprint.
    """
    payload = {
        "phase": event.phase,
        "critical": event.critical,
        "updates": sorted(
            (
                update.state,
                sorted((var, render_constant(value)) for var, value in update.values.items()),
            )
            for update in event.updates
        ),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class Session:
    """Sequential verification session for one instruction.

    Events must be submitted one at a time; sessions share nothing, so
    distinct sessions are free to live on distinct threads.
    """

    def __init__(
        self,
        spec: Specification,
        schema: StateSchema,
        clock: datetime | date,
        similarity: Callable[[str, str], float] | None = None,
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    ):
        diagnostics = check_specification(spec, schema)
        if diagnostics:
            raise InvalidSpecification(diagnostics)
        self.spec = spec
        self.schema = schema
        today = clock.date() if isinstance(clock, datetime) else clock
        self.ctx = EvalContext(
            today=today,
            similarity=similarity if similarity is not None else lexical_similarity,
            threshold=threshold,
        )
        self.world: dict[tuple[str, str], Constant] = {}
        self.achieved_objectives: set[str] = set()
        self.pending_soft: str | None = None
        self.done = False

    # -- helpers -----------------------------------------------------------

    def value_of(self, state: str, variable: str) -> Constant | None:
        return self.world.get((state, variable))

    def world_view(self) -> dict[tuple[str, str], Constant]:
        """Copy of the current valuation; handy for asserting no-mutation."""
        return dict(self.world)

    def _eval_state_predicate(
        self, pred: StatePredicate, world: dict[tuple[str, str], Constant]
    ) -> tuple[bool, tuple]:
        failed = tuple(
            c for c in pred.constraints
            if not evaluate_constraint(c, world.get((pred.state_name, c.variable)), self.ctx)
        )
        return (not failed, failed)

    def _predicate_holds(self, pred: Predicate, world: dict[tuple[str, str], Constant]) -> bool:
        if isinstance(pred, ObjectiveRef):
            return pred.objective_name in self.achieved_objectives
        ok, _ = self._eval_state_predicate(pred, world)
        return ok

    def _apply(self, event: ActionEvent) -> None:
        for update in event.updates:
            for var, value in update.values.items():
                self.world[(update.state, var)] = value

    # -- checks ------------------------------------------------------------

    def soft_check(self, updates: tuple[StateUpdate, ...] | list[StateUpdate]) -> SoftCheckResult:
        """Predicate-level check of a hypothetical update; never mutates.

        Fails only when, for every touched state that the specification
        constrains at all, every predicate over that state has at least one
        constraint on an updated variable evaluating false under the
        post-update valuation.  Constraints on variables the update does not
        touch are treated as not-yet-violated.  A touched state no predicate
        mentions keeps the update consistent.
        """
        hypothetical = dict(self.world)
        touched: dict[str, set[str]] = {}
        for update in updates:
            touched.setdefault(update.state, set()).update(update.values)
            for var, value in update.values.items():
                hypothetical[(update.state, var)] = value

        violations: list[Violation] = []
        all_states_contradicted = True
        any_predicate_seen = False
        for state_name, updated_vars in touched.items():
            predicates = [
                (idx, pred)
                for idx, rule in enumerate(self.spec.rules)
                for pred in rule.predicates
                if isinstance(pred, StatePredicate) and pred.state_name == state_name
            ]
            if not predicates:
                all_states_contradicted = False
                continue
            any_predicate_seen = True
            state_violations: list[Violation] = []
            state_contradicted = True
            for idx, pred in predicates:
                failed = tuple(
                    c
                    for c in pred.constraints
                    if c.variable in updated_vars
                    and not evaluate_constraint(
                        c, hypothetical.get((state_name, c.variable)), self.ctx
                    )
                )
                if failed:
                    state_violations.append(Violation(idx, pred, failed))
                else:
                    state_contradicted = False
            if state_contradicted:
                violations.extend(state_violations)
            else:
                all_states_contradicted = False

        if any_predicate_seen and all_states_contradicted:
            violations.sort(key=lambda v: v.rule_index)
            return SoftCheckResult(passed=False, violations=tuple(violations))
        return SoftCheckResult(passed=True)

    def hard_check(self, objective: str) -> HardCheckResult:
        """Rule-level check: is some rule concluding ``objective`` fully
        satisfied right now?

        When none is, the report covers the closest rule (most satisfied
        predicates, ties to the earliest) and lists each unmet predicate with
        its false constraints.
        """
        candidates = self.spec.rules_concluding(objective)
        if not candidates:
            raise UnknownObjective(objective)

        best_index = -1
        best_score = -1
        best_unmet: tuple[UnmetPredicate, ...] = ()
        for idx, rule in candidates:
            unmet: list[UnmetPredicate] = []
            satisfied_count = 0
            for pred in rule.predicates:
                if isinstance(pred, ObjectiveRef):
                    if pred.objective_name in self.achieved_objectives:
                        satisfied_count += 1
                    else:
                        unmet.append(UnmetPredicate(pred))
                    continue
                ok, failed = self._eval_state_predicate(pred, self.world)
                if ok:
                    satisfied_count += 1
                else:
                    unmet.append(UnmetPredicate(pred, failed))
            if not unmet:
                return HardCheckResult(objective, satisfied=True, rule_index=idx)
            if satisfied_count > best_score:
                best_score = satisfied_count
                best_index = idx
                best_unmet = tuple(unmet)
        return HardCheckResult(objective, satisfied=False, rule_index=best_index, unmet=best_unmet)

    def progress_report(self) -> list[RuleProgress]:
        """Pure snapshot of every rule's predicate statuses.

        A state predicate none of whose variables have been observed is
        indeterminate rather than unsatisfied; an objective reference is
        indeterminate until achieved.
        """
        report: list[RuleProgress] = []
        for idx, rule in enumerate(self.spec.rules):
            statuses: list[PredicateStatus] = []
            for pred in rule.predicates:
                if isinstance(pred, ObjectiveRef):
                    statuses.append(
                        PredicateStatus.SATISFIED
                        if pred.objective_name in self.achieved_objectives
                        else PredicateStatus.INDETERMINATE
                    )
                    continue
                observed = [
                    c for c in pred.constraints if (pred.state_name, c.variable) in self.world
                ]
                if not observed:
                    statuses.append(PredicateStatus.INDETERMINATE)
                    continue
                ok, _ = self._eval_state_predicate(pred, self.world)
                statuses.append(PredicateStatus.SATISFIED if ok else PredicateStatus.UNSATISFIED)
            report.append(RuleProgress(idx, rule.conclusion, tuple(statuses)))
        return report

    def _done_rule_satisfied(self) -> bool:
        for _, rule in self.spec.rules_concluding(DONE):
            if all(self._predicate_holds(p, self.world) for p in rule.predicates):
                return True
        return False

    # -- main entry point ----------------------------------------------------

    def submit_action(self, event: ActionEvent) -> Verdict:
        """Verify one event, mutate the world only on success, and return the
        verdict with feedback attached."""
        if self.done:
            raise SessionDone("the task already completed; no further events are accepted")
        validate_event(event, self.schema)

        fingerprint = event_fingerprint(event)
        is_repeat = fingerprint == self.pending_soft
        self.pending_soft = None

        if event.critical is not None:
            result = self.hard_check(event.critical)
            if not result.satisfied:
                return self._verdict(event, VerdictKind.HARD_BLOCK, hard_report=result)
            self._apply(event)
            newly = () if event.critical in self.achieved_objectives else (event.critical,)
            self.achieved_objectives.add(event.critical)
            return self._finish_allowed(event, newly)

        if not is_repeat:
            result = self.soft_check(event.updates)
            if not result.passed:
                self.pending_soft = fingerprint
                return self._verdict(event, VerdictKind.SOFT_BLOCK, violations=result.violations)
        self._apply(event)
        return self._finish_allowed(event, ())

    def _finish_allowed(self, event: ActionEvent, newly: tuple[str, ...]) -> Verdict:
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
            roadmap=tuple(feedback_mod.render_roadmap_lines(self.progress_report(), self.spec, self.schema)),
            soft=feedback_mod.render_soft(violations) if violations else None,
            hard=feedback_mod.render_hard(hard_report) if hard_report is not None else None,
        )
        return Verdict(action_id=event.action_id, kind=kind, feedback=bundle, achieved=achieved)
