from __future__ import annotations

import json
from datetime import time
from decimal import Decimal

import pytest

from intentguard import engine
from intentguard.dsl import Constant, lexical_similarity, parse_specification
from intentguard.engine import (
    ActionEvent,
    InvalidSpecification,
    PredicateStatus,
    Session,
    SessionDone,
    StateUpdate,
    TraceError,
    UnknownObjective,
    VerdictKind,
    event_fingerprint,
    validate_event,
)
from intentguard.schema import schema_from_dict

from conftest import CLOCK, FIXTURES, trace_fixture


def update(state, **values):
    typed = {}
    for var, raw in values.items():
        if isinstance(raw, bool):
            typed[var] = Constant.boolean(raw)
        elif isinstance(raw, (int, Decimal)):
            typed[var] = Constant.number(raw)
        else:
            typed[var] = raw
    return StateUpdate(state=state, values=typed)


def event(action_id, *updates, phase="pre", critical=None):
    return ActionEvent(action_id=action_id, phase=phase, updates=tuple(updates), critical=critical)


def name_update(value):
    return StateUpdate(state="RestaurantInfo", values={"name": Constant.text(value)})


class TestSessionConstruction:
    def test_fresh_session_is_blank(self, make_session):
        session = make_session()
        assert session.achieved_objectives == set()
        assert session.done is False
        assert dict(session.world) == {}

    def test_invalid_spec_is_rejected(self, restaurant_schema):
        bad = parse_specification("RestaurantInfo(name >= 100) -> Done")
        with pytest.raises(InvalidSpecification) as exc_info:
            Session(bad, restaurant_schema, CLOCK)
        assert any(d.code == "TYPE_MISMATCH" for d in exc_info.value.diagnostics)

    def test_two_sessions_replay_identically(self, make_session, restaurant_schema):
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        streams = []
        for _ in range(2):
            session = make_session()
            streams.append(
                [json.dumps(session.submit_action(e).to_json_dict(), sort_keys=True) for e in trace.events]
            )
        assert streams[0] == streams[1]


class TestSimilarityMemo:
    """With no scorer given, a session memoizes the built-in one; an injected
    scorer is called on every ``~=`` evaluation."""

    SCHEMA = schema_from_dict(
        {"app_id": "fuzzy", "states": [{"name": "Shop", "description": "", "variables": [{"name": "Text"}, {"open": "Boolean"}]}]}
    )
    # ``open`` is never written, so no event completes the task
    SPEC = parse_specification('Shop(name ~= "apples") & Shop(open = true) -> Done')

    def submit_names(self, session, names):
        return [
            json.dumps(session.submit_action(event(f"a{k}", StateUpdate("Shop", {"name": Constant.text(name)}))).to_json_dict())
            for k, name in enumerate(names)
        ]

    def test_the_default_scorer_runs_once_per_distinct_normalized_pair(self, monkeypatch):
        pairs = []

        def counting(a, b):
            pairs.append((a, b))
            return lexical_similarity(a, b)

        monkeypatch.setattr(engine, "lexical_similarity", counting)
        # NFC and trimming happen before scoring, so these are three pairs
        names = ["apple", " apple ", "Café", "Cafe\u0301", "apple", "pears", "Café ", "pears"]
        memoized = self.submit_names(Session(self.SPEC, self.SCHEMA, CLOCK), names)
        assert sorted(pairs) == [("Café", "apples"), ("apple", "apples"), ("pears", "apples")]
        # the memo changes no verdict
        assert memoized == self.submit_names(Session(self.SPEC, self.SCHEMA, CLOCK, similarity=lexical_similarity), names)

        pairs.clear()
        self.submit_names(Session(self.SPEC, self.SCHEMA, CLOCK), ["apple"])
        assert pairs == [("apple", "apples")]  # a second session starts cold

    def test_an_injected_scorer_is_called_on_every_evaluation(self):
        calls = []

        def scorer(a, b):
            calls.append((a, b))
            return 0.0

        session = Session(self.SPEC, self.SCHEMA, CLOCK, similarity=scorer)
        per_event = []
        for k in range(4):
            before = len(calls)
            self.submit_names(session, ["apples"])
            per_event.append(len(calls) - before)
        # one evaluation serves the soft check and the status update
        assert per_event == [1, 1, 1, 1]
        assert set(calls) == {("apples", "apples")}

        # ``open = false`` contradicts the other predicate, so the update is
        # soft-blocked; its identical resubmission is allowed
        blocked = event("b1", StateUpdate("Shop", {"name": Constant.text("pears"), "open": Constant.boolean(False)}))
        per_event = []
        for expected in (VerdictKind.SOFT_BLOCK, VerdictKind.ALLOW):
            before = len(calls)
            assert session.submit_action(blocked).kind is expected
            per_event.append(len(calls) - before)
        assert per_event == [1, 1]


class TestHappyPath:
    def test_walkthrough(self, make_session):
        session = make_session()
        first = session.submit_action(event("a1", name_update("R")))
        assert first.kind is VerdictKind.ALLOW

        second = session.submit_action(
            event(
                "a2",
                StateUpdate(
                    "ReserveInfo",
                    {
                        "date": Constant.today(),
                        "time": Constant.clock(time(18, 0)),
                        "available": Constant.boolean(True),
                    },
                ),
            )
        )
        assert second.kind is VerdictKind.ALLOW

        third = session.submit_action(event("a3", critical="Reserve"))
        assert third.kind is VerdictKind.ALLOW
        assert third.achieved == ("Reserve",)
        assert session.achieved_objectives == {"Reserve"}

        fourth = session.submit_action(
            event("a4", StateUpdate("ReserveResult", {"success": Constant.boolean(True)}), phase="post")
        )
        assert fourth.kind is VerdictKind.TASK_DONE
        assert "Done" in fourth.achieved
        assert session.done is True

    def test_events_after_done_raise(self, make_session, restaurant_schema):
        session = make_session()
        trace = trace_fixture("restaurant", "traces", "happy_path.jsonl", schema=restaurant_schema)
        for e in trace.events:
            session.submit_action(e)
        with pytest.raises(SessionDone):
            session.submit_action(event("extra", name_update("R")))


class TestSoftVerification:
    def test_consistent_update_passes(self, make_session):
        session = make_session()
        result = session.soft_check([name_update("R")])
        assert result.passed is True

    def test_contradicting_update_fails_with_all_violations(self, make_session):
        session = make_session()
        result = session.soft_check([name_update("S")])
        assert result.passed is False
        assert [v.rule_index for v in result.violations] == [0, 2]
        for violation in result.violations:
            assert violation.failed_constraints[0].variable == "name"

    def test_empty_update_passes(self, make_session):
        assert make_session().soft_check([]).passed is True

    def test_soft_check_does_not_mutate(self, make_session):
        session = make_session()
        before = dict(session.world)
        session.soft_check([name_update("S")])
        assert dict(session.world) == before

    def test_untouched_state_predicates_are_ignored(self, make_session):
        # date/time alone are consistent with both ReserveInfo predicates
        session = make_session()
        partial = StateUpdate("ReserveInfo", {"date": Constant.today()})
        assert session.soft_check([partial]).passed is True

    def test_unconstrained_state_is_vacuously_consistent(self, apples_spec):
        # an update to a state no predicate mentions passes outright
        unconstrained_schema = schema_from_dict(
            {
                "app_id": "demo",
                "states": [
                    {"name": "Cart", "description": "", "variables": [{"item": "Text"}, {"quantity": "Number"}]},
                    {"name": "Checkout", "description": "", "variables": [{"placed": "Boolean"}]},
                    {"name": "Telemetry", "description": "", "variables": [{"screen": "Text"}]},
                ],
            }
        )
        session = Session(apples_spec, unconstrained_schema, CLOCK)
        telemetry = StateUpdate("Telemetry", {"screen": Constant.text("cart")})
        assert session.soft_check([telemetry]).passed is True

    def test_branch_predicates_do_not_self_falsify(self, make_session):
        # available=true contradicts R3 but satisfies R1, so the update passes
        session = make_session()
        result = session.soft_check([StateUpdate("ReserveInfo", {"available": Constant.boolean(True)})])
        assert result.passed is True

    def test_one_consistent_state_lets_a_two_state_update_pass(self, make_session):
        # the name contradicts rules 0 and 2, but available=true satisfies rule 0
        session = make_session()
        available = StateUpdate("ReserveInfo", {"available": Constant.boolean(True)})
        assert session.soft_check([name_update("S"), available]).passed is True

    def test_two_contradicted_states_report_both_in_rule_order(self, make_session):
        session = make_session()
        late = StateUpdate("ReserveInfo", {"time": Constant.clock(time(20, 0))})
        result = session.soft_check([late, name_update("S")])
        assert result.passed is False
        assert [(v.rule_index, v.predicate.state_name) for v in result.violations] == [
            (0, "ReserveInfo"),
            (0, "RestaurantInfo"),
            (2, "ReserveInfo"),
            (2, "RestaurantInfo"),
        ]
        assert {c.variable for v in result.violations for c in v.failed_constraints} == {"time", "name"}

    def test_soft_block_reverts_and_repeat_is_permitted(self, make_session):
        session = make_session()
        wrong = event("w1", name_update("S"))
        blocked = session.submit_action(wrong)
        assert blocked.kind is VerdictKind.SOFT_BLOCK
        assert dict(session.world) == {}
        assert blocked.feedback.soft is not None

        resubmitted = session.submit_action(event("w2", name_update("S")))
        assert resubmitted.kind is VerdictKind.ALLOW
        assert session.world.get(("RestaurantInfo", "name")) == Constant.text("S")

    def test_intervening_event_resets_repeat_permit(self, make_session):
        session = make_session()
        assert session.submit_action(event("w1", name_update("S"))).kind is VerdictKind.SOFT_BLOCK
        assert session.submit_action(event("ok", name_update("R"))).kind is VerdictKind.ALLOW
        # same wrong update again: permit expired, blocked again
        assert session.submit_action(event("w2", name_update("S"))).kind is VerdictKind.SOFT_BLOCK

    def test_unknown_state_variable_and_type_raise(self, make_session):
        session = make_session()
        with pytest.raises(TraceError):
            session.submit_action(event("x", StateUpdate("Nowhere", {"x": Constant.number(1)})))
        with pytest.raises(TraceError):
            session.submit_action(event("x", StateUpdate("RestaurantInfo", {"rating": Constant.number(1)})))
        with pytest.raises(TraceError):
            session.submit_action(event("x", StateUpdate("RestaurantInfo", {"name": Constant.number(1)})))
        with pytest.raises(TraceError):
            session.submit_action(event("x"))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "sNaN"])
    def test_non_finite_number_raises(self, groceries_schema, apples_spec, literal):
        session = Session(apples_spec, groceries_schema, CLOCK)
        bad = event("x", StateUpdate("Cart", {"quantity": Constant.number(Decimal(literal))}))
        with pytest.raises(TraceError, match="finite"):
            session.submit_action(bad)
        assert dict(session.world) == {}

    def test_undeclared_enum_variant_raises(self):
        # hand-built events go through the same checks as trace lines
        schema = schema_from_dict(
            {"app_id": "shop", "states": [{"name": "Order", "description": "", "variables": [{"status": "Enum[Open, Paid]"}]}]}
        )
        session = Session(parse_specification("Order(status != Paid) -> Done"), schema, CLOCK)
        bogus = event("x", StateUpdate("Order", {"status": Constant.enum("Bogus")}))
        with pytest.raises(TraceError) as info:
            session.submit_action(bogus)
        assert str(info.value) == "Order.status (Enum[Open, Paid]) has no variant 'Bogus'"
        assert dict(session.world) == {}
        assert session.submit_action(event("y", StateUpdate("Order", {"status": Constant.enum("Open")}))).kind is (
            VerdictKind.TASK_DONE
        )

    def test_validate_event_names_each_rule(self, restaurant_schema):
        cases = [
            (event("x", name_update("R"), phase="mid"), "phase"),
            (event("x"), "neither updates nor"),
            (event("x", StateUpdate("RestaurantInfo", {})), "non-empty"),
            (event("x", StateUpdate("Nowhere", {"x": Constant.number(1)})), "is not declared in the schema"),
            (event("x", StateUpdate("RestaurantInfo", {"rating": Constant.number(1)})), "has no variable"),
            (event("x", StateUpdate("RestaurantInfo", {"name": Constant.number(1)})), "cannot hold"),
        ]
        for bad, fragment in cases:
            with pytest.raises(TraceError, match=fragment):
                validate_event(bad, restaurant_schema)
        validate_event(event("ok", name_update("R")), restaurant_schema)


class TestHardVerification:
    def test_blocked_until_conditions_hold(self, make_session):
        session = make_session()
        session.submit_action(event("a1", name_update("R")))
        verdict = session.submit_action(event("a2", critical="Reserve"))
        assert verdict.kind is VerdictKind.HARD_BLOCK
        assert verdict.achieved == ()
        assert session.achieved_objectives == set()
        assert "ReserveInfo" in verdict.feedback.hard

    def test_hard_block_is_persistent_for_identical_events(self, make_session):
        session = make_session()
        session.submit_action(event("a1", name_update("R")))
        before = dict(session.world)
        first = session.submit_action(event("a2", critical="Reserve"))
        second = session.submit_action(event("a3", critical="Reserve"))
        assert first.kind is second.kind is VerdictKind.HARD_BLOCK
        assert dict(session.world) == before

    def test_unmet_report_lists_false_constraints(self, make_session):
        session = make_session()
        session.submit_action(event("a1", name_update("R")))
        report = session.hard_check("Reserve")
        assert report.satisfied is False
        assert report.rule_index == 0
        unmet_states = [u.predicate.state_name for u in report.unmet]
        assert unmet_states == ["ReserveInfo"]
        assert {c.variable for c in report.unmet[0].failed_constraints} == {"date", "time", "available"}

    def test_best_rule_selection_prefers_most_satisfied_then_lowest_index(self, restaurant_schema):
        spec = parse_specification(
            'RestaurantInfo(name = "R") & ReserveInfo(available = true) -> Book\n'
            'RestaurantInfo(name = "R") & ReserveResult(success = true) -> Book\n'
            "Book -> Done"
        )
        session = Session(spec, restaurant_schema, CLOCK)
        # nothing satisfied: tie between rules 0 and 1 -> lowest index
        assert session.hard_check("Book").rule_index == 0
        session.submit_action(
            event("s", StateUpdate("ReserveResult", {"success": Constant.boolean(True)}), phase="post")
        )
        session.submit_action(event("n", name_update("R")))
        # rule 1 now fully... both have name satisfied, rule 1 also success -> satisfied
        assert session.hard_check("Book").satisfied is True
        assert session.hard_check("Book").rule_index == 1

    def test_done_satisfiable_through_the_unavailable_branch(self, make_session, restaurant_schema):
        session = make_session()
        trace = trace_fixture("restaurant", "traces", "unavailable_branch.jsonl", schema=restaurant_schema)
        for e in trace.events[:-1]:
            session.submit_action(e)
        # before the availability observation, neither Done rule is satisfiable
        assert session.hard_check("Done").satisfied is False
        session.submit_action(trace.events[-1])
        result = session.hard_check("Done")
        assert result.satisfied is True
        assert result.rule_index == 2  # the available != true branch

    def test_objective_precedence_is_sound(self, groceries_schema):
        # B's rule references A, so B can never be achieved first
        spec = parse_specification(
            "Cart(quantity = 1) -> A\nA & Checkout(placed = true) -> B\nB -> Done"
        )
        session = Session(spec, groceries_schema, CLOCK)
        session.submit_action(event("u1", update("Cart", quantity=1)))
        session.submit_action(event("u2", update("Checkout", placed=True)))
        assert session.submit_action(event("b", critical="B")).kind is VerdictKind.HARD_BLOCK
        assert session.submit_action(event("a", critical="A")).kind is VerdictKind.ALLOW
        done = session.submit_action(event("b2", critical="B"))
        assert done.kind is VerdictKind.TASK_DONE
        assert session.achieved_objectives == {"A", "B"}

    def test_unknown_objective(self, make_session):
        session = make_session()
        with pytest.raises(UnknownObjective):
            session.hard_check("Purchase")
        with pytest.raises(UnknownObjective):
            session.submit_action(event("x", critical="Purchase"))

    def test_critical_event_applies_updates_only_on_allow(self, groceries_schema):
        spec = parse_specification(
            'Cart(item = "apples", quantity = 3) -> PlaceOrder\nPlaceOrder & Checkout(placed = true) -> Done'
        )
        session = Session(spec, groceries_schema, CLOCK)
        bundled = event(
            "c1", StateUpdate("Checkout", {"placed": Constant.boolean(True)}), critical="PlaceOrder"
        )
        blocked = session.submit_action(bundled)
        assert blocked.kind is VerdictKind.HARD_BLOCK
        assert session.world.get(("Checkout", "placed")) is None

        session.submit_action(event("c2", update("Cart", quantity=3, item=Constant.text("apples"))))
        allowed = session.submit_action(
            event("c3", StateUpdate("Checkout", {"placed": Constant.boolean(True)}), critical="PlaceOrder")
        )
        assert allowed.kind is VerdictKind.TASK_DONE
        assert session.world.get(("Checkout", "placed")) == Constant.boolean(True)


class TestBranchAndDone:
    def test_unavailable_branch_completes_without_critical(self, make_session, restaurant_schema):
        session = make_session()
        trace = trace_fixture("restaurant", "traces", "unavailable_branch.jsonl", schema=restaurant_schema)
        kinds = [session.submit_action(e).kind for e in trace.events]
        assert kinds == [VerdictKind.ALLOW, VerdictKind.ALLOW, VerdictKind.TASK_DONE]
        assert session.achieved_objectives == set()

    def test_done_is_monotone(self, make_session, restaurant_schema):
        session = make_session()
        trace = trace_fixture("restaurant", "traces", "unavailable_branch.jsonl", schema=restaurant_schema)
        achieved_sizes = []
        for e in trace.events:
            session.submit_action(e)
            achieved_sizes.append((len(session.achieved_objectives), session.done))
        assert achieved_sizes == sorted(achieved_sizes)


class TestProgressReport:
    def test_fresh_session_all_indeterminate(self, make_session):
        session = make_session()
        for rule in session.progress_report():
            assert all(s is PredicateStatus.INDETERMINATE for s in rule.statuses)

    def test_after_first_step(self, make_session):
        session = make_session()
        session.submit_action(event("a1", name_update("R")))
        report = session.progress_report()
        assert report[0].statuses[0] is PredicateStatus.SATISFIED
        assert report[0].statuses[1] is PredicateStatus.INDETERMINATE

    def test_partially_observed_predicate_is_unsatisfied(self, make_session):
        session = make_session()
        session.submit_action(event("a1", StateUpdate("ReserveInfo", {"date": Constant.today()})))
        session.submit_action(
            event("a2", StateUpdate("ReserveInfo", {"available": Constant.boolean(False)}), phase="post")
        )
        report = session.progress_report()
        # R1's ReserveInfo: available=true is false -> unsatisfied (not indeterminate)
        assert report[0].statuses[1] is PredicateStatus.UNSATISFIED

    def test_report_equals_recomputation_from_scratch(self, make_session, restaurant_schema):
        events = [
            event("a1", name_update("R")),
            event("a2", StateUpdate("ReserveInfo", {"date": Constant.today()})),
        ]
        live = make_session()
        for e in events:
            live.submit_action(e)
        fresh = make_session()
        for e in events:
            fresh.submit_action(e)
        assert live.progress_report() == fresh.progress_report()


class TestRandomizedInvariants:
    SCHEMA = schema_from_dict(
        {
            "app_id": "fuzz",
            "states": [
                {"name": "Cart", "description": "", "variables": [{"item": "Text"}, {"quantity": "Number"}]},
                {"name": "Checkout", "description": "", "variables": [{"placed": "Boolean"}]},
                {"name": "Telemetry", "description": "", "variables": [{"screen": "Text"}]},
            ],
        }
    )
    SPEC = parse_specification(
        'Cart(item = "apples", quantity >= 3) -> Filled\n'
        "Filled & Checkout(placed = true) -> Done"
    )

    def random_event(self, rng, index):
        if rng.random() < 0.15:
            return event(f"e{index}", critical=rng.choice(["Filled", "Done"]))
        updates = []
        for _ in range(rng.randint(1, 2)):
            state = rng.choice(["Cart", "Checkout", "Telemetry"])
            if state == "Cart":
                updates.append(
                    update("Cart", quantity=rng.randint(0, 5), item=Constant.text(rng.choice(["apples", "pears"])))
                )
            elif state == "Checkout":
                updates.append(update("Checkout", placed=rng.choice([True, False])))
            else:
                updates.append(StateUpdate("Telemetry", {"screen": Constant.text(rng.choice("abc"))}))
        return event(f"e{index}", *updates)

    def drive(self, events):
        session = Session(self.SPEC, self.SCHEMA, CLOCK)
        stream = []
        for e in events:
            if session.done:
                break
            before = dict(session.world)
            achieved_before = set(session.achieved_objectives)
            verdict = session.submit_action(e)
            if verdict.kind in (VerdictKind.SOFT_BLOCK, VerdictKind.HARD_BLOCK):
                assert dict(session.world) == before
            if verdict.kind is VerdictKind.HARD_BLOCK:
                assert session.achieved_objectives == achieved_before
            assert achieved_before <= session.achieved_objectives
            stream.append(json.dumps(verdict.to_json_dict(), sort_keys=True))
        return stream

    def test_thousand_random_sessions_hold_invariants(self):
        import random as rng_mod

        for seed in range(100):
            rng = rng_mod.Random(seed)
            events = [self.random_event(rng, i) for i in range(30)]
            first = self.drive(events)
            second = self.drive(events)
            assert first == second, f"nondeterminism at seed {seed}"


class TestFingerprint:
    def test_action_id_is_excluded(self):
        a = event("id1", name_update("S"))
        b = event("id2", name_update("S"))
        assert event_fingerprint(a) == event_fingerprint(b)

    def test_content_changes_fingerprint(self):
        base = event("x", name_update("S"))
        assert event_fingerprint(base) != event_fingerprint(event("x", name_update("R")))
        assert event_fingerprint(base) != event_fingerprint(event("x", name_update("S"), phase="post"))
        assert event_fingerprint(base) != event_fingerprint(
            event("x", name_update("S"), critical="Reserve")
        )

    def test_update_order_does_not_matter(self):
        one = event("x", update("Cart", quantity=1), update("Checkout", placed=True))
        two = event("x", update("Checkout", placed=True), update("Cart", quantity=1))
        assert event_fingerprint(one) == event_fingerprint(two)

    def test_values_count_by_literal_spelling(self):
        one = event("x", update("Cart", quantity=Decimal("1")))
        one_point_zero = event("x", update("Cart", quantity=Decimal("1.0")))
        assert event_fingerprint(one) != event_fingerprint(one_point_zero)

    def test_resubmission_must_repeat_the_literal(self, groceries_schema, apples_spec):
        session = Session(apples_spec, groceries_schema, CLOCK)
        assert session.submit_action(event("a", update("Cart", quantity=Decimal("1.0")))).kind is VerdictKind.SOFT_BLOCK
        assert session.submit_action(event("b", update("Cart", quantity=Decimal("1")))).kind is VerdictKind.SOFT_BLOCK

        session = Session(apples_spec, groceries_schema, CLOCK)
        assert session.submit_action(event("a", update("Cart", quantity=Decimal("1.0")))).kind is VerdictKind.SOFT_BLOCK
        assert session.submit_action(event("b", update("Cart", quantity=Decimal("1.0")))).kind is VerdictKind.ALLOW
        assert session.world[("Cart", "quantity")] == Constant.number("1.0")
