from __future__ import annotations

from datetime import time as dtime

import pytest

from intentguard.dsl import Constant, parse_specification
from intentguard.engine import Session, StateUpdate, ActionEvent
from intentguard.feedback import render_hard, render_roadmap_lines, render_soft, roadmap_sentence
from intentguard.schema import ConstKind, StateDef, StateSchema, VarType

from conftest import CLOCK


def submit(session, action_id, state, critical=None, **values):
    typed = {
        var: Constant.boolean(raw) if isinstance(raw, bool) else Constant.text(raw)
        for var, raw in values.items()
    }
    updates = (StateUpdate(state, typed),) if values else ()
    return session.submit_action(ActionEvent(action_id, "pre", updates, critical=critical))


class TestRoadmap:
    def test_after_search_matches_template(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        submit(session, "a1", "RestaurantInfo", name="R")
        lines = render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema)
        first = lines[0]
        assert first.startswith(
            "To perform Reserve, 1. RestaurantInfo that represents Information about the "
            "restaurant you want to reserve should have 'name' equal to \"R\"; "
            "2. ReserveInfo that represents reservation details should have "
            "'date' equal to \"Today\" and 'time' less than 19:00, and 'available' equal to True."
        )
        assert first.endswith("So far, you have achieved step 1.")

    def test_done_rule_with_objective_step(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        lines = render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema)
        assert lines[1] == (
            "To complete the task, 1. perform Reserve; 2. ReserveResult that represents "
            "reservation result should have 'success' equal to True."
        )

    def test_branch_rule_uses_not_equal_phrase(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        lines = render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema)
        assert "'available' not equal to True" in lines[2]
        assert lines[2].startswith("To complete the task,")

    @pytest.mark.parametrize("description, shown", [
        ("The form.", "The form"), (" The form... ", "The form"), (". The form", ". The form"), ("a . ", "a "),
        ("", "(no description)"), ("   ", "(no description)"),
        # periods and blanks alone are no description either
        (".", "(no description)"), ("...", "(no description)"), (" . . ", "(no description)"),
        ("\t.\n", "(no description)"),
    ])
    def test_state_description_in_roadmap_sentence(self, description, shown):
        schema = StateSchema("app", (StateDef("S", description, {"x": VarType(ConstKind.NUMBER)}),))
        rule = parse_specification("S(x = 1) -> Done").rules[0]
        assert roadmap_sentence(rule, schema) == (
            f"To complete the task, 1. S that represents {shown} should have 'x' equal to 1."
        )

    def test_fresh_session_has_no_achieved_clause(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        text = "\n".join(render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema))
        assert "So far" not in text
        assert "achieved" not in text

    def test_every_predicate_rendered_exactly_once_per_rule(
        self, make_session, reservation_spec, restaurant_schema
    ):
        session = make_session()
        lines = render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema)
        for line, rule in zip(lines, reservation_spec.rules):
            for k in range(1, len(rule.predicates) + 1):
                assert line.count(f"{k}. ") == 1
            assert f"{len(rule.predicates) + 1}. " not in line

    def test_multiple_achieved_steps(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        submit(session, "a1", "RestaurantInfo", name="R")
        session.submit_action(
            ActionEvent(
                "a2",
                "pre",
                (
                    StateUpdate(
                        "ReserveInfo",
                        {
                            "date": Constant.today(),
                            "time": Constant.clock(dtime(18, 0)),
                            "available": Constant.boolean(True),
                        },
                    ),
                ),
            )
        )
        lines = render_roadmap_lines(session.progress_report(), reservation_spec, restaurant_schema)
        assert lines[0].endswith("So far, you have achieved steps 1 and 2.")

    def test_rendering_is_deterministic(self, make_session, reservation_spec, restaurant_schema):
        session = make_session()
        submit(session, "a1", "RestaurantInfo", name="R")
        report = session.progress_report()
        assert "\n".join(render_roadmap_lines(report, reservation_spec, restaurant_schema)) == "\n".join(
            render_roadmap_lines(report, reservation_spec, restaurant_schema)
        )


class TestSoft:
    def test_names_desired_constraint(self, make_session):
        session = make_session()
        result = session.soft_check([StateUpdate("RestaurantInfo", {"name": Constant.text("S")})])
        text = render_soft(result.violations)
        assert "may be incorrect" in text
        assert "'name' equal to \"R\"" in text

    def test_orders_by_rule_index(self, make_session):
        session = make_session()
        result = session.soft_check([StateUpdate("RestaurantInfo", {"name": Constant.text("S")})])
        text = render_soft(result.violations)
        assert text.index("(rule 1)") < text.index("(rule 3)")

    def test_single_violation_has_no_separator(self, groceries_schema, apples_spec):
        session = Session(apples_spec, groceries_schema, CLOCK)
        result = session.soft_check(
            [StateUpdate("Checkout", {"placed": Constant.boolean(False)})]
        )
        text = render_soft(result.violations)
        assert "; " not in text.split("The desired state is: ")[1].rsplit(". If this", 1)[0]

    def test_empty_violations_rejected(self):
        with pytest.raises(ValueError):
            render_soft([])


class TestHard:
    def test_lists_unmet_constraints(self, make_session):
        session = make_session()
        submit(session, "a1", "RestaurantInfo", name="R")
        report = session.hard_check("Reserve")
        text = render_hard(report)
        assert "blocked" in text
        for fragment in ("'date' equal to \"Today\"", "'time' less than 19:00", "'available' equal to True"):
            assert fragment in text

    def test_unmet_objective_reference_renders_as_perform_step(self, make_session):
        session = make_session()
        report = session.hard_check("Done")
        text = render_hard(report)
        assert "1. perform Reserve" in text

    def test_all_but_one_satisfied_lists_exactly_one_item(self, make_session):
        session = make_session()
        submit(session, "a1", "RestaurantInfo", name="R")
        session.submit_action(
            ActionEvent(
                "a2",
                "pre",
                (
                    StateUpdate(
                        "ReserveInfo",
                        {
                            "date": Constant.today(),
                            "time": Constant.clock(dtime(20, 0)),
                            "available": Constant.boolean(True),
                        },
                    ),
                ),
            )
        )
        # repeat-permitted resubmission applies the wrong time
        session.submit_action(
            ActionEvent(
                "a3",
                "pre",
                (
                    StateUpdate(
                        "ReserveInfo",
                        {
                            "date": Constant.today(),
                            "time": Constant.clock(dtime(20, 0)),
                            "available": Constant.boolean(True),
                        },
                    ),
                ),
            )
        )
        report = session.hard_check("Reserve")
        text = render_hard(report)
        assert "1. ReserveInfo should have 'time' less than 19:00" in text
        assert "2. " not in text
