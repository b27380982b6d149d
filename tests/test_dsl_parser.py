from __future__ import annotations

import random
from datetime import date, time
from decimal import Decimal

import pytest

from intentguard.dsl import (
    Constant,
    ConstKind,
    Constraint,
    ObjectiveRef,
    Operator,
    Rule,
    Specification,
    SpecSyntaxError,
    StatePredicate,
    parse_specification,
    render_specification,
)

import generators

RESERVATION = """
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 19:00, available = true) -> Reserve
Reserve & ReserveResult(success = true) -> Done
RestaurantInfo(name = "R") & ReserveInfo(date = Today, time < 19:00, available != true) -> Done
"""


class TestParse:
    def test_reservation_structure(self):
        spec = parse_specification(RESERVATION)
        assert [r.conclusion for r in spec.rules] == ["Reserve", "Done", "Done"]
        first = spec.rules[0]
        assert isinstance(first.predicates[0], StatePredicate)
        assert first.predicates[0].state_name == "RestaurantInfo"
        assert first.predicates[0].constraints == (
            Constraint("name", Operator.EQ, Constant.text("R")),
        )
        reserve_info = first.predicates[1]
        assert reserve_info.constraints[0].constant == Constant.today()
        assert reserve_info.constraints[1] == Constraint("time", Operator.LT, Constant.clock(time(19, 0)))
        assert reserve_info.constraints[2].constant == Constant.boolean(True)
        assert spec.rules[1].predicates[0] == ObjectiveRef("Reserve")

    def test_empty_input_is_a_syntax_error(self):
        with pytest.raises(SpecSyntaxError, match="no rules"):
            parse_specification("")

    def test_comment_only_input_is_a_syntax_error(self):
        with pytest.raises(SpecSyntaxError):
            parse_specification("# nothing here\n\n")

    def test_rule_positions_survive_comments_and_blanks(self):
        spec = parse_specification("# heading\n\nA(x = 1) -> Done\n\nB(y = 2) -> Done\n")
        assert [r.line for r in spec.rules] == [3, 5]

    def test_unicode_operator_aliases(self):
        spec = parse_specification('Info(name ≠ "R", size ≥ 2, level ≤ 3, tag ≃ "x") ∧ Go → Done')
        ops = [c.operator for c in spec.rules[0].predicates[0].constraints]
        assert ops == [Operator.NEQ, Operator.GE, Operator.LE, Operator.APPROX]
        assert spec.rules[0].predicates[1] == ObjectiveRef("Go")

    def test_set_operators_ascii_and_unicode(self):
        ascii_spec = parse_specification('S(x in ["a", "b"], y not in ["c"]) -> Done')
        uni_spec = parse_specification('S(x ⊆ ["a", "b"], y ⊄ ["c"]) -> Done')
        assert ascii_spec == uni_spec
        x, y = ascii_spec.rules[0].predicates[0].constraints
        assert x.operator is Operator.IN and x.constant == Constant.text_list(("a", "b"))
        assert y.operator is Operator.NOT_IN

    def test_string_escapes(self):
        spec = parse_specification(r'S(x = "say \"hi\" \\ there") -> Done')
        assert spec.rules[0].predicates[0].constraints[0].constant == Constant.text('say "hi" \\ there')

    def test_exact_decimals(self):
        spec = parse_specification("S(x = 19.50, y = -3) -> Done")
        constants = [c.constant for c in spec.rules[0].predicates[0].constraints]
        assert constants[0].value == Decimal("19.50")
        assert str(constants[0].value) == "19.50"
        assert constants[1].value == Decimal("-3")

    def test_date_and_time_literals(self):
        spec = parse_specification("S(d = 2025-03-14, t = 09:30, u = 9:30) -> Done")
        constants = [c.constant for c in spec.rules[0].predicates[0].constraints]
        assert constants[0] == Constant.calendar(date(2025, 3, 14))
        assert constants[1] == Constant.clock(time(9, 30))
        assert constants[2] == constants[1]

    def test_keyword_literals_are_case_insensitive(self):
        spec = parse_specification("S(a = TRUE, b = False, c = today) -> Done")
        constants = [c.constant for c in spec.rules[0].predicates[0].constraints]
        assert constants[0] == Constant.boolean(True)
        assert constants[1] == Constant.boolean(False)
        assert constants[2] == Constant.today()

    def test_bare_identifier_is_an_enum_variant(self):
        spec = parse_specification("S(status = Confirmed) -> Done")
        assert spec.rules[0].predicates[0].constraints[0].constant == Constant.enum("Confirmed")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("S(x = 1)", "unexpected end of line"),
            ("S(x = 1) ->", "unexpected end of line"),
            ("S() -> Done", "unexpected"),
            ('S(x = "unterminated) -> Done', "unterminated string"),
            ("S(x = 25:00) -> Done", "invalid time"),
            ("S(x = 2025-13-40) -> Done", "invalid date"),
            ("S(x 1) -> Done", "unexpected"),
            ("-> Done", "unexpected"),
            ("S(x = 1) @ T(y = 2) -> Done", "unexpected character"),
            ('S(x = "a\\', "column 9: unterminated escape"),
            ('S(x = "a\\q") -> Done', r"column 9: unsupported escape \\q"),
            ("S(x = 1.) -> Done", "column 7: malformed number"),
            ('S(x not ["a"]) -> Done', "column 5: 'not' is only valid as part of 'not in'"),
            ("\t  S(x = 1) @ -> Done", "column 10: unexpected character '@'"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(SpecSyntaxError, match=fragment):
            parse_specification(text)

    def test_non_decimal_digit_is_an_unexpected_character(self):
        with pytest.raises(SpecSyntaxError, match="unexpected character '²'") as exc_info:
            parse_specification("S(x = ²) -> Done")
        assert (exc_info.value.line, exc_info.value.column) == (1, 7)
        # still allowed inside an identifier, and decimal digits of any script count
        spec = parse_specification("S(x² = ٣) -> Done")
        assert spec.rules[0].predicates[0].constraints[0] == Constraint("x²", Operator.EQ, Constant.number(3))

    def test_error_carries_position_and_expected(self):
        with pytest.raises(SpecSyntaxError) as exc_info:
            parse_specification('Alpha(x = 1) Beta(y = 2) -> Done')
        err = exc_info.value
        assert err.line == 1
        assert err.column == 14
        assert any("->" in e or "&" in e for e in err.expected)


class TestRender:
    def test_reservation_canonical_text(self):
        rendered = render_specification(parse_specification(RESERVATION))
        assert 'RestaurantInfo(name = "R")' in rendered
        assert rendered.splitlines()[1] == "Reserve & ReserveResult(success = true) -> Done"

    def test_single_rule_renders_single_line(self):
        spec = Specification(
            rules=(Rule((StatePredicate("Cart", (Constraint("quantity", Operator.EQ, Constant.number(3)),)),), "Done"),)
        )
        assert render_specification(spec) == "Cart(quantity = 3) -> Done\n"

    def test_round_trip_of_reservation(self):
        spec = parse_specification(RESERVATION)
        assert parse_specification(render_specification(spec)) == spec

    def test_round_trip_ignores_layout_noise(self):
        noisy = '#c\n\n  S( x =  1 ,y="a" )   ->   Done  # trailing\n'
        tidy = "S(x = 1, y = \"a\") -> Done"
        assert parse_specification(noisy) == parse_specification(tidy)

    def test_render_is_idempotent_on_generated_specs(self):
        rng = random.Random(20250314)
        for _ in range(100):
            spec = generators.specification(rng)
            once = render_specification(spec)
            assert render_specification(parse_specification(once)) == once

    def test_round_trip_on_generated_specs(self):
        rng = random.Random(99)
        for _ in range(100):
            spec = generators.specification(rng)
            assert parse_specification(render_specification(spec)) == spec

    @pytest.mark.parametrize(
        "constant, operator, before",
        [
            (Constant.text("a\nb"), Operator.EQ, ()),
            (Constant.text_list(["a", "b\nc"]), Operator.IN, ()),
            (Constant.text("a\nb"), Operator.EQ, (ObjectiveRef("A"),)),
        ],
        ids=["text", "text-list", "after-objective"],
    )
    def test_a_line_break_in_a_text_constant_is_refused(self, constant, operator, before):
        # the language has no escape for a line break, so no line could read it back
        predicate = StatePredicate("S", (Constraint("y", Operator.EQ, Constant.text("ok")), Constraint("x", operator, constant)))
        spec = Specification((Rule(before + (predicate,), "Done"),))
        with pytest.raises(ValueError, match=r"^S\.x: a "):
            render_specification(spec)

    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule((StatePredicate("S\nT", (Constraint("x", Operator.EQ, Constant.number(1)),)),), "Done"),
             "state name 'S\\nT'"),
            (Rule((StatePredicate("S", (Constraint("x\ny", Operator.EQ, Constant.number(1)),)),), "Done"),
             "S: variable name 'x\\ny'"),
            (Rule((StatePredicate("S", (Constraint("x", Operator.EQ, Constant.enum("A\nB")),)),), "Done"),
             "S.x: an Enum constant"),
            (Rule((ObjectiveRef("A\nB"),), "Done"), "objective reference 'A\\nB'"),
            (Rule((StatePredicate("S", (Constraint("x", Operator.EQ, Constant.number(1)),)),), "Do\nne"),
             "conclusion 'Do\\nne'"),
            # the first piece that holds one is named
            (Rule((StatePredicate("S", (Constraint("x", Operator.EQ, Constant.text("a\nb")),)),), "Do\nne"),
             "S.x: a Text constant"),
        ],
        ids=["state-name", "variable", "enum", "objective-reference", "conclusion", "first-piece"],
    )
    def test_a_line_break_in_any_piece_is_refused(self, rule, message):
        with pytest.raises(ValueError) as info:
            render_specification(Specification((rule,)))
        assert str(info.value) == f"{message} holding a line break cannot be written as a spec line"

    def test_carriage_return_and_line_separator_round_trip(self):
        constraints = (
            Constraint("x", Operator.EQ, Constant.text("a\rb\u2028c")),
            Constraint("y", Operator.IN, Constant.text_list(["\r", "\u2028"])),
        )
        spec = Specification((Rule((StatePredicate("S", constraints),), "Done"),))
        assert parse_specification(render_specification(spec)) == spec
