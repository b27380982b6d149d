from __future__ import annotations

import json
import random

import pytest

from intentguard.backend import MockBackend
from intentguard.encoder import EncodeConfig
from intentguard.evaluation import EvalReport, Metrics, load_cases, run_eval, _metrics
from intentguard.memory import PredicateMemory

import helpers
from conftest import FIXTURES


def brute_force_confusion(outcomes):
    """Independent oracle: literal per-case classification and textbook formulas."""
    tp = sum(1 for expected, passed in outcomes if expected == "pass" and passed)
    fp = sum(1 for expected, passed in outcomes if expected == "pass" and not passed)
    tn = sum(1 for expected, passed in outcomes if expected == "fail" and not passed)
    fn = sum(1 for expected, passed in outcomes if expected == "fail" and passed)
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (tp, fp, tn, fn), Metrics(accuracy, precision, recall, f1)


class TestCaseLoading:
    def test_shipped_cases(self):
        cases = load_cases(FIXTURES / "eval_cases")
        assert [c.name for c in cases] == [
            "01_reservation_happy",
            "02_reservation_branch",
            "03_reservation_wrong_time",
            "04_groceries_short_count",
        ]
        assert [c.expected for c in cases] == ["pass", "pass", "fail", "fail"]
        assert all(c.schema_path.exists() and c.trace_path.exists() for c in cases)

    def test_bad_expected_label(self, tmp_path):
        (tmp_path / "case.json").write_text(json.dumps({"expected": "maybe", "schema": "s", "trace": "t"}))
        with pytest.raises(ValueError, match="expected"):
            load_cases(tmp_path)

    @pytest.mark.parametrize("key", ["schema", "trace", "spec", "fixture", "instruction"])
    def test_path_and_text_fields_must_be_strings(self, tmp_path, key):
        case = {"expected": "pass", "schema": "s", "trace": "t", key: 5}
        (tmp_path / "case.json").write_text(json.dumps(case))
        with pytest.raises(ValueError, match=f"'{key}' must be a string"):
            load_cases(tmp_path)


class TestRunEval:
    def test_perfect_engine_on_shipped_cases(self):
        report = run_eval(load_cases(FIXTURES / "eval_cases"))
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 0, 2, 0)
        assert report.metrics().accuracy == 1.0
        assert report.metrics().f1 == 1.0
        assert report.errors == 0

    def test_injected_false_negative_changes_recall_per_formula(self, tmp_path):
        # expected fail, but the trace legitimately completes -> FN
        case = {
            "instruction": "x",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "spec": str(FIXTURES / "restaurant" / "reservation.vsa"),
            "expected": "fail",
        }
        (tmp_path / "fn_case.json").write_text(json.dumps(case))
        for src in (FIXTURES / "eval_cases").glob("*.json"):
            data = json.loads(src.read_text())
            for key in ("schema", "trace", "spec"):
                data[key] = str((FIXTURES / "eval_cases" / data[key]).resolve())
            (tmp_path / src.name).write_text(json.dumps(data))

        report = run_eval(load_cases(tmp_path))
        outcomes = [(c.expected, c.passed) for c in report.cases]
        (tp, fp, tn, fn), expected_metrics = brute_force_confusion(outcomes)
        assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn) == (2, 0, 2, 1)
        assert report.metrics() == expected_metrics

    def test_metrics_match_brute_force_on_random_outcomes(self):
        rng = random.Random(42)
        for _ in range(200):
            report = EvalReport()
            outcomes = []
            for _ in range(rng.randint(0, 12)):
                expected = rng.choice(["pass", "fail"])
                passed = rng.random() < 0.5
                outcomes.append((expected, passed))
                report.classify(expected, passed)
            counts, expected_metrics = brute_force_confusion(outcomes)
            assert (report.tp, report.fp, report.tn, report.fn) == counts
            assert report.metrics() == expected_metrics

    def test_flagged_orientation_swaps_the_positive_class(self):
        report = EvalReport()
        for expected, passed in [("pass", True), ("pass", False), ("fail", False), ("fail", False)]:
            report.classify(expected, passed)
        flagged = report.flagged_metrics()
        # hits are correctly blocked wrong cases: TN=2; misses FN=0; false alarms FP=1
        assert flagged.precision == pytest.approx(2 / 3)
        assert flagged.recall == 1.0
        # completed orientation: TP=1 of 2 predicted-pass, and no FN
        assert report.metrics().precision == pytest.approx(1 / 2)
        assert report.metrics().recall == 1.0

    def test_per_case_errors_do_not_stop_the_run(self, tmp_path):
        good = {
            "instruction": "x",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "spec": str(FIXTURES / "restaurant" / "reservation.vsa"),
            "expected": "pass",
        }
        broken = dict(good, schema=str(tmp_path / "missing_schema.json"))
        (tmp_path / "01_broken.json").write_text(json.dumps(broken))
        (tmp_path / "02_good.json").write_text(json.dumps(good))
        report = run_eval(load_cases(tmp_path))
        assert report.errors == 1
        assert report.cases[0].error is not None
        assert report.cases[1].classification == "TP"

    def test_encoding_path_with_mock_backend(self, tmp_path):
        case = {
            "instruction": "Reserve restaurant R before 7 PM.",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "expected": "pass",
        }
        (tmp_path / "case.json").write_text(json.dumps(case))
        backend = MockBackend(helpers.clean_run())
        report = run_eval(load_cases(tmp_path), backend=backend)
        assert report.tp == 1
        assert backend.complete_calls == 3

    def test_case_with_its_own_fixture_needs_no_backend(self, tmp_path):
        case = {
            "instruction": "Reserve restaurant R before 7 PM.",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "fixture": str(FIXTURES / "mock" / "encode_happy.json"),
            "expected": "pass",
        }
        (tmp_path / "01_scripted.json").write_text(json.dumps(case))
        no_turns = tmp_path / "no_turns.fixture"
        no_turns.write_text("{}")
        (tmp_path / "02_no_turns.json").write_text(json.dumps(dict(case, fixture=str(no_turns))))
        report = run_eval(load_cases(tmp_path), backend=None)
        assert [c.classification for c in report.cases] == ["TP", None]
        assert report.cases[1].error == "BackendError: a mock fixture needs a list of turns"

    def test_majority_path(self, tmp_path):
        case = {
            "instruction": "Reserve restaurant R before 7 PM.",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "expected": "pass",
        }
        (tmp_path / "case.json").write_text(json.dumps(case))
        backend = helpers.majority_backend({0}, runs=3)
        report = run_eval(load_cases(tmp_path), backend=backend, config=EncodeConfig(majority_n=3))
        assert report.tp == 1

    def test_memory_collects_verified_successes(self, tmp_path):
        memory = PredicateMemory()
        run_eval(load_cases(FIXTURES / "eval_cases"), memory=memory)
        entries = memory.entries.get("restaurant_demo", [])
        assert entries, "completed cases should be recorded"
        # the wrong/blocked cases must not be recorded
        assert all("20:00" not in e.spec_text for e in entries)

    def test_memory_skips_a_wrong_trace_the_spec_let_through(self, tmp_path):
        # without the time constraint the 20:00 reservation completes: a FN
        spec = tmp_path / "no_time.vsa"
        spec.write_text(
            'RestaurantInfo(name = "R") & ReserveInfo(date = Today, available = true) -> Reserve\n'
            "Reserve & ReserveResult(success = true) -> Done\n"
        )
        case = {
            "instruction": "Reserve restaurant R before 7 PM.",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "wrong_time.jsonl"),
            "spec": str(spec),
            "expected": "fail",
        }
        (tmp_path / "case.json").write_text(json.dumps(case))
        memory = PredicateMemory()
        report = run_eval(load_cases(tmp_path), memory=memory)
        assert [c.classification for c in report.cases] == ["FN"]
        assert memory.entries == {}

    def test_memory_collects_encoded_successes_too(self, tmp_path):
        case = {
            "instruction": "Reserve restaurant R before 7 PM.",
            "schema": str(FIXTURES / "restaurant" / "schema.json"),
            "trace": str(FIXTURES / "restaurant" / "traces" / "happy_path.jsonl"),
            "expected": "pass",
        }
        (tmp_path / "case.json").write_text(json.dumps(case))
        memory = PredicateMemory()
        report = run_eval(load_cases(tmp_path), backend=MockBackend(helpers.clean_run()), memory=memory)
        assert report.tp == 1
        entries = memory.entries.get("restaurant_demo", [])
        assert len(entries) == 1
        assert 'time < 19:00' in entries[0].spec_text
