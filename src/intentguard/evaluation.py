"""Dataset evaluation: replay labeled cases and score the verifier.

A case directory holds one JSON manifest per case::

    {
      "instruction": "Reserve restaurant R before 7 PM ...",
      "schema": "../restaurant/schema.json",
      "trace": "../restaurant/traces/happy_path.jsonl",
      "expected": "pass",
      "spec": "../restaurant/reservation.vsa",      // optional: skip encoding
      "fixture": "mock/encode_happy.json"           // optional: mock script
    }

Paths are relative to the manifest.  Classification convention (positive =
task verified as completed): expected pass and completed is a true positive,
expected pass but blocked a false positive, expected fail and blocked a true
negative, expected fail but completed a false negative.  Because "flagging an
error" is the opposite polarity, the report also carries precision/recall with
blocked-on-a-wrong-case treated as the positive class, so both readings are
explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ._files import failure_reason, parse_json, read_text
from .backend import Backend, MockBackend
from .dsl import Specification, load_specification
from .encoder import EncodeConfig, encode, majority_verify
from .memory import PredicateMemory
from .schema import StateSchema, load_schema
from .trace import Trace, load_trace, replay


@dataclass(frozen=True)
class EvalCase:
    name: str
    instruction: str
    schema_path: Path
    trace_path: Path
    expected: str  # pass | fail
    spec_path: Path | None = None
    fixture_path: Path | None = None


@dataclass
class CaseResult:
    name: str
    expected: str
    passed: bool | None = None
    classification: str | None = None  # TP | FP | TN | FN
    error: str | None = None


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    cases: list[CaseResult] = field(default_factory=list)
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    errors: int = 0

    def classify(self, expected: str, passed: bool) -> str:
        if expected == "pass":
            label = "TP" if passed else "FP"
        else:
            label = "FN" if passed else "TN"
        setattr(self, label.lower(), getattr(self, label.lower()) + 1)
        return label

    def metrics(self) -> Metrics:
        """Scores with "task verified as completed" as the positive class."""
        return _metrics(self.tp, self.fp, self.tn, self.fn)

    def flagged_metrics(self) -> Metrics:
        """Scores with "flagged as error" (blocked) as the positive class:
        a correctly blocked wrong case counts as the hit."""
        return _metrics(self.tn, self.fp, self.tp, self.fn)

    def to_json_dict(self) -> dict:
        completed, flagged = self.metrics(), self.flagged_metrics()
        as_dict = lambda m: {"accuracy": m.accuracy, "precision": m.precision, "recall": m.recall, "f1": m.f1}
        return {
            "counts": {"TP": self.tp, "FP": self.fp, "TN": self.tn, "FN": self.fn, "errors": self.errors},
            "positive_is_task_completed": as_dict(completed),
            "positive_is_flagged_error": as_dict(flagged),
            "cases": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "passed": c.passed,
                    "classification": c.classification,
                    "error": c.error,
                }
                for c in self.cases
            ],
        }


def _metrics(tp: int, fp: int, tn: int, fn: int) -> Metrics:
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def load_cases(cases_dir: str | Path) -> list[EvalCase]:
    cases: list[EvalCase] = []
    # listing, not globbing, so that a missing path or a file raises its own OSError
    for path in sorted(p for p in Path(cases_dir).iterdir() if p.name.endswith(".json")):
        try:
            data = parse_json(read_text(path))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ValueError(f"{path}: {failure_reason(exc)}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: case manifest must be a JSON object")
        expected = data.get("expected")
        if expected not in ("pass", "fail"):
            raise ValueError(f"{path}: expected must be 'pass' or 'fail'")
        for key in ("schema", "trace", "spec", "fixture", "instruction"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"{path}: '{key}' must be a string")
        resolve = lambda key: (path.parent / data[key]).resolve() if data.get(key) else None
        schema_path = resolve("schema")
        trace_path = resolve("trace")
        if schema_path is None or trace_path is None:
            raise ValueError(f"{path}: case needs 'schema' and 'trace' paths")
        cases.append(
            EvalCase(
                name=path.stem,
                instruction=data.get("instruction", ""),
                schema_path=schema_path,
                trace_path=trace_path,
                expected=expected,
                spec_path=resolve("spec"),
                fixture_path=resolve("fixture"),
            )
        )
    return cases


def _case_verdict(
    case: EvalCase,
    schema: StateSchema,
    trace: Trace,
    backend: Backend | None,
    config: EncodeConfig,
    memory: PredicateMemory | None,
) -> tuple[bool, Specification | None]:
    """Returns (passed, spec-that-drove-a-completed-replay-or-None)."""
    if case.spec_path is not None:
        spec = load_specification(case.spec_path)
        done = replay(spec, schema, trace).done
        return done, spec if done else None

    case_backend = backend
    if case.fixture_path is not None:
        case_backend = MockBackend.from_fixture(case.fixture_path)
    if case_backend is None:
        raise ValueError(f"case '{case.name}' has no spec and no backend to encode with")

    if config.majority_n > 1:
        # votes may stem from different specs, so none is singled out for memory
        final = majority_verify(case.instruction, schema, trace, case_backend, config, memory)
        return final.passed, None
    result = encode(case.instruction, schema, case_backend, config, memory)
    done = replay(result.spec, schema, trace).done
    return done, result.spec if done else None


def run_eval(
    cases: list[EvalCase],
    backend: Backend | None = None,
    config: EncodeConfig | None = None,
    memory: PredicateMemory | None = None,
) -> EvalReport:
    """Evaluate every case; per-case errors are recorded and the run continues.

    When ``memory`` is given it is also populated: a true positive, a case
    labelled ``pass`` whose replay completes, contributes its (instruction,
    spec) pair.  A case labelled ``fail`` that completes anyway is a spec that
    let the wrong trace through, which is exactly what memory must not teach.
    """
    config = config or EncodeConfig()
    report = EvalReport()
    for case in cases:
        result = CaseResult(name=case.name, expected=case.expected)
        report.cases.append(result)
        try:
            schema = load_schema(case.schema_path)
            trace = load_trace(case.trace_path, schema)
            passed, verified_spec = _case_verdict(case, schema, trace, backend, config, memory)
        except Exception as exc:  # per-case isolation: one broken case must not kill the run
            result.error = f"{type(exc).__name__}: {exc}"
            report.errors += 1
            continue
        result.passed = passed
        result.classification = report.classify(case.expected, passed)
        if memory is not None and verified_spec is not None and result.classification == "TP":
            memory.record_success(schema.app_id, case.instruction, verified_spec)
    return report


def format_report_table(report: EvalReport) -> str:
    completed = report.metrics()
    flagged = report.flagged_metrics()
    lines = [
        f"cases: {len(report.cases)}   errors: {report.errors}",
        f"counts: TP={report.tp} FP={report.fp} TN={report.tn} FN={report.fn}",
        "",
        f"{'positive class':<28}{'accuracy':>10}{'precision':>11}{'recall':>9}{'f1':>8}",
        f"{'task completed':<28}{completed.accuracy:>10.3f}{completed.precision:>11.3f}{completed.recall:>9.3f}{completed.f1:>8.3f}",
        f"{'flagged as error':<28}{flagged.accuracy:>10.3f}{flagged.precision:>11.3f}{flagged.recall:>9.3f}{flagged.f1:>8.3f}",
    ]
    return "\n".join(lines)
