"""intentguard: Horn-clause task specifications for agent guardrails.

Encode a natural-language instruction into a small rule program over
developer-declared application states, then deterministically verify a stream
of agent state-update events against it before actions take effect, emitting
structured roadmap/soft/hard feedback.
"""

from importlib import import_module as _import_module

from .backend import (
    Backend,
    BackendError,
    HttpBackend,
    MockBackend,
    ScriptExhausted,
)
from .dsl import (
    DONE,
    TODAY,
    Constant,
    ConstKind,
    Constraint,
    Diagnostic,
    DiagnosticCode,
    EvalContext,
    EvalTypeError,
    ObjectiveRef,
    Operator,
    Rule,
    Specification,
    SpecSyntaxError,
    StatePredicate,
    check_specification,
    evaluate_constraint,
    lexical_similarity,
    load_specification,
    parse_specification,
    render_specification,
)
from .engine import (
    ActionEvent,
    EngineError,
    HardCheckResult,
    InvalidSpecification,
    PredicateStatus,
    Session,
    SessionDone,
    SoftCheckResult,
    StateUpdate,
    TraceError,
    UnknownObjective,
    Verdict,
    VerdictKind,
    validate_event,
)
from .feedback import FeedbackBundle, render_hard, render_soft
from .schema import (
    SchemaError,
    SchemaIssue,
    StateDef,
    StateSchema,
    VarType,
    describe_states,
    load_schema,
    save_schema,
    schema_from_dict,
)
from .trace import Trace, TraceHeader, TraceParseError, load_trace, parse_trace, replay, write_trace

__version__ = "0.1.0"

#: Public names of the modules that only encoding and evaluation run, by
#: module.  Such a module is imported when one of its names is first read from
#: the package (PEP 562), so that ``verify``, which never encodes, does not pay
#: for importing it.  The name is then bound here, as an eager import would
#: have bound it, and later reads do not come back to ``__getattr__``.
_LAZY_MODULES = {
    "encoder": (
        "ConstraintRef", "DiffReport", "EncodeConfig", "EncodeFailed", "EncodeResult", "FinalVerdict",
        "MalformedVerdict", "SchemaMismatch", "TranscriptEntry", "decode_spec", "diff_specifications", "encode",
        "majority_encode", "majority_verify", "semantic_check",
    ),
    "evaluation": ("EvalCase", "EvalReport", "load_cases", "run_eval"),
    "memory": ("PredicateMemory", "ScoredPredicate", "used_predicates"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))
