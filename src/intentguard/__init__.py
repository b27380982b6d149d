"""intentguard: Horn-clause task specifications for agent guardrails.

Encode a natural-language instruction into a small rule program over
developer-declared application states, then deterministically verify a stream
of agent state-update events against it before actions take effect, emitting
structured roadmap/soft/hard feedback.
"""

from .backend import (
    Backend,
    BackendError,
    HttpBackend,
    MockBackend,
    ScriptExhausted,
    SimilarityScorer,
    lexical_similarity,
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
    event_fingerprint,
    validate_event,
)
from .encoder import (
    ConstraintRef,
    DiffReport,
    EncodeConfig,
    EncodeFailed,
    EncodeResult,
    FinalVerdict,
    MalformedVerdict,
    SchemaMismatch,
    TranscriptEntry,
    decode_spec,
    diff_specifications,
    encode,
    majority_encode,
    majority_verify,
    semantic_check,
)
from .evaluation import EvalCase, EvalReport, load_cases, run_eval
from .feedback import FeedbackBundle, render_hard, render_soft
from .memory import PredicateMemory, ScoredPredicate, used_predicates
from .schema import (
    SchemaError,
    SchemaIssue,
    StateDef,
    StateSchema,
    TypeKind,
    VarType,
    describe_states,
    load_schema,
    save_schema,
    schema_from_dict,
)
from .trace import Trace, TraceHeader, TraceParseError, load_trace, parse_trace, replay, write_trace

__version__ = "0.1.0"
