"""Tiered while-language over binary words with oracle calls.

Programs assign each variable a tier; the type system only admits data
flow from higher tiers to lower ones, which bounds every typable run
polynomially and caps how often oracle queries can grow.  The package
bundles the parser, a step-counting interpreter, the tier checker and its
inference (least tiers by longest paths, with a 2-SAT export), runtime
analyzers, and an example corpus.
"""

from .analysis import (
    NIReport,
    SweepReport,
    count_lookahead_revisions,
    noninterference_test,
    sweep,
    unary_inputs,
)
from .inference import (
    Encoding,
    InferenceResult,
    encode,
    infer,
    least_tiers,
    to_dimacs,
    typable,
)
from .operators import (
    Neutral,
    OperatorSpec,
    Positive,
    Registry,
    builtin_registry,
    validate_classification,
)
from .semantics import (
    FuelExhausted,
    Oracle,
    PaddedOracle,
    RunResult,
    Store,
    StuckGuard,
    TableOracle,
    run_program,
    truncate_pad,
)
from .syntax import (
    Assign,
    Cmd,
    Expr,
    If,
    OpApp,
    OracleCall,
    ParseError,
    Program,
    Seq,
    Skip,
    Var,
    While,
    parse,
    pretty,
    program_size,
)
from .tiers import (
    AuditReport,
    Derivation,
    TypedTriple,
    audit_derivation,
    check,
    verify_derivation,
)

__version__ = "0.1.0"

__all__ = [
    "Assign",
    "AuditReport",
    "Cmd",
    "Derivation",
    "Encoding",
    "Expr",
    "FuelExhausted",
    "If",
    "InferenceResult",
    "NIReport",
    "Neutral",
    "OpApp",
    "OperatorSpec",
    "Oracle",
    "OracleCall",
    "PaddedOracle",
    "ParseError",
    "Positive",
    "Program",
    "Registry",
    "RunResult",
    "Seq",
    "Skip",
    "Store",
    "StuckGuard",
    "SweepReport",
    "TableOracle",
    "TypedTriple",
    "Var",
    "While",
    "audit_derivation",
    "builtin_registry",
    "check",
    "count_lookahead_revisions",
    "encode",
    "infer",
    "least_tiers",
    "noninterference_test",
    "parse",
    "pretty",
    "program_size",
    "run_program",
    "sweep",
    "to_dimacs",
    "truncate_pad",
    "typable",
    "unary_inputs",
    "validate_classification",
    "verify_derivation",
]
