"""parachk: decide whether a polymorphic function specified by a type, a
sketch (map/foldr/none), and monomorphic input-output examples is
realizable, by translating the examples to container-morphism constraints.
A brute-force oracle (`oracle_decide`) decides small shape-complete sets,
and the shape-incomplete ones that a guess of small intermediate shapes
settles; an SMT solver decides the rest, and cross-checks the oracle in the
test suite.
"""

from .functors import (
    Atom,
    AtomV,
    BOOL,
    BoolS,
    BoolV,
    ConstBool,
    ConstInt,
    ConstUnit,
    ContainerError,
    Extension,
    FunctorExpr,
    ID,
    INT,
    Id,
    IdS,
    IntS,
    IntV,
    JustV,
    ListOf,
    ListS,
    ListV,
    MaybeOf,
    MaybeS,
    NothingV,
    PairV,
    ProdOf,
    ProdS,
    ShapeSchema,
    ShapeValue,
    UNIT,
    UnitS,
    UnitV,
    Value,
    flatten_shape,
    from_extension,
    shape_from_key,
    shape_of,
    show_shape,
    show_value,
    size_of,
    to_extension,
    typecheck,
)
from .problem import (
    AtomTable,
    IOExample,
    Problem,
    ProblemError,
    Signature,
    SketchKind,
    atom,
    build_problem,
    load_problem,
    parse_problem,
    parse_functor,
    problem_to_json,
    relabel_problem,
)
from .propagate import (
    CompletenessReport,
    ConstraintSet,
    Known,
    MorphismConstraint,
    PropagationUnrealizable,
    Unknown,
    propagate,
    propagate_foldr,
    propagate_map,
    shape_complete,
)
from .encode import SmtScript, encode
from .solver import (
    CheckReport,
    RawResult,
    SolverConfig,
    SolverError,
    check,
    extract_witness,
    interpret,
    run_solver,
    validate_witness,
)
from .oracle import (
    BoundExceeded,
    GroundInstance,
    ShapeConflict,
    StepBudget,
    ground,
    oracle_check,
    oracle_decide,
)
from .verdict import (
    Realizable,
    UnknownVerdict,
    Unrealizable,
    Verdict,
    WitnessSummary,
    validate_summary,
    verdict_name,
)
from .bench import BenchEntry, corpus, run_bench

__version__ = "0.1.0"
