"""Analysis of primitive constant-length substitutions: finiteness of the
generated subshift, one-to-one reductions, coincidence structure,
existence and abundance of Li-Yorke pairs, exact classification of point
pairs over the odometer factor, and a finite-horizon orbit simulator that
cross-checks every exact decision."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    InvariantError,
    ParseError,
    PreconditionError,
    SearchBudgetError,
    SeparationBoundError,
    StreamChainError,
    SubstitutionError,
)
from .substitution import (
    Substitution,
    complexity,
    in_language,
    incidence_matrix,
    is_primitive,
    iterate,
    language,
    pair_substitution,
    parse_substitution,
    sorted_language,
)
from .reduction import (
    ReductionResult,
    Simplification,
    biprolongeable_letters,
    decide_infinite,
    decide_infinite_trace,
    is_simplifiable,
    one_to_one_reduction,
)
from .odometer import OdometerDigits
from .streams import (
    RepresentedPoint,
    StreamEntry,
    enumerate_fiber,
    fiber_bound,
    point_from_literal,
    stream_from_entries,
    stream_from_fixed_point,
)
from .pairs import (
    Coincidence,
    CoincidenceClass,
    ConstructedPair,
    LyCertificate,
    PairClass,
    PairVerdict,
    build_scrambled_set,
    classify_pair,
    coincidence_class,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    enumerate_ly_orbits,
    has_ly_pairs,
    has_uncountable_ly,
    li_yorke_certificate,
    uncountable_certificate,
)
from .simulate import (
    EvidenceReport,
    empirical_class,
)
from .tower import (
    TowerReport,
    preimage_candidates,
    rho,
    tower_point_x,
    tower_point_y,
    tower_substitution,
    verify_scrambled_S,
)
from .report import REPORT_SCHEMA, AnalysisReport, analyze
