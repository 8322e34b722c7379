"""Erasure codes with unequal disjoint local repair groups.

The package builds codes whose symbols split into classes, each class
protected by its own (r, delta) local MDS layer over a shared q-power
precode, evaluates the closed-form dimension and distance ceilings for such
codes, decodes erasures locally and globally, and certifies ceiling
tightness with brute-force oracles at desk scale.
"""

from .analysis import (
    CountOutOfRange,
    CoverTrace,
    DistanceCertificate,
    OrderedConditionRequired,
    RankDeficientGenerator,
    TooLarge,
    certify_distance_optimal,
    check_cover_trace,
    class_cover_trace,
    class_symbols,
    grank,
    min_distance_oracle,
    rank_deficiency_witness,
    tightness_budget_size,
    worst_case_pattern,
)
from .bounds import (
    BoundReport,
    DimensionInfeasible,
    PreconditionViolated,
    RankInfeasible,
    TooManyClasses,
    bounds_table,
    ceil_div,
    dimension_bound,
    distance_bound_measured,
    distance_bound_rdelta,
    distance_bound_udlrc,
    distance_bound_unequal_r,
    permuted_tightest_bound,
)
from .construction import (
    CodeInstance,
    DecodeResult,
    ErasurePattern,
    FieldTooSmall,
    LengthMismatch,
    LocalGroupLayout,
    LocalityClass,
    LocalitySpec,
    NotOnCode,
    SpecInvalid,
    Undecodable,
    build_code,
    build_layout,
    decode_erasures,
    encode,
    encode_via_pipeline,
    erank,
    erasure_decodable,
    mds_local_generator,
    validate_spec,
)
from .fields import ExtElem, ExtField, ModulusSearchTooLarge, PrimeField, find_irreducible, is_prime
from .gabidulin import LinearizedPoly, lin_eval, moore_matrix
from .linalg import Matrix, SingularMatrix, base_rank
from .specfile import (
    SpecFileError,
    dump_symbols,
    load_spec_file,
    load_symbols,
    spec_digest,
    spec_summary,
)

__version__ = "0.1.0"
