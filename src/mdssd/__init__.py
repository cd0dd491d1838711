"""MDS self-dual codes from (extended) generalized Reed-Solomon codes over
odd-characteristic finite fields: deterministic field arithmetic, five
construction families, independent verification, and a length census.
"""

from .census import CensusReport, census_report, new_lengths, prior_lengths
from .constructions import (
    MATERIALIZE_BUDGET,
    THEOREMS,
    ConstructionParams,
    ConstructionTrace,
    build,
    construct_from_params,
    iter_valid_params,
    validate,
)
from .errors import (
    HypothesisViolated,
    MdssdError,
    ParityInfeasible,
    SpotCheckFailed,
    SquareConditionViolated,
    TooLargeToMaterialize,
)
from .field import FieldCtx, make_field
from .grs import (
    CodeArtifact,
    EvalVector,
    ScalingVector,
    artifact_from_dict,
    artifact_from_json,
    artifact_record,
    artifact_to_dict,
    assemble_self_dual_grs,
    assemble_self_dual_xgrs,
    to_json,
)
from .verify import (
    VerificationReport,
    check_mds_minors,
    check_self_dual,
    min_distance,
    verify_artifact,
)

__version__ = "0.1.0"

__all__ = [
    "CensusReport", "census_report", "new_lengths", "prior_lengths",
    "MATERIALIZE_BUDGET", "THEOREMS", "ConstructionParams", "ConstructionTrace",
    "build", "construct_from_params",
    "iter_valid_params", "validate",
    "HypothesisViolated", "MdssdError", "ParityInfeasible",
    "SpotCheckFailed", "SquareConditionViolated", "TooLargeToMaterialize",
    "FieldCtx", "make_field",
    "CodeArtifact", "EvalVector", "ScalingVector", "artifact_from_dict",
    "artifact_from_json", "artifact_record", "artifact_to_dict",
    "assemble_self_dual_grs", "assemble_self_dual_xgrs",
    "to_json",
    "VerificationReport", "check_mds_minors", "check_self_dual",
    "min_distance", "verify_artifact",
]
