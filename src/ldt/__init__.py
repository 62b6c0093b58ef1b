"""Zero-error point location in hyperplane arrangements.

A hidden point is examined only through sign queries: the sign of one
hyperplane's inner product, or the sign of the difference of two. The
solver recovers the full sign pattern with far fewer queries than
labeling everything, and the decision problems built on top (k-SUM,
subset sum, sumset sorting, linear degeneracy testing, zero triangles)
read their answers off that pattern.
"""

from .geometry import (
    Family,
    Rational,
    Sign,
    SignVector,
    Vector,
    sign_of,
)
from .batch import ChainCell, cell_from_sample, infer_set
from .inference import (
    InconsistentSampleError,
    InferenceOutcome,
    SortedSample,
    build_sorted_sample,
)
from .lp import HomogeneousSystem, RationalCell, feasible, infer_sign, interior_witness
from .oracle import HiddenPointOracle, QueryLedger, StrictModeViolation
from .problems import (
    Encoding,
    InconsistentPatternError,
    InstanceFormatError,
    SizeCapError,
    encode_ksum,
    encode_kldt,
    encode_sort_sumset,
    encode_subset_sum,
    encode_zero_triangles,
    extract_answer,
)
from .prng import SplitMix64
from .solver import SolveConfig, SolveReport, SolverStalledError, solve

__all__ = [
    "ChainCell",
    "Encoding",
    "Family",
    "HiddenPointOracle",
    "HomogeneousSystem",
    "InconsistentPatternError",
    "InconsistentSampleError",
    "InferenceOutcome",
    "InstanceFormatError",
    "QueryLedger",
    "Rational",
    "RationalCell",
    "Sign",
    "SignVector",
    "SizeCapError",
    "SolveConfig",
    "SolveReport",
    "SolverStalledError",
    "SortedSample",
    "SplitMix64",
    "StrictModeViolation",
    "Vector",
    "build_sorted_sample",
    "cell_from_sample",
    "encode_ksum",
    "encode_kldt",
    "encode_sort_sumset",
    "encode_subset_sum",
    "encode_zero_triangles",
    "extract_answer",
    "feasible",
    "infer_set",
    "infer_sign",
    "interior_witness",
    "sign_of",
    "solve",
]

__version__ = "0.1.0"
