"""Unambiguous discrimination of roots-of-unity product-state families.

The package builds families of N product states (N prime) whose projectors
resolve the identity up to the scale D/N, constructs the reciprocal states
that make unambiguous discrimination possible, assembles and analyzes the
weighted discrimination measurements (the symmetric weights D/N are optimal
with failure probability exactly 1/2), and certifies via extreme-ray counts
that the optimal measurement, although separable, cannot be realized by any
finite-round protocol of local operations and classical communication.
"""

from .numerics import (
    ConvergenceError,
    InvariantError,
    hermitize,
    kron_all,
    nnls,
    partial_trace,
    proj,
    vec_herm,
    von_neumann_entropy,
)
from .instance import (
    DualBasisOmit,
    Instance,
    ReciprocalSet,
    ascending_factorizations,
    check_linear_independence,
    completeness_residual,
    dual_basis_omit,
    instance_from_dict,
    instance_to_dict,
    is_prime,
    make_instance,
    pairwise_overlaps,
    prime_factors,
    reciprocal_set,
    shift_unitary,
)
from .usd import (
    NotPSDError,
    OracleResult,
    UsdReport,
    WeightedMeasurement,
    build_measurement,
    failure_probability,
    family_product_ops,
    optimal_measurement,
    oracle_optimize,
    verify_pairwise_bound,
)
from .cone import (
    ConeReport,
    LocalOperatorSet,
    PartyConeStat,
    RayGroups,
    certify,
    count_extreme,
    distinct_rays,
)
from .simulator import (
    MulticopyMeasurement,
    SimConfig,
    SimReport,
    classify_tuple,
    complement_decomposition,
    multicopy_measurement,
    run_discrimination,
    run_multicopy_discrimination,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "InvariantError",
    "NotPSDError",
    "Instance",
    "ReciprocalSet",
    "DualBasisOmit",
    "WeightedMeasurement",
    "UsdReport",
    "OracleResult",
    "LocalOperatorSet",
    "RayGroups",
    "PartyConeStat",
    "ConeReport",
    "SimConfig",
    "SimReport",
    "MulticopyMeasurement",
    "kron_all",
    "proj",
    "hermitize",
    "partial_trace",
    "vec_herm",
    "nnls",
    "von_neumann_entropy",
    "is_prime",
    "prime_factors",
    "ascending_factorizations",
    "make_instance",
    "completeness_residual",
    "shift_unitary",
    "check_linear_independence",
    "pairwise_overlaps",
    "reciprocal_set",
    "dual_basis_omit",
    "instance_to_dict",
    "instance_from_dict",
    "build_measurement",
    "optimal_measurement",
    "failure_probability",
    "verify_pairwise_bound",
    "oracle_optimize",
    "family_product_ops",
    "distinct_rays",
    "count_extreme",
    "certify",
    "classify_tuple",
    "run_discrimination",
    "multicopy_measurement",
    "run_multicopy_discrimination",
    "complement_decomposition",
]
