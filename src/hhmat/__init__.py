"""Checkers for two-sided mean-value (Hermite-Hadamard type) inequalities on
Hermitian matrices: majorization, converse-constant and operator-convex
refinement forms, with an exactly reproduced 2x2 counterexample."""

from .funcat import Interval, ScalarFunction, builtin, from_descriptor, validate_flags
from .harness import InstanceSpec, SuiteReport, run_suite
from .hhcheck import (
    AlphaResult,
    ChainReport,
    check_bourin_t2,
    check_norm_chain_corollary,
    check_refinement_chain,
    check_theorem_t1,
    check_theorem_t3,
    check_theorem_t4,
    check_trace_corollary,
    mond_pecaric_alpha,
    reproduce_counterexample,
)
from .matcore import (
    EigenSystem,
    HermitianMatrix,
    apply_function,
    eig,
    matrix_from_json,
    matrix_to_json,
    norm_spec,
    random_hermitian,
    ui_norm,
    ui_norms,
)
from .orders import (
    OrderVerdict,
    eigen_dominance,
    loewner_leq,
    unitary_witness,
    weak_majorization,
)
from .plmaps import (
    CongruenceSum,
    IdentityMap,
    PositiveLinearMap,
    unitality_status,
    vector_state,
)
from .segquad import QuadratureSpec, poly_segment_oracle, segment_integral

__version__ = "0.1.0"
