"""Local-unitary invariants and the geometric measure of entanglement for
few-qubit pure states: exact Bloch-vector and correlation-matrix geometry,
a multi-start rank-1 overlap solver, closed-form solutions for the
quadrilateral and zero-Bloch canonical families, and verification tooling.
"""

from .closedform import (
    BranchReport,
    BranchSolution,
    CampaignReport,
    InfeasibleQuadrilateralError,
    MiddleBranch,
    QuadrilateralParams,
    WnReport,
    dicke4_state,
    ghz_overlap,
    ghz_theta_state,
    quadrilateral_area,
    quadrilateral_nearest,
    quadrilateral_overlap,
    quadrilateral_r_coefficients,
    random_feasible_quadrilateral,
    run_theorem_campaign,
    svd_branch_solutions,
    wn_overlap,
    wn_state,
)
from .invariants import (
    InvariantConsistencyError,
    InvariantSet,
    bloch_length,
    bloch_vector,
    canonical_bloch_vectors,
    canonical_correlation_matrix,
    correlation_matrix,
    invariant_set,
    sextic_t_bloch,
    sextic_t_trace,
    three_tangle,
    three_tangle_canonical,
)
from .overlap import (
    OverlapResult,
    SolverConfig,
    bloch_to_spinor,
    geometric_measure,
    nearest_product_state,
    quarter_form,
    spinor_to_bloch,
    stationarity_residual,
)
from .states import (
    CanonicalizationError,
    CanonicalParams,
    LocalUnitary,
    ProductState,
    PureState,
    StateFormatError,
    ZeroBlochFamily,
    apply_local_unitary,
    basis_state,
    canonical_to_state,
    canonicalize,
    ghz_state,
    haar_random_state,
    load_state,
    make_state,
    overlap_with_product,
    partial_trace_pair,
    partial_trace_single,
    permute_qubits,
    sample_zero_bloch_manifold,
    save_state,
    state_from_dict,
    state_to_dict,
    w_state,
)

__version__ = "0.1.0"
