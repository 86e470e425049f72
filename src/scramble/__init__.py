"""Observable-algebra scrambling toolkit.

Builds finite-dimensional operator algebras (commutants, centers, block
structure) and computes the geometric algebra anti-correlator (GAAC) of
unitary channels: closed-form special cases, upper bounds with saturation
certificates, Haar-typical values, and infinite-time averages under
Hamiltonian dynamics.
"""

__version__ = "0.1.0"

from .errors import (
    DecompositionError,
    DegeneracyError,
    DomainError,
    ScrambleError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)
from .operator_space import (
    ASSERT_TOL,
    MEMORY_BUDGET,
    RANK_TOL,
    RandomSeed,
    gaussian_variates,
    ginibre,
    haar_unitary,
    hs_inner,
    hs_norm,
    is_hermitian,
    is_projection,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    orthonormalize,
    permute_factors,
    swap_operator,
    vec,
)
from .algebra import (
    ALGEBRA_KINDS,
    AlgebraDescriptor,
    BlockStructure,
    OperatorAlgebra,
    algebra_closure,
    block_decomposition,
    build_algebra,
    commutant,
    commutant_algebra,
    project_onto,
    verification_residuals,
)
from .gaac import (
    CLOSED_FORM_CASES,
    ClosedFormCase,
    GaacReport,
    bipartite_swap,
    closed_form,
    gaac,
    saturation_residual,
    upper_bound,
)
from .haar import (
    HaarSummary,
    ScanRow,
    concentration_scan,
    haar_average_analytic,
    haar_average_mc,
)
from .dynamics import (
    FluctuationRow,
    HamiltonianModel,
    RMatrices,
    analyze_hamiltonian,
    chaoticity,
    default_horizon,
    dephased_state_purity,
    evolution,
    fluctuation_scan,
    grid_time_average,
    gue_hamiltonian,
    hamiltonian_from_json,
    nrc_upper_bound,
    r_matrices,
    scrambling_witness,
    time_average_exact,
    time_average_nrc,
)
