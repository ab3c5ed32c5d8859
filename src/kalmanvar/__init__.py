"""kalmanvar: exact computer algebra for nonlinear Kalman varieties.

Construction of Kalman matrices for eigenpoint loci, certified determinant
factorizations, enumerative degree formulas, Chow-class multidegrees, and
exact rational witness generation.
"""

from .polycore import (
    DivisionByZeroPolynomial,
    ExponentOverflow,
    NotDivisible,
    Polynomial,
    PolynomialParseError,
    Universe,
    UniverseMismatch,
    ZeroPolynomial,
    a_universe,
    parse_polynomial,
    root_multiplicity_at_zero,
    sylvester_resultant,
    t_universe,
    univariate_coeffs,
    univariate_discriminant,
    x_universe,
)
from .polymatrix import (
    DimensionMismatch,
    NonSquareMatrix,
    PolyMatrix,
    SingularMatrixError,
    parse_matrix,
    qmat_det,
    qmat_inv,
    qmat_mul,
    qmat_rank,
    qmat_solve,
    qmat_vec,
)
from .veronese import (
    InhomogeneousInput,
    PartitionType,
    basis_size,
    coeff_matrix,
    coeff_row,
    mon_vector,
    monomial_basis,
    polarize,
    polarize_value,
    sym_power,
    sym_power_scalar,
)
from .kalman import (
    MAX_DET_N,
    KalmanInstance,
    LineRestrictionZero,
    ProblemTooLarge,
    RankDeficientC,
    delta_at,
    delta_d_at,
    factor_order_along_line,
    factorization_audit,
    kalman_det,
    kalman_matrix,
    kalman_matrix_at,
    membership_necessary,
)
from .salmon import (
    TernaryQuadricTriple,
    conic_minor_quadrics,
    conic_triple,
    g1_factor,
    generic_conic,
    jacobian_poly,
    kalman_conic_equation,
    salmon_matrix,
    salmon_resultant,
)
from .enumerative import (
    DegreeReport,
    NonIntegralDegree,
    ctilde,
    ctilde_stirling_form,
    deg_kalman,
    deg_mu_kalman,
    degrees_table,
    degrees_table_csv,
    detA_multiplicity,
    discriminant_budget,
    falling_factorial,
    grassmannian_quadric_note,
    multinomial_budget_term,
    partition_count,
    partitions,
    sing_degrees,
    stirling2,
)
from .chow import (
    SetPartition,
    TruncatedClass,
    TruncationError,
    class_W,
    class_WsP,
    class_Wtilde,
    coeff_ctilde,
    deg_mu_from_chow,
    elementary_symmetric,
    fixture_E3,
    fixture_Wtilde3,
)
from .witness import (
    RETRY_BUDGET,
    EigenSpec,
    MuWitness,
    NoStrategy,
    RetryExhausted,
    SingularV,
    UnsupportedPartition,
    collision_eigenvalues,
    derive_seed,
    matrix_with_eigenvectors,
    mu_witness,
    random_invertible,
    rho_simple_eigenvalues,
    sample_on_hypersurface,
    special_locus_matrix,
)

__version__ = "0.1.0"
