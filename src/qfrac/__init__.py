"""qfrac: q-series primitives, Askey-Wilson polynomial families, and the
two-parameter q-fractional integral operators K_{a,c} / T(a,b,r), together
with a machine-checked registry of every operator identity they satisfy.
"""

from .context import QContext
from .errors import (
    AnnulusExhausted,
    CaseInvalid,
    DivisionNearZero,
    DomainError,
    NonConvergent,
    ParamDomain,
    PoleOnContour,
    QFracError,
    SingularLowerParameter,
)
from .qcore import (
    bhs_terminating,
    euler_product,
    h_product,
    h_product_z,
    jtp_theta_logq_derivative_series,
    jtp_theta_series,
    qpoch_finite,
    qpoch_infinite,
    qpoch_real_index,
)
from .qfunctions import (
    AWParams,
    ThetaPoint,
    aw_norm_Mn,
    aw_polynomial,
    aw_weight,
    basis_phi_a,
    basis_phi_quarter,
    basis_rho,
    hermite_cq,
    hermite_cq_all,
    poisson_kernel,
    q_exponential,
    theta_grid,
    weight_wH,
    weight_wH_sin,
)
from .quadrature import QuadResult, integrate_theta
from .operators import (
    AnalyticFn,
    KParams,
    TParams,
    analytic_from_x,
    apply_Bq,
    apply_Dq,
    apply_J_series,
    apply_K,
    apply_K_eigen,
    apply_T,
    dq_inverse,
    eigen_k_basis,
    eigen_t_basis,
    generator_fd,
    left_inverse_apply,
)
from .identities import (
    IdentityCase,
    IdentityReport,
    Residual,
    bilinear_kernel_6,
    bilinear_kernel_7,
    default_cases,
    registry_ids,
    run_identity,
    run_suite,
)

__version__ = "0.1.0"
