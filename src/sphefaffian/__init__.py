"""Induced spherical symplectic Ginibre ensemble toolkit.

Finite-N Pfaffian correlation kernels with two independent constructions,
the generalized Christoffel-Darboux identity as a computable residual,
the three universal scaling limits, a quaternion matrix-model sampler,
and linear-statistics fluctuation formulas.
"""

__version__ = "0.1.0"

from .errors import (
    BranchWarning,
    CoincidenceError,
    ConvergenceError,
    DimensionError,
    DomainError,
    DoubleRangeError,
    NumericalError,
    PairingError,
    PoleError,
    QuadratureError,
    SingularError,
)
from .params import (
    DropletGeometry,
    EnsembleParams,
    Origin,
    RegimeSpec,
    Strong,
    Weak,
    droplet,
    local_scale_delta,
    macroscopic_density,
    potential_q,
    weight_omega,
)
from .specfun import (
    erf_c,
    erfc_c,
    mittag_leffler,
    reg_inc_beta,
    reg_inc_gamma_p,
)
from .pfaffian import pfaffian
from .finitekernel import (
    SkewOPSystem,
    correlation_rk,
    g_hat,
    rescaled_kernel,
    rescaled_r1,
    skew_kernel_tilde,
    skew_kernel_via_sop,
    skew_op_system,
)
from .cdi import (
    CdiTerms,
    cdi_derivative,
    cdi_residual,
    cdi_rhs,
    cdi_rhs_beta_form,
    limiting_f,
    rescaled_cdi_terms,
)
from .limits import (
    LimitKernelSpec,
    f_profile,
    kappa,
    kappa_origin,
    kappa_strong,
    kappa_weak,
    limit_rk,
    ode_residual,
)
from .sampler import (
    QuaternionMatrix,
    SampleBatch,
    SpherePoint,
    coulomb_energy,
    empirical_radial_density,
    from_sphere,
    ginibre_quaternion,
    haar_symplectic_unitary,
    sample_ensemble,
    to_sphere,
    wishart_inv_sqrt,
)
from .linstat import (
    RadialStatistic,
    asymptotic_mean,
    asymptotic_variance,
    char_function,
    exact_mean,
    exact_variance,
    laplace_saddle,
    mc_linear_statistic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
