"""Askey-Wilson polynomials with conjugate complex parameters.

q-series arithmetic, seven orthogonal polynomial families in two scalings,
their orthogonality densities, closed-form conditional q-Hermite moments,
and a quadrature-based verification suite for every identity the package
implements.  The ``qaw`` console script exposes evaluation, expansion, and
verification from the command line.
"""

from .qcore import (
    DomainError,
    PoleError,
    TruncationError,
    q_binomial,
    q_binomial_row,
    q_bracket,
    q_bracket_seq,
    q_factorial,
    q_pochhammer,
    q_pochhammer_seq,
    q_pochhammer_inf,
    s_n,
)
from .polyfam import (
    asc_P,
    asc_P_seq,
    asc_Q,
    asc_Q_seq,
    b_big,
    b_big_seq,
    b_small,
    b_small_seq,
    chebyshev_U,
    chebyshev_U_seq,
    hermite_h,
    hermite_h_seq,
    hermite_H,
    hermite_H_seq,
)
from .awpoly import (
    AWComplexParams,
    CondDensityParams,
    aw_A_free,
    aw_A_mixed,
    aw_A_sym,
    aw_A_sym_seq,
    aw_D,
    aw_D_free,
    aw_phi43_oracle,
    aw_prefactor,
    map_params,
)
from .densities import (
    DensityEval,
    cond_ratio_values,
    f_CN,
    f_N,
    fcn_ratio_bounds,
    phi_cond,
    phi_cond_via_ratio,
    support_half_width,
    w_factor,
)
from .moments import (
    alpha_coeff,
    alsalam_identity_residual,
    c_n_gaussian,
    c_n_main,
    c_n_seq,
    c_n_via_P,
    expansion_terms_needed,
    gamma_mk_partial,
    gamma_ratio_closed,
    phi_expansion_partial,
)
from .verify import (
    CheckReport,
    QuadratureEstimate,
    SuiteConfig,
    integrate_on_S,
    report_to_json,
    report_to_text,
    run_suite,
)

__version__ = "0.1.0"
