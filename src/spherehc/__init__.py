"""Numerical verification of Poisson-semigroup hypercontractivity on the n-sphere.

The package evaluates every inequality, norm, constant, and limit behind the
result that the necessary condition e^{-t sqrt(n)} <= sqrt((p-1)/(q-1)) is
sufficient exactly in dimensions n <= 3, reproduces the concrete failure of
the explicit counterexample inequality at (n, d) = (13, 7), and scans the
(n, d, p, q) parameter space for the failure frontier.
"""

from .hypercheck import (
    ExponentPair,
    NecessityResult,
    NonnegativityError,
    RHS_BECKNER,
    RHS_SQRT_EIGENVALUE,
    ScanReport,
    ZonalPolynomial,
    beckner_constant,
    count1_check,
    count1_checks,
    counterexample_scan,
    eigenvalue_sqrt_laplacian,
    entropy_functional,
    h_function,
    heat_condition,
    hermite_bound_check,
    hermite_growth_rate,
    lemma_all,
    lemma_check,
    lemma_table,
    logsob_check,
    perturbative_necessity,
    poisson_condition_ii,
    poisson_semigroup_apply,
    random_zonal_polynomial,
    utol1_check,
)
from .norms import (
    NormValue,
    SphereParams,
    gaussian_lp_norm,
    norm_ratio_gaussian,
    norm_ratio_sphere,
    sphere_l2_norm_closed,
    sphere_lp_norm,
    zonal_lp_norm,
)
from .quadrature import (
    IntegralResult,
    integrate_piecewise,
    subordination_check,
)
from .specfun import (
    GegenbauerSpec,
    HermiteSpec,
    c_lambda,
    gegenbauer_eval,
    gegenbauer_eval_scaled,
    gegenbauer_roots,
    hermite_eval,
    hermite_roots,
    log_beta,
)
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict

__version__ = "0.1.0"
