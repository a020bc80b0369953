"""Perturbed Halton-Kronecker hybrid sequences: exact generation, exact
star discrepancy, lacunary trigonometric products, and the transfer-operator
brackets for the metric discrepancy exponents."""

from .numtheory import (
    DEFAULT_WIDTH,
    SpecialAlpha,
    UnitFraction,
    make_unit_fraction,
    rational_bad,
    shallit_beta,
    theorem_alpha,
    user_alpha,
)
from .sequences import (
    PerturbSpec,
    PointSet2,
    digital_point,
    generate_point_set,
    hybrid_point,
    mk_array,
    mk_sequence,
    weighted_digit_sum,
)
from .discrepancy import (
    BoxSide,
    DiscrepancyResult,
    GrowthRecord,
    brute_force_discrepancy_2d,
    brute_force_discrepancy_points,
    growth_scan,
    star_discrepancy_1d,
    star_discrepancy_2d,
)
from .trigprod import (
    GelfondCertificate,
    SharpnessResult,
    a_exponent,
    f_iterate,
    g_at_xi,
    g_value,
    g_value_product,
    gelfond_certify,
    log_pi_product,
    product_upper_bound_log,
    sharpness_identity,
    xi_fixed_point,
)
from .metric import (
    IntegralPi,
    LambdaBracket,
    PhiGrid,
    StructuralReport,
    integral_pi,
    lambda_bracket,
    mu,
    phi_level,
    phi_levels,
    structural_checks,
)
from .expsum import (
    BoundParams,
    ExpSumResult,
    UpperBoundTerms,
    TwoAdditiveCheck,
    exp_sum_mk,
    exp_sum_perturbed,
    upper_bound_rhs,
    product_lower_bound,
    two_additive_bound_check,
)

__version__ = "0.1.0"
