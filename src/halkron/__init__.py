"""Perturbed Halton-Kronecker hybrid sequences: exact generation, exact
star discrepancy, lacunary trigonometric products, and the transfer-operator
brackets for the metric discrepancy exponents."""

import os

# One OpenBLAS thread unless the caller chose a count: set here, before any
# module imports numpy, because OpenBLAS starts its worker threads while numpy
# loads, and that start costs more than any BLAS call of halkron gains from it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .numtheory import (
    DEFAULT_WIDTH,
    UnitFraction,
    make_unit_fraction,
    rational_bad,
    shallit_beta,
    theorem_alpha,
)
from .sequences import (
    PerturbSpec,
    PointSet2,
    generate_point_set,
)
from .discrepancy import (
    BoxSide,
    DiscrepancyResult,
    GrowthRecord,
    growth_scan,
    star_discrepancy_2d,
)
from .trigprod import (
    GelfondCertificate,
    SharpnessResult,
    a_exponent,
    f_iterate,
    g_at_xi,
    gelfond_certify,
    log_pi_product,
    sharpness_identity,
)
from .metric import (
    IntegralPi,
    LambdaBracket,
    PhiGrid,
    StructuralReport,
    integral_pi,
    lambda_bracket,
    mu,
    phi_levels,
    structural_checks,
)
from .expsum import (
    BoundParams,
    ExpSumResult,
    UpperBoundTerms,
    TwoAdditiveCheck,
    exp_sum_perturbed,
    upper_bound_rhs,
    product_lower_bound,
    two_additive_bound_check,
)

__version__ = "0.1.0"
