"""Numerical laboratory for interpolation couples of weighted sequence spaces.

Concrete finite-dimensional couples, certified splitting functionals and
interpolation norms, Laurent representations on the annulus with exact
cancellation, operator sweeps with stability verdicts, and the lattice-side
order checks, all behind one batch CLI (``interpol-lab``).
"""

from .annulus import (
    AnnulusPoint,
    LaurentElement,
    PseudolatticeCouple,
    bspace_norm,
    cancel_divide,
    delta_constant,
    evaluate,
    j_norm,
    kernel_distance_probe,
    rotate,
    transport_representation,
)
from .brackets import NormBracket
from .errors import ArgumentError, PrecisionError, SingularOperatorError
from .functors import (
    FunctorFamily,
    FunctorSpec,
    QuadratureConfig,
    calderon_complex_space,
    delta_condition_check,
    gagliardo_norm,
    intersection_norm,
    real_norm,
    reiteration_check,
    sum_norm,
)
from .lattice import (
    calderon_product_norm,
    calderon_reiteration_check,
    cwikel_nilsson_check,
    order_iso_sweep,
    power_inequality_check,
)
from .operators import (
    CoupleOperator,
    OperatorNormResult,
    gamma_lower_bound,
    interpolated_operator_norm,
    interpolated_operator_norms,
    invert,
    inverse_norm,
    is_order_isomorphism,
    is_positive,
    operator_norm,
    resolvent_profile,
    spectrum,
)
from .spaces import (
    BanachCouple,
    KEvaluation,
    WeightedSpace,
    k_closed_form_l1,
    k_closed_form_linf,
    k_functional,
    space_norm,
)
from .stability import (
    AnalyticSolverConfig,
    StabilityBound,
    SweepReport,
    check_inverse_compatibility,
    complex_to_real_transfer,
    solve_analytic_equation,
    stability_radius,
    sweep,
)

__version__ = "0.1.0"
