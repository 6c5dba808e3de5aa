"""Dunkl operator calculus on the real line.

Kernel, difference-differential operator, intertwiners, translation and
convolution, the discrete weighted transform with Plancherel and multiplier
operators, Sonine transforms between two orders, fractional powers of the
deformed Laplacian, and Lizorkin-witness inversion pipelines -- plus a
verification CLI that machine-checks the identities tying them together.
"""

from .special import (
    OrderParam,
    a_const,
    a_sonine,
    as_order,
    b_coeff,
    bessel_mod_array,
    c_const,
    log_b_coeff,
)
from .quadrature import (
    PairingResult,
    QuadRule,
    homogeneous_pairing,
    integrate_semi_infinite,
    jacobi_rule,
    radial_rule,
    theta_rule,
    weyl_integral,
)
from .functions import (
    GridFunction,
    KernelFunction,
    PolyFunction,
    PolyGaussian,
    SmoothFunction,
    WrappedFunction,
    as_smooth,
    gaussian,
    monomial_gaussian,
)
from .core import (
    convolution,
    dual_intertwiner_v,
    dual_intertwiner_v_grid,
    dunkl_kernel,
    dunkl_operator,
    intertwiner_v,
    intertwiner_v_inverse,
    translation,
)
from .sonine import (
    SonineImage,
    SoninePair,
    dual_sonine_apply,
    dual_sonine_grid,
    intertwining_check,
    sonine_apply,
    sonine_grid,
    sonine_via_intertwiners,
)
from .transform import (
    MultiplierSpec,
    PlanSelfTestError,
    SpectralFunction,
    TransformPlan,
    apply_multiplier_fn,
    build_plan,
    forward,
    forward_at,
    forward_fn,
    inverse,
    inverse_at,
    plancherel_sides,
)
from .fractional import (
    frac_power_kernel,
    pairing_symbol_constant,
    power_weight_identity,
)
from .lizorkin import (
    INVERSION_ORDERS,
    LizorkinWitness,
    inversion_check,
    k_operator,
    make_witness,
    multiplier_commutation_check,
    plancherel_dual_check,
    witness_plan,
    witness_profile,
)
from .report import IdentityReport

__version__ = "0.1.0"
