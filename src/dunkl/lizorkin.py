"""Lizorkin-type witnesses and the Sonine inversion pipelines.

A witness is realized from a spectral profile that vanishes to all orders at
the origin (an analytic fact of exp(-flat/l^2), not a numerical one), so its
inverse transform has all weighted moments at numerical zero and every
fractional multiplier below is applied on safe ground.

The profile family is l^m exp(-l^2 - flat/l^2).  The flatness scale trades
spectral-origin suppression against spatial tail decay: the spatial tails
behave like exp(-c flat^(1/3) |x|^(2/3)), so larger ``flat`` concentrates
the witness and keeps the high weighted moments representable on desk-scale
grids.  The default flat=64 puts the witness at double-precision zero by
|x| ~ 40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .functions import GridFunction
from .sonine import SoninePair, dual_sonine_grid, sonine_grid
from .special import OrderParam, as_order, c_const
from .transform import (
    MultiplierSpec,
    SpectralFunction,
    TransformPlan,
    apply_multiplier_fn,
    build_plan,
    forward,
    inverse,
)

__all__ = [
    "DEFAULT_FLAT",
    "LizorkinWitness",
    "witness_profile",
    "make_witness",
    "witness_plan",
    "k_operator",
    "inversion_check",
    "INVERSION_ORDERS",
    "multiplier_commutation_check",
    "plancherel_dual_check",
]

DEFAULT_FLAT = 64.0

#: pipeline orders: reconstruction identities for the Sonine transform and
#: its dual, plus the two commuted variants.
INVERSION_ORDERS = ("s-k1-ts", "ts-k2-s", "k1-ts-s", "k2-s-ts")

_MASK_LEVEL = 1e-3
#: an inversion check compares every third masked point
_THIN = 3


def witness_profile(lam: np.ndarray, m: int, flat: float = DEFAULT_FLAT) -> np.ndarray:
    """Spectral profile l^m exp(-l^2 - flat/l^2), zero at l = 0, normalized
    to unit maximum."""
    if m not in (0, 1):
        raise ValueError("parity exponent m must be 0 or 1")
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    nz = lam != 0.0
    out[nz] = lam[nz] ** m * np.exp(-lam[nz] ** 2 - flat / lam[nz] ** 2)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


@dataclass
class LizorkinWitness:
    """Inverse transform of a flat spectral profile, with the synthesis
    object attached."""

    order: OrderParam
    m: int
    flat: float
    plan: TransformPlan = field(repr=False)
    spectrum: np.ndarray = field(repr=False)
    values: GridFunction = field(repr=False)
    fn: SpectralFunction = field(repr=False)
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def image(self, pair: SoninePair, plan: TransformPlan, u_max: float | None = None) -> np.ndarray:
        """S w on the x-nodes of ``plan``, or tS w truncated at ``u_max`` when
        that is given, built once per direction, pair, plan and radius and
        kept on the witness.  The plan enters the key through the parameters
        that fix its x-nodes."""
        key = (pair.a, pair.b, plan.alpha, plan.half_width, plan.x_nodes.size, u_max)
        if key not in self._images:
            if u_max is None:
                image = sonine_grid(pair, self.fn, plan.x_nodes)
            else:
                image = dual_sonine_grid(pair, self.fn, plan.x_nodes, u_max=u_max)
            image.flags.writeable = False  # every later caller gets this same array
            self._images[key] = image
        return self._images[key]


def make_witness(
    alpha: OrderParam | float,
    plan: TransformPlan,
    m: int = 0,
    scale: float = 1.0,
    flat: float = DEFAULT_FLAT,
) -> LizorkinWitness:
    """Realize a witness for the order of ``plan`` from the flat profile;
    ``alpha`` must be that order."""
    a = as_order(alpha).alpha
    if abs(a - plan.alpha) > 1e-12:
        raise ValueError(f"witness of order {a} asked of a plan of order {plan.alpha}")
    spectrum = scale * witness_profile(plan.lambda_nodes, m, flat)
    values = inverse(plan, spectrum)
    fn = SpectralFunction.from_spectrum(plan, spectrum)
    return LizorkinWitness(order=plan.order, m=m, flat=flat, plan=plan, spectrum=spectrum, values=values, fn=fn)


def witness_plan(alpha: OrderParam | float) -> TransformPlan:
    """Plan sized for witness pipelines: wide enough in x for the witness tails, which the pipelines
    truncate at y = half_width (tS at u = half_width^2, _u_max_for), with a lambda rule that resolves
    synthesis out to the synthesis proxy's radius 1.4 * half_width; its self-test holds 1e-9."""
    return build_plan(alpha, half_width=40.0, n_x=2 * 192, lambda_max=10.5, n_lambda=2 * 168, tol=1e-9)


def k_operator(pair: SoninePair, plan: TransformPlan, f, half: bool = False) -> SpectralFunction:
    """Scaled fractional power of the deformed Laplacian used by the
    inversion formulas, realized through the spectral multiplier on ``plan``:
    |lambda|^(2(beta-alpha)) scaled by c_beta/c_alpha, or with ``half`` its
    square root |lambda|^(beta-alpha) scaled by sqrt(c_beta/c_alpha).
    ``f`` is given on the plan's x-nodes, as for ``apply_multiplier_fn``."""
    ratio = c_const(pair.beta) / c_const(pair.alpha)
    spec = MultiplierSpec(pair.mu, math.sqrt(ratio)) if half else MultiplierSpec(2.0 * pair.mu, ratio)
    return apply_multiplier_fn(plan, f, spec)


def _masked_max_rel(reference: np.ndarray, candidate: np.ndarray) -> tuple[float, float, int]:
    mask = np.abs(reference) > _MASK_LEVEL * np.max(np.abs(reference))
    abs_err = float(np.max(np.abs(candidate - reference)))
    rel = float(np.max(np.abs(candidate[mask] - reference[mask]) / np.abs(reference[mask])))
    return abs_err, rel, int(np.count_nonzero(mask))


def _u_max_for(plan: TransformPlan) -> float:
    # witnesses are at double-precision zero well before the grid boundary,
    # and the synthesis is only resolved out to y ~ half_width
    return plan.half_width**2


def inversion_check(
    pair: SoninePair,
    plan_alpha: TransformPlan,
    plan_beta: TransformPlan,
    witness: LizorkinWitness,
    order: str,
) -> tuple[float, float, str]:
    """Run one reconstruction pipeline and compare against the witness.

    Orders (composition applied right to left to the witness; K1 and K2 are
    ``k_operator`` on the alpha and the beta plan):
      * 's-k1-ts':  sonine o K1 o dual-sonine,  witness at beta;
      * 'ts-k2-s':  dual-sonine o K2 o sonine,  witness at alpha;
      * 'k1-ts-s':  K1 o dual-sonine o sonine,  witness at alpha;
      * 'k2-s-ts':  K2 o sonine o dual-sonine,  witness at beta.

    Returns the largest absolute and relative errors at every third x-node
    where the witness exceeds 1e-3 of its peak, and a summary of those
    points.
    """
    if order not in INVERSION_ORDERS:
        raise ValueError(f"unknown pipeline order {order!r}; expected one of {INVERSION_ORDERS}")
    ts_first = order.endswith("-ts")  # the dual transform acts first, on a beta-witness
    k_last = order.startswith("k")  # the multiplier acts after both Sonine steps
    u_max = _u_max_for(plan_beta)
    first_plan, second_plan = (plan_alpha, plan_beta) if ts_first else (plan_beta, plan_alpha)
    k_plan = second_plan if k_last else first_plan
    ref_vals = witness.values.values
    mask = np.abs(ref_vals) > _MASK_LEVEL * np.max(np.abs(ref_vals))
    points = witness.plan.x_nodes[mask][::_THIN]
    reference = ref_vals[mask][::_THIN]

    def second_step(f, xs: np.ndarray) -> np.ndarray:
        return sonine_grid(pair, f, xs) if ts_first else dual_sonine_grid(pair, f, xs, u_max=u_max)

    first = witness.image(pair, first_plan, u_max if ts_first else None)
    if k_last:
        first_fn = SpectralFunction.from_spectrum(first_plan, forward(first_plan, first).values)
        recon = k_operator(pair, k_plan, second_step(first_fn, second_plan.x_nodes))(points)
    else:
        recon = second_step(k_operator(pair, k_plan, first), points)
    abs_err = float(np.max(np.abs(recon - reference)))
    rel_err = float(np.max(np.abs(recon - reference) / np.abs(reference)))
    return abs_err, rel_err, f"{points.size} masked points (level {_MASK_LEVEL})"


def multiplier_commutation_check(
    pair: SoninePair,
    plan_alpha: TransformPlan,
    plan_beta: TransformPlan,
    witness: LizorkinWitness,
) -> tuple[float, float, str]:
    """K1 o dual-sonine = dual-sonine o K2 on a beta-witness, K1 and K2 the
    ``k_operator`` on the alpha and the beta plan: the largest absolute
    error, the largest relative error where the left side exceeds 1e-3 of
    its peak, and a summary of those points."""
    u_max = _u_max_for(plan_beta)
    lhs = k_operator(pair, plan_alpha, witness.image(pair, plan_alpha, u_max))(plan_alpha.x_nodes)
    k2_img = k_operator(pair, plan_beta, witness.values)
    abs_err, rel, n_mask = _masked_max_rel(lhs, dual_sonine_grid(pair, k2_img, plan_alpha.x_nodes, u_max=u_max))
    return abs_err, rel, f"{n_mask} masked points of {plan_alpha.x_nodes.size}"


def plancherel_dual_check(
    pair: SoninePair,
    plan_alpha: TransformPlan,
    plan_beta: TransformPlan,
    witness: LizorkinWitness,
) -> tuple[float, float]:
    """Both sides of the dual Plancherel identity: the weighted norm of a
    beta-witness, and the alpha-weighted norm of the half-power image of its
    dual-Sonine transform."""
    lhs = float(np.real(plan_beta.integrate_x(np.abs(witness.values.values) ** 2)))
    ts_values = witness.image(pair, plan_alpha, _u_max_for(plan_beta))
    k3_img = k_operator(pair, plan_alpha, ts_values, half=True)
    return lhs, float(np.real(plan_alpha.integrate_x(np.abs(k3_img(plan_alpha.x_nodes)) ** 2)))
