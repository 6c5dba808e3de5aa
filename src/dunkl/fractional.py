"""Fractional powers of the deformed Laplacian and the distributional layer.

The multiplier |lambda|^(2 lam) on the transform side *defines* the
fractional power in this package (see dunkl.transform.apply_multiplier); the
absolutely convergent Riesz-type double integral implemented here is an
independent validation route, available exactly on the strip
-(alpha+1) < lam < 0 where the kernel is integrable.

The angular integral of the Riesz kernel collapses to a Gauss
hypergeometric closed form in u = w^2:

  int_0^pi (1 +- cos t) w^(-2p) sin^(2 alpha) t dt
      = 2^(2a+1) B(a+1/2, a+3/2) um^(-p) 2F1(p, b; 2a+2; -(up-um)/um),

with w^2 = x^2 + y^2 - 2|xy| cos t, um = (|x|-|y|)^2, up = (|x|+|y|)^2,
p = lam + alpha + 1, and b = alpha + 1/2 for matching signs of the two
arguments (alpha + 3/2 for opposite signs).  For |z| beyond the reliable
float range of the scipy evaluation the few affected nodes fall back to
arbitrary-precision evaluation.
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath
import numpy as np
from scipy.special import gamma as scipy_gamma
from scipy.special import hyp2f1, rgamma

from .quadrature import doubling_tail, homogeneous_pairing, integrate_semi_infinite, jacobi_rule, legendre_panels
from .special import OrderParam, as_order
from .transform import SpectralFunction, TransformPlan, spectral_support

__all__ = [
    "riesz_prefactor",
    "angular_kernel",
    "frac_power_kernel",
    "pairing_symbol_constant",
    "power_weight_identity",
]

# gap half-width around the outer singularity: wide enough that the
# hypergeometric argument stays within the reliable float range of the scipy
# evaluation (the arbitrary-precision fallback is a safety net, not a path)
_GAP_RATIO = 2.0**-10
_HYP_SAFE = 5e13
# relative size of the doubling panel that ends a Riesz-kernel tail
_TAIL_TOL = 1e-12
#: even Taylor order that the power-weight pairings subtract at the origin
TAYLOR_ORDER = 10


def riesz_prefactor(alpha: OrderParam | float, lam: float) -> float:
    """2^(2 lam) Gamma(alpha+lam+1) / (sqrt(pi) Gamma(alpha+1/2) Gamma(-lam))."""
    a = as_order(alpha).alpha
    lam = float(lam)
    if not (-(a + 1.0) < lam < 0.0):
        raise ValueError(f"kernel route needs lam in (-(alpha+1), 0), got {lam}")
    return math.exp(
        2.0 * lam * math.log(2.0)
        + math.lgamma(a + lam + 1.0)
        - math.lgamma(a + 0.5)
        - math.lgamma(-lam)
    ) / math.sqrt(math.pi)


def _hyp2f1_safe(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    out = hyp2f1(a, b, c, z)
    risky = ~np.isfinite(out) | (np.abs(z) > _HYP_SAFE)
    if np.any(risky):
        vals = [float(mpmath.hyp2f1(a, b, c, mpmath.mpf(float(zz)))) for zz in np.atleast_1d(z)[risky.ravel()]]
        out = np.array(out, copy=True)
        out[risky] = vals
    return out


def angular_kernel(alpha: float, p: float, x: float, y: np.ndarray, sign: int) -> np.ndarray:
    """Closed form of the angular integral for |x|, y > 0 and the given
    relative sign of the arguments."""
    y = np.asarray(y, dtype=float)
    um = (x - y) ** 2
    up = (x + y) ** 2
    z = -(up - um) / um
    b = alpha + 0.5 if sign > 0 else alpha + 1.5
    beta_const = math.exp(math.lgamma(alpha + 0.5) + math.lgamma(alpha + 1.5) - math.lgamma(2 * alpha + 2.0))
    return 2.0 ** (2 * alpha + 1) * beta_const * um ** (-p) * _hyp2f1_safe(p, b, 2 * alpha + 2.0, z)


def frac_power_kernel(
    alpha: OrderParam | float,
    lam: float,
    f: Callable,
    x: float,
) -> float:
    """Riesz-kernel route for the fractional power at a point:

      prefactor * int_R [angular kernel](x, y) f(y) |y|^(2 alpha + 1) dy,

    valid on -(alpha+1) < lam < 0.  The outer integral is panelized with
    geometric refinement toward the algebraic singularity at |y| = |x|; the
    two panels adjacent to it absorb the leading (|y|-|x|)^(-(2 lam + 1))
    behavior into Jacobi weights.
    """
    a = as_order(alpha).alpha
    lam = float(lam)
    pref = riesz_prefactor(a, lam)  # validates the admissible range
    p = lam + a + 1.0
    ax = abs(float(x))
    sx = 1.0 if x >= 0 else -1.0

    if ax == 0.0:
        # angle-free kernel: |y|^(-2p) times the plain angular mass
        mass = 2.0 ** (2 * a) * math.exp(
            2 * math.lgamma(a + 0.5) - math.lgamma(2 * a + 1.0)
        )
        even = lambda y: np.asarray(f(y)) + np.asarray(f(-y))
        return pref * mass * float(np.real(integrate_semi_infinite(even, -(2.0 * lam + 1.0))))

    delta = _GAP_RATIO * ax
    total = 0.0
    for sign in (1, -1):
        fy = (lambda y: np.asarray(f(sx * y))) if sign > 0 else (lambda y: np.asarray(f(-sx * y)))
        kern = lambda y: angular_kernel(a, p, ax, y, sign)
        summand = lambda y, w: np.real(w * y ** (2.0 * a + 1.0) * fy(y) * kern(y))

        # [0, ax/2]: weight y^(2a+1) absorbed
        rule = jacobi_rule(0.0, 2.0 * a + 1.0, 48)
        y0 = rule.nodes * (ax / 2.0)
        w0 = rule.weights * (ax / 2.0) ** (2.0 * a + 2.0)
        total += np.real(np.sum(w0 * fy(y0) * kern(y0)))

        # geometric refinement [ax/2, ax - delta]
        edges = [ax / 2.0]
        while ax - edges[-1] > delta:
            gap = ax - edges[-1]
            if gap * 0.5 <= delta:
                # this panel ends at ax - delta; rounding can leave ax minus
                # that edge an ulp above delta, and steps of that size stall
                edges.append(edges[-1] + (gap - delta))
                break
            edges.append(edges[-1] + gap * 0.5)
        for yy, ww in zip(*legendre_panels(edges, 24)):
            total += np.sum(summand(yy, ww))

        # gap panel [ax - delta, ax] with (ax - y)^(-(2 lam + 1)) absorbed
        g_exp = -(2.0 * lam + 1.0)
        grule = jacobi_rule(g_exp, 0.0, 24)
        yy = (ax - delta) + delta * grule.nodes
        ww = grule.weights * delta ** (g_exp + 1.0)
        total += np.real(np.sum(ww * yy ** (2.0 * a + 1.0) * fy(yy) * kern(yy) * (ax - yy) ** (2.0 * lam + 1.0)))

        # gap panel [ax, ax + delta] with (y - ax)^(-(2 lam + 1)) absorbed
        grule = jacobi_rule(0.0, g_exp, 24)
        yy = ax + delta * grule.nodes
        ww = grule.weights * delta ** (g_exp + 1.0)
        total += np.real(np.sum(ww * yy ** (2.0 * a + 1.0) * fy(yy) * kern(yy) * (yy - ax) ** (2.0 * lam + 1.0)))

        # geometric coarsening [ax + delta, 2 ax]
        edges = [ax + delta]
        while edges[-1] < 2.0 * ax:
            lo = edges[-1]
            edges.append(lo + min(max(lo - ax, delta), 2.0 * ax - lo))
        for yy, ww in zip(*legendre_panels(edges, 24)):
            total += np.sum(summand(yy, ww))

        total = doubling_tail(summand, 2.0 * ax, total, _TAIL_TOL)
    return pref * float(total)


def _gamma_off_poles(arg: float) -> float:
    if arg <= 0 and abs(arg - round(arg)) < 1e-9:
        raise ValueError(f"Gamma argument {arg} sits on a pole of the symbol constant")
    return float(scipy_gamma(arg))


def pairing_symbol_constant(alpha: OrderParam | float, lam: float) -> float:
    """Constant of the transform identity for weighted powers:
    2^(2a+lam+2) Gamma(a+1) Gamma((2a+lam+2)/2) / Gamma(-lam/2).

    Vanishes exactly at nonnegative even lam through 1/Gamma."""
    a = as_order(alpha).alpha
    lam = float(lam)
    arg = (2.0 * a + lam + 2.0) / 2.0
    return 2.0 ** (2.0 * a + lam + 2.0) * math.gamma(a + 1.0) * _gamma_off_poles(arg) * float(rgamma(-lam / 2.0))


class _ForwardImage(SpectralFunction):
    """Transform of a test function, the ``forward_fn`` of its samples; its
    Taylor data are the weighted moments.  Beyond the band the x-rule
    resolves, or where the grid spectrum is below the double-precision floor,
    the synthesis is quadrature noise: the values there are exact zeros, and
    no kernel is evaluated for them."""

    def __init__(self, plan: TransformPlan, phi):
        values = np.asarray(phi(plan.x_nodes))
        super().__init__(plan.order, -plan.x_nodes, plan.x_weights * values, plan=plan)
        resolvable = 1.5 * (plan.x_nodes.size // 2) / plan.half_width  # highest frequency the x-rule resolves
        self.band_limit = min(resolvable, spectral_support(plan, values, 1e-15))

    def _parts(self, x: np.ndarray, parts: tuple[int, ...] = (0, 1)) -> list[np.ndarray]:
        inside = np.abs(x) <= self.band_limit
        out = [np.zeros(x.shape, (self._w_even, self._w_quotient)[part].dtype) for part in parts]
        for o, v in zip(out, super()._parts(x[inside], parts) if np.any(inside) else ()):
            o[inside] = v
        return out


def power_weight_identity(alpha: OrderParam | float, lam: float, phi, plan: TransformPlan) -> tuple[float, float, bool]:
    """Both sides of the pairing-level transform of the weighted power
    |x|^(lam+2a+1), and whether lam is degenerate:

      < |x|^(lam+2a+1), F phi >  =  const(alpha, lam) < |x|^(-(lam+1)), phi >.

    At nonnegative even lam the constant vanishes while the right pairing
    hits a pole; there the right side is 0 and the left side must vanish for
    test functions whose matching residue is 0.
    """
    a = as_order(alpha).alpha
    lam = float(lam)
    for ell in range(0, 40):
        if abs(lam + 2.0 * a + 2.0 * ell + 2.0) < 1e-9:
            raise ValueError(f"lam={lam} within 1e-9 of a pole of the identity")

    image = _ForwardImage(plan, phi)
    lhs = float(np.real(homogeneous_pairing(lam + 2.0 * a + 1.0, image, taylor_order=TAYLOR_ORDER).value))
    degenerate = lam > -1e-9 and abs(lam / 2.0 - round(lam / 2.0)) < 1e-9
    if degenerate:
        return lhs, 0.0, True
    rhs_pairing = homogeneous_pairing(-(lam + 1.0), phi, taylor_order=TAYLOR_ORDER)
    if rhs_pairing.pole_flag:
        raise ValueError(f"lam={lam}: right-side pairing sits on a pole")
    return lhs, pairing_symbol_constant(a, lam) * float(np.real(rhs_pairing.value)), False
