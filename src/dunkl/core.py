"""The deformed one-dimensional calculus: kernel, difference-differential
operator, intertwiner and its inverse and dual, translation, convolution.

The intertwiner is the Sonine transform from the classical order:
V_alpha = S_{-1/2,alpha} and tV_alpha = tS_{-1/2,alpha} (see dunkl.sonine),
so its routes here are thin wrappers; its inverse is V_beta^{-1} S_{alpha,beta}
at a half-integer beta, where V_beta^{-1} is a polynomial in x d/dx.
Monomial actions are exact; every quadrature path is validated against them
in the tests.  Inputs are read as SmoothFunction objects, and bare callables
are wrapped by ``as_smooth``: even parts and odd-part quotients come from one
``parts`` read, and the function classes evaluate the quotient exactly at the
removable singularity.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .functions import GridFunction, PolyFunction, WrappedFunction, as_smooth, dunkl_operator
from .quadrature import jacobi_rule, radial_rule, theta_rule
from .sonine import (
    SoninePair,
    classical_pair,
    dual_sonine_apply,
    dual_sonine_grid,
    sonine_apply,
    sonine_diagonal_factors,
)
from .special import (
    _RE_MAX,
    OrderParam,
    a_const,
    as_order,
    bessel_mod_array,
)

__all__ = [
    "dunkl_kernel",
    "dunkl_operator",
    "intertwiner_v",
    "intertwiner_v_inverse",
    "dual_intertwiner_v",
    "dual_intertwiner_v_grid",
    "translation",
    "convolution",
    "v_diagonal_factors",
]

_BOCHNER_BOX = 1e3

#: ``series`` mode's strip |z| <= 60, |Im z| <= 10; at alpha = -0.4 its error is 3e-12 inside, 3e-10 at -40+30j.
_SERIES_RADIUS, _SERIES_IM_MAX = 60.0, 10.0
#: step of the local interpolant that differentiates S_{alpha,beta} f in the inverse intertwiner
_DERIV_STEP = 0.12


def _kernel_series(alpha: float, z: complex) -> complex:
    """sum_n z^n / b_n(alpha) with on-the-fly coefficient ratios."""
    term = 1.0 + 0.0j
    total = term
    m = 0
    for n in range(500):
        if n % 2 == 0:
            term = term * z / (2.0 * (m + alpha + 1.0))
        else:
            term = term * z / (2.0 * (m + 1.0))
            m += 1
        total += term
        if abs(term) < 1e-16 * abs(total) and n >= 4:
            return total
    raise RuntimeError(f"kernel series did not converge for alpha={alpha}, z={z}")


def dunkl_kernel(alpha: OrderParam | float, z: complex, mode: str = "auto") -> complex:
    """Kernel E_alpha(z): the unique analytic eigenfunction normalised to 1 at 0.

    Modes (each rejects a nan or infinite part, and |Re z| > log(max double) = 709.78, where E_alpha(z) overflows):
      * ``series``  -- power series sum z^n / b_n(alpha), |z| <= 60, |Im z| <= 10;
      * ``bochner`` -- compact integral a_alpha int_-1^1 e^(zt) (1-t)^(alpha-1/2) (1+t)^(alpha+1/2) dt,
        one Gauss-Jacobi rule in s = (1+t)/2, |Re z|, |Im z| <= 1e3;
      * ``bessel``  -- B_alpha(z) + z/(2(alpha+1)) B_(alpha+1)(z) by bessel_mod_array, on the whole box;
      * ``auto``    -- series where it accepts z, else bessel.
    """
    a = as_order(alpha).alpha
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z={z} has a nan or infinite part")
    if abs(z.real) > _RE_MAX:
        raise ValueError(f"|Re z|={abs(z.real):.6g} exceeds log(max double) = {_RE_MAX:.2f}: E_alpha(z) overflows")
    in_radius, series_ok = abs(z) <= _SERIES_RADIUS, abs(z.imag) <= _SERIES_IM_MAX
    if mode == "auto":
        mode = "series" if in_radius and series_ok else "bessel"
    if mode == "series":
        if not in_radius:
            raise ValueError(f"|z|={abs(z):.3g} exceeds the series radius {_SERIES_RADIUS:g}; use mode='bessel'")
        if not series_ok:
            raise ValueError(f"|Im z|={abs(z.imag):.3g} > {_SERIES_IM_MAX:g}: the series cancels; use mode='bessel'")
        return _kernel_series(a, z)
    if mode == "bessel":
        return complex(bessel_mod_array(a, z) + z / (2.0 * (a + 1.0)) * bessel_mod_array(a + 1.0, z))
    if mode == "bochner":
        if abs(z.real) > _BOCHNER_BOX or abs(z.imag) > _BOCHNER_BOX:
            raise ValueError("bochner mode supports |Re z|, |Im z| <= 1e3")
        # t = 2s - 1: (1-t)^(alpha-1/2) (1+t)^(alpha+1/2) dt = 2^(2 alpha+1) (1-s)^(alpha-1/2) s^(alpha+1/2) ds
        rule = jacobi_rule(a - 0.5, a + 0.5, max(64, int(1.3 * abs(z)) + 24))
        return a_const(a) * 2.0 ** (2.0 * a + 1.0) * np.sum(rule.weights * np.exp(z * (2.0 * rule.nodes - 1.0)))
    raise ValueError(f"unknown kernel mode {mode!r}")


def v_diagonal_factors(alpha: OrderParam | float, n_max: int) -> np.ndarray:
    """Diagonal action of the intertwiner on monomials: x^n -> (n!/b_n) x^n."""
    return sonine_diagonal_factors(classical_pair(alpha), n_max)


def intertwiner_v(alpha: OrderParam | float, f, x=None):
    """Intertwining operator V_alpha = S_{-1/2,alpha}: the exact diagonal n!/b_n
    on PolyFunction (x omitted), else the values at a point or an array x (see sonine_apply)."""
    return sonine_apply(classical_pair(alpha), f, x)


def _theta_coeffs(n: int, shift: float) -> np.ndarray:
    """Coefficients on x^i D^i, i = 0..n, of prod_{j<n} (theta + shift + 2j)/(1 + 2j),
    theta = x d/dx, by (theta + c) x^i D^i = (i + c) x^i D^i + x^(i+1) D^(i+1)."""
    c = np.eye(n + 1)[0]
    for j in range(n):
        c = ((np.arange(n + 1) + shift + 2 * j) * c + np.append(0.0, c[:-1])) / (1 + 2 * j)
    return c


def intertwiner_v_inverse(alpha: OrderParam | float, f, x: Optional[float] = None):
    """Inverse of the intertwiner, for every alpha > -1/2 and every x.

    PolyFunction path: exact diagonal x^n -> (b_n/n!) x^n.  Smooth/grid path:
    Sonine transitivity V_beta = S_{alpha,beta} V_alpha gives
    V_alpha^{-1} = V_beta^{-1} S_{alpha,beta}, taken at the half-integer
    beta = n - 1/2, n = ceil(alpha + 1), so that beta - alpha is in [1/2, 3/2).
    There V_beta^{-1} is the diagonal b_m(beta)/m! on x^m, that is
    prod_{j<n} (theta + 1 + 2j)/(1 + 2j) on the even part and
    prod_{j<n} (theta + 2 + 2j)/(1 + 2j) on the odd part, theta = x d/dx.
    The derivatives of S_{alpha,beta} f come from a local polynomial fit to
    its values on the stencil +-(x + k h), |k| <= max(n + 3, 6), from one sonine_apply call.
    A plain callable without a derivative raises where a stencil point is
    nonzero but within about 1e-6 of 0 (see WrappedFunction).
    """
    a = as_order(alpha).alpha
    if isinstance(f, PolyFunction) and x is None:
        return f.scaled(1.0 / v_diagonal_factors(a, f.degree))
    if x is None:
        raise ValueError("evaluation point required for non-polynomial input")
    if isinstance(f, GridFunction):
        if f.smoothness_hint == "generic":
            raise ValueError("grid input needs a smoothness hint other than 'generic'")
        from scipy.interpolate import CubicSpline  # loaded only here: importing dunkl stays light

        spline = CubicSpline(f.grid, f.values)
        f = WrappedFunction(spline, spline.derivative())
    n = math.ceil(a + 1.0)
    pair, m = SoninePair(a, n - 0.5), max(n + 3, 6)
    ks = np.arange(-m, m + 1, dtype=float)
    vals = sonine_apply(pair, f, np.outer((1.0, -1.0), x + ks * _DERIV_STEP))
    parts = np.stack([vals[0] + vals[1], vals[0] - vals[1]], axis=1) / 2.0  # even, odd part on the stencil
    taylor = np.polynomial.polynomial.polyfit(ks, parts, 2 * m)[: n + 1]  # rows i: h^i D^i g(x) / i!
    scale = np.array([math.factorial(i) * (x / _DERIV_STEP) ** i for i in range(n + 1)])
    theta = np.array([_theta_coeffs(n, 1.0), _theta_coeffs(n, 2.0)]).T
    result = complex(np.sum(theta * taylor * scale[:, None]))
    if abs(result.imag) < 1e-13 * max(abs(result.real), 1.0):
        return result.real
    return result


def dual_intertwiner_v(alpha: OrderParam | float, f, x):
    """Dual intertwiner tV_alpha = tS_{-1/2,alpha} at a point or an array x (see dual_sonine_apply)."""
    return dual_sonine_apply(classical_pair(alpha), f, x)


def dual_intertwiner_v_grid(alpha: OrderParam | float, f, xs: np.ndarray, u_max: float = 512.0) -> np.ndarray:
    """Dual intertwiner on many points at once (see dual_sonine_grid)."""
    return dual_sonine_grid(classical_pair(alpha), f, xs, u_max)


def translation(alpha: OrderParam | float, f, x: float, y):
    """Generalized translation tau_x f(y), at a scalar or an array y, through the angular integral

    a_alpha int_0^pi [f_e(w) + f_o(w)(x+y)/w] [1 - sgn(xy) cos t] sin^(2 alpha) t dt,
    w = sqrt(x^2 + y^2 - 2|xy| cos t).

    Every y shares one ``parts`` read of f, the even part and the odd
    quotient on the (len(y), n_theta) array of w.  At (0, 0), where the
    integral form does not apply, f(0) is returned by the continuity convention.
    """
    a = as_order(alpha).alpha
    f, x, y = as_smooth(f), float(x), np.asarray(y, dtype=float)
    origin = (x == 0.0) & (y == 0.0)
    ys = np.where(origin, 1.0, y).reshape(-1, 1)  # a stand-in at (0, 0), replaced by f(0) below
    rule = theta_rule(a)
    cos_t = np.cos(rule.nodes)
    w = np.sqrt(np.maximum(x * x + ys * ys - 2.0 * np.abs(x * ys) * cos_t, 0.0))
    even, quotient = f.parts(w)
    integrand = (even + (x + ys) * quotient) * (1.0 - np.sign(x) * np.sign(ys) * cos_t)
    tau = (a_const(a) * np.sum(rule.weights * integrand, axis=-1)).reshape(y.shape)
    return (np.where(origin, f(0.0), tau) if np.any(origin) else tau)[()]


def convolution(alpha: OrderParam | float, f, g, x: float):
    """Weighted convolution int_R tau_x f(-y) g(y) |y|^(2 alpha + 1) dy.

    The radial rule of int_0^14 (.) y^(2 alpha + 1) dy, weight absorbed (see
    radial_rule), integrates both half-lines folded together: one
    ``translation`` call on every node of both signs, one call of g per sign.
    """
    a = as_order(alpha).alpha
    rule = radial_rule(a, 14.0)
    y = rule.nodes
    tau_minus, tau_plus = np.split(translation(a, f, x, np.concatenate([-y, y])), 2)
    return np.sum(rule.weights * (tau_minus * np.asarray(g(y)) + tau_plus * np.asarray(g(-y))))
