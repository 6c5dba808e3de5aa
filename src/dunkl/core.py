"""The deformed one-dimensional calculus: kernel, difference-differential
operator, intertwiner and its inverse and dual, translation, convolution.

The intertwiner is the Sonine transform from the classical order:
V_alpha = S_{-1/2,alpha} and tV_alpha = tS_{-1/2,alpha} (see dunkl.sonine),
so its routes here are thin wrappers.  Monomial actions are exact; every
quadrature path is validated against them in the tests.  Inputs are read
through the SmoothFunction protocol, and bare callables are wrapped by
``as_smooth``: odd-part quotients come from the objects' ``odd_quotient``,
which the function classes evaluate exactly at the removable singularity.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .functions import GridFunction, PolyFunction, SmoothFunction, as_smooth, dunkl_operator
from .quadrature import jacobi_rule, radial_rule, theta_rule
from .sonine import (
    classical_pair,
    dual_sonine_apply,
    dual_sonine_grid,
    sonine_apply,
    sonine_diagonal_factors,
)
from .special import (
    OrderParam,
    Z_MAX,
    a_const,
    as_order,
    bessel_mod_array,
    inverse_intertwiner_const,
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
    "v_inverse_diagonal_factors",
]

_BOCHNER_BOX = 1e3

#: ``series`` mode's bound on |Im z|; at alpha = -0.4 its error is 3e-12 inside, 3e-10 at -40+30j.
_SERIES_IM_MAX = 10.0
#: log of the largest double: beyond |Re z| = 709.78, E_alpha(z) overflows and every mode raises.
_RE_MAX = math.log(np.finfo(float).max)
#: step of the local interpolant that differentiates the inverse intertwiner's braces
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

    Modes (each rejects |Re z| > log(max double) = 709.78, where E_alpha(z) overflows):
      * ``series``  -- power series sum z^n / b_n(alpha), |z| <= Z_MAX, |Im z| <= 10;
      * ``bochner`` -- compact integral a_alpha int_-1^1 e^(zt) (1-t^2)^(alpha-1/2)(1+t) dt;
      * ``bessel``  -- B_alpha(z) + z/(2(alpha+1)) B_(alpha+1)(z) by bessel_mod_array, |z| <= Z_MAX;
      * ``auto``    -- series where it accepts z, else bessel inside Z_MAX, else the integral.
    """
    a = as_order(alpha).alpha
    z = complex(z)
    if abs(z.real) > _RE_MAX:
        raise ValueError(f"|Re z|={abs(z.real):.6g} exceeds log(max double) = {_RE_MAX:.2f}: E_alpha(z) overflows")
    series_ok = abs(z.imag) <= _SERIES_IM_MAX
    if mode == "auto":
        mode = "bochner" if abs(z) > Z_MAX else "series" if series_ok else "bessel"
    if mode == "series":
        if abs(z) > Z_MAX:
            raise ValueError(f"|z|={abs(z):.3g} exceeds the series radius {Z_MAX}; use mode='bochner'")
        if not series_ok:
            raise ValueError(f"|Im z|={abs(z.imag):.3g} > {_SERIES_IM_MAX:g}: the series cancels; use mode='bessel'")
        return _kernel_series(a, z)
    if mode == "bessel":
        return complex(bessel_mod_array(a, z) + z / (2.0 * (a + 1.0)) * bessel_mod_array(a + 1.0, z))
    if mode == "bochner":
        if abs(z.real) > _BOCHNER_BOX or abs(z.imag) > _BOCHNER_BOX:
            raise ValueError("bochner mode supports |Re z|, |Im z| <= 1e3")
        n = max(64, int(1.3 * abs(z)) + 24)
        rule = jacobi_rule(a - 0.5, -0.5, n)
        s = rule.nodes
        t = np.sqrt(s)
        vals = np.cosh(z * t) + t * np.sinh(z * t)
        return a_const(a) * np.sum(rule.weights * vals)
    raise ValueError(f"unknown kernel mode {mode!r}")


def v_diagonal_factors(alpha: OrderParam | float, n_max: int) -> np.ndarray:
    """Diagonal action of the intertwiner on monomials: x^n -> (n!/b_n) x^n."""
    return sonine_diagonal_factors(classical_pair(alpha), n_max)


def v_inverse_diagonal_factors(alpha: OrderParam | float, n_max: int) -> np.ndarray:
    return 1.0 / v_diagonal_factors(alpha, n_max)


def intertwiner_v(alpha: OrderParam | float, f, x: Optional[float] = None):
    """Intertwining operator V_alpha = S_{-1/2,alpha}: the exact diagonal
    n!/b_n on PolyFunction (x omitted), else the value at x (see sonine_apply)."""
    return sonine_apply(classical_pair(alpha), f, x)


def _operator_terms(r: int, even_part: bool) -> list[tuple[int, int, float]]:
    """Expansion of (d/dx)(d/(x dx))^r  [even]  or  (d/(x dx))^(r+1)  [odd]
    as sum coeff * B^(j)(x) * x^power."""
    terms: dict[tuple[int, int], float] = {(0, 0): 1.0}

    def x_pow_ddx(ts, shift: int):
        """x^shift d/dx: shift -1 for d/(x dx), 0 for d/dx."""
        out: dict[tuple[int, int], float] = {}
        for (j, p), c in ts.items():
            out[(j + 1, p + shift)] = out.get((j + 1, p + shift), 0.0) + c
            if p != 0:
                out[(j, p + shift - 1)] = out.get((j, p + shift - 1), 0.0) + c * p
        return out

    for _ in range(r if even_part else r + 1):
        terms = x_pow_ddx(terms, -1)
    if even_part:
        terms = x_pow_ddx(terms, 0)
    return [(j, p, c) for (j, p), c in terms.items() if c != 0.0]


def _local_derivatives(fn: Callable[[float], complex], x: float, j_max: int, h: float) -> np.ndarray:
    """B(x), B'(x), ..., B^(j_max)(x) from a local polynomial interpolant."""
    m = max(j_max + 3, 6)
    ks = np.arange(-m, m + 1, dtype=float)
    vals = np.asarray([fn(x + k * h) for k in ks])
    deg = len(ks) - 1
    coef = np.polynomial.polynomial.polyfit(ks, vals, deg)
    return np.array([math.factorial(j) * coef[j] / h**j for j in range(j_max + 1)], dtype=complex)


def intertwiner_v_inverse(alpha: OrderParam | float, f, x: Optional[float] = None):
    """Inverse of the intertwiner.

    PolyFunction path: exact diagonal x^n -> (b_n/n!) x^n.  Smooth/grid path:
    the one-sided fractional-integral inversion formulas with r = [alpha+1/2],
      even part:  const * (d/dx)(d/(x dx))^r { x^(2r+1) int_0^1 f_e(xt)(1-t^2)^(r-alpha-1/2) t^(2 alpha+1) dt }
      odd part:   const * (d/(x dx))^(r+1)   { x^(2r+2) int_0^1 f_o(xt)(1-t^2)^(r-alpha-1/2) t^(2 alpha+2) dt }
    with const = inverse_intertwiner_const.  Orders with alpha+1/2 integer are
    rejected; the outer derivatives need |x| comfortably away from 0.
    """
    a = as_order(alpha).alpha
    if isinstance(f, PolyFunction) and x is None:
        return f.scaled(v_inverse_diagonal_factors(a, f.degree))
    if x is None:
        raise ValueError("evaluation point required for non-polynomial input")
    r, const = inverse_intertwiner_const(a)

    if isinstance(f, GridFunction):
        if f.smoothness_hint == "generic":
            raise ValueError("grid input needs a smoothness hint other than 'generic'")
        spline = CubicSpline(f.grid, f.values)
        evaluate = lambda u: spline(u)
    else:
        evaluate = f

    if abs(x) < 4.0 * _DERIV_STEP:
        raise ValueError(f"evaluation point |x|={abs(x):.3g} too close to 0 for the derivative stack (h={_DERIV_STEP})")

    rule_e = jacobi_rule(r - a - 0.5, a)
    rule_o = jacobi_rule(r - a - 0.5, a + 0.5)
    se = np.sqrt(rule_e.nodes)
    so = np.sqrt(rule_o.nodes)

    def brace_even(u: float) -> complex:
        vals = 0.5 * (np.asarray(evaluate(u * se)) + np.asarray(evaluate(-u * se)))
        return u ** (2 * r + 1) * 0.5 * np.sum(rule_e.weights * vals)

    def brace_odd(u: float) -> complex:
        vals = 0.5 * (np.asarray(evaluate(u * so)) - np.asarray(evaluate(-u * so)))
        return u ** (2 * r + 2) * 0.5 * np.sum(rule_o.weights * vals)

    out = 0.0 + 0.0j
    for brace, parity_even in ((brace_even, True), (brace_odd, False)):
        terms = _operator_terms(r, parity_even)
        j_max = max(j for j, _, _ in terms)
        derivs = _local_derivatives(brace, x, j_max, _DERIV_STEP)
        out += sum(c * derivs[j] * x**p for j, p, c in terms)
    result = const * out
    if abs(result.imag) < 1e-13 * max(abs(result.real), 1.0):
        return result.real
    return result


def dual_intertwiner_v(alpha: OrderParam | float, f, x: float):
    """Dual intertwiner tV_alpha = tS_{-1/2,alpha} at a point (see dual_sonine_apply)."""
    return dual_sonine_apply(classical_pair(alpha), f, x)


def dual_intertwiner_v_grid(alpha: OrderParam | float, f, xs: np.ndarray, u_max: float = 512.0) -> np.ndarray:
    """Dual intertwiner on many points at once (see dual_sonine_grid)."""
    return dual_sonine_grid(classical_pair(alpha), f, xs, u_max)


def translation(alpha: OrderParam | float, f, x: float, y: float):
    """Generalized translation through the angular integral

    a_alpha int_0^pi [f_e(w) + f_o(w)(x+y)/w] [1 - sgn(xy) cos t] sin^(2 alpha) t dt,
    w = sqrt(x^2 + y^2 - 2|xy| cos t).

    At (0, 0), where the integral form does not apply, f(0) is returned by
    the continuity convention.
    """
    return _translate(as_order(alpha).alpha, as_smooth(f), float(x), float(y))


def _translate(a: float, f: SmoothFunction, x: float, y: float):
    """translation's angular integral, f already a SmoothFunction."""
    if x == 0.0 and y == 0.0:
        return np.asarray(f(0.0)).item()
    rule = theta_rule(a)
    cos_t = np.cos(rule.nodes)
    w = np.sqrt(np.maximum(x * x + y * y - 2.0 * abs(x * y) * cos_t, 0.0))
    sgn = float(np.sign(x) * np.sign(y))
    fe = 0.5 * (np.asarray(f(w)) + np.asarray(f(-w)))
    integrand = (fe + (x + y) * np.asarray(f.odd_quotient(w))) * (1.0 - sgn * cos_t)
    return a_const(a) * np.sum(rule.weights * integrand)


def convolution(alpha: OrderParam | float, f, g, x: float):
    """Weighted convolution int_R tau_x f(-y) g(y) |y|^(2 alpha + 1) dy.

    The radial rule of int_0^14 (.) y^(2 alpha + 1) dy, weight absorbed (see
    radial_rule), integrates both half-lines folded together.
    """
    a = as_order(alpha).alpha
    f, x = as_smooth(f), float(x)
    y_rule = radial_rule(a, 14.0)
    total = 0.0
    for y, w in zip(y_rule.nodes, y_rule.weights):
        tau_minus = _translate(a, f, x, float(-y))
        tau_plus = _translate(a, f, x, float(y))
        total += w * (tau_minus * np.asarray(g(y)) + tau_plus * np.asarray(g(-y)))
    return total
