"""Sonine transform between two orders of the calculus, and its dual.

S maps the alpha-theory into the beta-theory (beta > alpha): diagonal
b_n(alpha)/b_n(beta) on monomials, kernel-to-kernel on eigenfunctions.  The
dual transform tS acts on Schwartz functions through a one-sided fractional
tail integral of order beta - alpha in u = y^2.  From the classical order
alpha = -1/2, where E(z) = e^z, S is the intertwiner V_beta and tS its dual.

Every route reads its input through the SmoothFunction protocol; a bare
callable is wrapped by ``as_smooth``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functions import PolyFunction, SmoothFunction, as_smooth, dunkl_operator
from .quadrature import (
    integrate_semi_infinite,
    jacobi_rule,
    riemann_liouville_integral,
    weyl_integral,
)
from .special import CLASSICAL_ORDER, OrderParam, a_sonine, as_order, as_source_order, log_b_coeff

__all__ = [
    "SoninePair",
    "SonineImage",
    "classical_pair",
    "sonine_apply",
    "sonine_grid",
    "dual_sonine_apply",
    "dual_sonine_grid",
    "sonine_via_intertwiners",
    "sonine_diagonal_factors",
    "intertwining_check",
]


@dataclass(frozen=True)
class SoninePair:
    """Validated order pair (alpha, beta) with beta > alpha > -1/2.  The
    source order alpha may also be the classical order -1/2."""

    alpha: OrderParam
    beta: OrderParam

    def __post_init__(self) -> None:
        a = as_source_order(self.alpha)
        b = as_order(self.beta)
        if not b.alpha > a.alpha:
            raise ValueError(f"Sonine pair requires beta > alpha, got ({a.alpha}, {b.alpha})")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @classmethod
    def of(cls, alpha: float, beta: float) -> "SoninePair":
        return cls(float(alpha), float(beta))

    @property
    def a(self) -> float:
        return self.alpha.alpha

    @property
    def b(self) -> float:
        return self.beta.alpha

    @property
    def mu(self) -> float:
        """Order gap beta - alpha: the fractional order of the dual transform."""
        return self.b - self.a

    @property
    def prefactor(self) -> float:
        return a_sonine(self.alpha, self.beta)


def classical_pair(alpha: OrderParam | float) -> SoninePair:
    """(-1/2, alpha): S_{-1/2,alpha} is the intertwiner V_alpha."""
    return SoninePair(CLASSICAL_ORDER, alpha)


def _squared_parts(f: SmoothFunction) -> list:
    """Even part and odd quotient of f as functions of u = y^2."""
    return [lambda u: np.asarray(f.even_part(np.sqrt(u))), lambda u: np.asarray(f.odd_quotient(np.sqrt(u)))]


def sonine_diagonal_factors(pair: SoninePair, n_max: int) -> np.ndarray:
    """x^n -> (b_n(alpha)/b_n(beta)) x^n."""
    return np.array(
        [math.exp(log_b_coeff(n, pair.alpha) - log_b_coeff(n, pair.beta)) for n in range(n_max + 1)]
    )


def sonine_apply(pair: SoninePair, f, x: Optional[float] = None):
    """Sonine transform.

    PolyFunction (x omitted): exact diagonal.  At x = 0: f(0).  Otherwise the
    parity-split quadrature form

      a_{alpha,beta} int_0^1 [f_e(x sqrt(s)) + sqrt(s) f_o(x sqrt(s))]
                              (1-s)^(beta-alpha-1) s^alpha ds,

    where the interior |t|^(2 alpha + 1) kink of the t-form has been removed
    exactly by s = t^2.
    """
    if isinstance(f, PolyFunction) and x is None:
        return f.scaled(sonine_diagonal_factors(pair, f.degree))
    if x is None:
        raise ValueError("evaluation point required for non-polynomial input")
    return _sonine_at(pair, as_smooth(f), float(x), jacobi_rule(pair.mu - 1.0, pair.a))


def _sonine_at(pair: SoninePair, f: SmoothFunction, x: float, rule):
    """sonine_apply's quadrature form at one point, f already a SmoothFunction."""
    if x == 0.0:
        return f(0.0)
    args = x * np.sqrt(rule.nodes)
    integrand = np.asarray(f.even_part(args)) + x * rule.nodes * np.asarray(f.odd_quotient(args))
    return pair.prefactor * np.sum(rule.weights * integrand)


def sonine_grid(pair: SoninePair, f, xs: np.ndarray) -> np.ndarray:
    """Sonine transform on many points at once, written as a finite
    fractional integral in squared coordinates u = y^2:

      S f(x) = a x^(-(2 beta + 1)) int_0^(x^2) (x^2-u)^(beta-alpha-1)
                   u^alpha [ |x| f_e(sqrt(u)) + u (f_o/id)(sqrt(u)) ] du,

    the even part taken with sgn(x).  The shared quadrature panels are
    uniform in y, so oscillatory inputs stay resolved at every x
    simultaneously; pointwise values agree with sonine_apply.
    """
    f = as_smooth(f)
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.shape, dtype=complex)
    zero = xs == 0.0
    if np.any(zero):
        out[zero] = np.asarray(f(0.0))
    live = ~zero
    ax = np.abs(xs[live])
    order = np.argsort(ax)
    ax_sorted = ax[order]
    w = riemann_liouville_integral(
        _squared_parts(f),
        [pair.a, pair.a + 1.0],
        pair.mu,
        ax_sorted**2,
    )
    even_vals = np.empty_like(ax, dtype=complex)
    odd_vals = np.empty_like(ax, dtype=complex)
    even_vals[order] = w[0] * ax_sorted
    odd_vals[order] = w[1]
    scale = pair.prefactor * ax ** (-(2.0 * pair.b + 1.0))
    out[live] = scale * (even_vals + np.sign(xs[live]) * odd_vals)
    if np.isrealobj(np.asarray(f(np.zeros(1)))) and np.allclose(out.imag, 0.0):
        return out.real
    return out


class SonineImage:
    """S f as a SmoothFunction, with everything differentiated under the
    integral sign; its values are sonine_apply's."""

    def __init__(self, pair: SoninePair, f):
        self.pair = pair
        self.f = as_smooth(f)
        self.rule = jacobi_rule(pair.mu - 1.0, pair.a)
        self._t = np.sqrt(self.rule.nodes)

    def _map(self, x, fn):
        x = np.asarray(x, dtype=float)
        vals = np.asarray([fn(float(v)) for v in np.atleast_1d(x).ravel()])
        return vals[0] if x.ndim == 0 else vals.reshape(x.shape)

    def _quad(self, integrand) -> complex:
        return self.pair.prefactor * np.sum(self.rule.weights * integrand)

    def __call__(self, x):
        return self._map(x, lambda v: _sonine_at(self.pair, self.f, v, self.rule))

    def even_part(self, x):
        return self._map(x, lambda v: self._quad(np.asarray(self.f.even_part(v * self._t))))

    def odd_quotient(self, x):
        return self._map(x, lambda v: self._quad(self.rule.nodes * np.asarray(self.f.odd_quotient(v * self._t))))

    def derivative(self, x):
        def at(v: float) -> complex:
            dp = np.asarray(self.f.derivative(v * self._t))
            dm = np.asarray(self.f.derivative(-v * self._t))
            # (f_e)' = odd part of f', (f_o)' = even part of f'
            return self._quad(self._t * (0.5 * (dp - dm)) + self.rule.nodes * (0.5 * (dp + dm)))

        return self._map(x, at)

    def taylor_coeff(self, k: int):
        return self.f.taylor_coeff(k) * math.exp(log_b_coeff(k, self.pair.alpha) - log_b_coeff(k, self.pair.beta))


def dual_sonine_apply(pair: SoninePair, f, x: float):
    """Dual Sonine transform at a point, by the substitution v = y^2 - x^2:

      a_{alpha,beta} int_0^inf v^(beta-alpha-1) [f_e(y) + x (f_o(y)/y)] dv,
      y = sqrt(v + x^2), the Jacobi head covering [0, 1 + x^2].
    """
    f = as_smooth(f)
    x = float(x)

    def g(v: np.ndarray) -> np.ndarray:
        y = np.sqrt(v + x * x)
        return np.asarray(f.even_part(y)) + x * np.asarray(f.odd_quotient(y))

    return pair.prefactor * integrate_semi_infinite(g, pair.mu - 1.0, split=1.0 + x * x)


def dual_sonine_grid(
    pair: SoninePair,
    f,
    xs: np.ndarray,
    u_max: float = 512.0,
) -> np.ndarray:
    """Dual Sonine transform on many points through the shared-panel
    fractional tail integral; agrees with dual_sonine_apply pointwise."""
    xs = np.asarray(xs, dtype=float)
    w = weyl_integral(_squared_parts(as_smooth(f)), pair.mu, xs**2, u_max=u_max)
    return pair.prefactor * (w[0] + xs * w[1])


def sonine_via_intertwiners(pair: SoninePair, f: PolyFunction) -> PolyFunction:
    """Composition route V_beta o V_alpha^{-1} on polynomials, the intertwiners
    being the Sonine transforms from -1/2 (V_{-1/2} is the identity); must
    agree with the direct diagonal to rounding."""
    if not isinstance(f, PolyFunction):
        raise TypeError("composition route is the exact polynomial path")
    step = f
    if pair.alpha is not CLASSICAL_ORDER:
        step = f.scaled(1.0 / sonine_diagonal_factors(classical_pair(pair.alpha), f.degree))
    return step.scaled(sonine_diagonal_factors(classical_pair(pair.beta), step.degree))


def _fd_derivative(fn, x: float, h: float = 1e-2):
    return (8.0 * (fn(x + h) - fn(x - h)) - (fn(x + 2 * h) - fn(x - 2 * h))) / (12.0 * h)


def _poly_intertwining_errs(pair: SoninePair, f: PolyFunction) -> tuple[float, float]:
    lhs = dunkl_operator(pair.beta, sonine_apply(pair, f))
    rhs = sonine_apply(pair, dunkl_operator(pair.alpha, f))
    abs_err = float(np.max(np.abs((lhs - rhs).coeffs)))
    return abs_err, abs_err / max(float(np.max(np.abs(rhs.coeffs))), 1e-300)


def _smooth_intertwining_errs(pair: SoninePair, f, grid: np.ndarray) -> tuple[float, float]:
    s_img = SonineImage(pair, f)
    lam_beta_sf = dunkl_operator(pair.beta, s_img)
    lam_alpha_f = dunkl_operator(pair.alpha, f)
    direct_lhs = np.asarray([lam_beta_sf(float(v)) for v in grid])
    direct_rhs = np.asarray([sonine_apply(pair, lam_alpha_f, float(v)) for v in grid])

    lam_beta_f = dunkl_operator(pair.beta, f)
    dual_lhs = np.asarray([dual_sonine_apply(pair, lam_beta_f, float(v)) for v in grid])
    ts_f = lambda u: dual_sonine_apply(pair, f, float(u))
    a = pair.a
    dual_rhs = np.asarray(
        [
            _fd_derivative(ts_f, float(v)) + (2.0 * a + 1.0) * (ts_f(float(v)) - ts_f(-float(v))) / (2.0 * float(v))
            for v in grid
        ]
    )

    abs_err = float(max(np.max(np.abs(direct_lhs - direct_rhs)), np.max(np.abs(dual_lhs - dual_rhs))))
    scale = float(max(np.max(np.abs(direct_rhs)), np.max(np.abs(dual_lhs)), 1e-300))
    return abs_err, abs_err / scale


def intertwining_check(pair: SoninePair, f) -> tuple[float, float]:
    """Errors of both intertwining relations:

      direct:  Lambda_beta (S f) = S (Lambda_alpha f)
      dual:    tS (Lambda_beta f) = Lambda_alpha (tS f)

    Exact coefficient comparison on polynomials; quadrature comparison on
    the nonzero points of a 21-point grid on [-2.5, 2.5] for Schwartz-class
    inputs.
    """
    if isinstance(f, PolyFunction):
        return _poly_intertwining_errs(pair, f)
    grid = np.linspace(-2.5, 2.5, 21)
    return _smooth_intertwining_errs(pair, f, grid[grid != 0.0])
