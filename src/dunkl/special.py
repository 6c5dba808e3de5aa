"""Gamma-based constants and coefficient sequences of the rank-one Dunkl
calculus, and its one normalized Bessel evaluator, ``j_norm``.

Everything downstream (quadrature weights, kernel series, Sonine prefactors,
inversion constants) is a ratio of Gamma values.  All ratios are formed as
differences of log-Gamma and exponentiated at the end, so factorial-scale
coefficient growth never overflows an intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

__all__ = [
    "OrderParam",
    "CLASSICAL_ORDER",
    "SeriesNonConvergence",
    "Z_MAX",
    "as_order",
    "as_source_order",
    "log_gamma",
    "b_coeff",
    "log_b_coeff",
    "a_const",
    "a_sonine",
    "c_const",
    "d_const",
    "inverse_intertwiner_const",
    "j_norm",
    "bessel_mod_array",
]

#: Radius of the kernel's series and Bessel routes.
Z_MAX = 60.0

_SERIES_LOSS = 0.35  # j_norm's series bound on |u| - |Im u|
_SERIES_CAP = 500
_REL_STOP = 1e-16


class SeriesNonConvergence(RuntimeError):
    """A Bessel-type power series failed to converge within the term cap."""


@dataclass(frozen=True)
class OrderParam:
    """Order parameter of the weighted calculus.

    Every integral representation used here requires alpha > -1/2 strictly;
    the boundary value corresponds to the unweighted (classical) limit and is
    excluded because the weight (1-t^2)^(alpha-1/2) stops being integrable
    with the normalizations in use.
    """

    alpha: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a) or a <= -0.5:
            raise ValueError(f"order parameter must satisfy alpha > -1/2, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)


#: The classical order -1/2, where E(z) = e^z and b_n = n!.  It bypasses
#: OrderParam's check and is admitted only as the source order of a Sonine
#: pair (see as_source_order); S_{-1/2,alpha} is the intertwiner V_alpha.
CLASSICAL_ORDER = object.__new__(OrderParam)
object.__setattr__(CLASSICAL_ORDER, "alpha", -0.5)


def as_order(alpha: OrderParam | float) -> OrderParam:
    """Coerce a bare float to a validated :class:`OrderParam`; the classical
    order -1/2 is rejected in either form."""
    if alpha is CLASSICAL_ORDER:
        raise ValueError("the classical order -1/2 is only a Sonine source order")
    if isinstance(alpha, OrderParam):
        return alpha
    return OrderParam(float(alpha))


def as_source_order(alpha: OrderParam | float) -> OrderParam:
    """as_order, also admitting -1/2: for SoninePair, log_b_coeff and a_sonine only."""
    if alpha is CLASSICAL_ORDER or (not isinstance(alpha, OrderParam) and float(alpha) == -0.5):
        return CLASSICAL_ORDER
    return as_order(alpha)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Raises a domain error for x <= 0; the few reciprocal-Gamma values needed
    at negative arguments elsewhere are obtained through reflection by the
    callers that need them.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def log_b_coeff(n: int, alpha: OrderParam | float) -> float:
    """ln b_n(alpha) for the kernel-series denominators.

    b_{2m}(alpha) = 2^{2m} m! Gamma(m+alpha+1)/Gamma(alpha+1) and
    b_{2m+1}(alpha) = 2(alpha+1) b_{2m}(alpha+1), which collapses to
    2^{2m+1} m! Gamma(m+alpha+2)/Gamma(alpha+1).
    """
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    a = as_source_order(alpha).alpha
    if n % 2 == 0:
        m = n // 2
        return 2 * m * math.log(2) + math.lgamma(m + 1) + math.lgamma(m + a + 1) - math.lgamma(a + 1)
    m = (n - 1) // 2
    return (2 * m + 1) * math.log(2) + math.lgamma(m + 1) + math.lgamma(m + a + 2) - math.lgamma(a + 1)


def b_coeff(n: int, alpha: OrderParam | float) -> float:
    """b_n(alpha); strictly positive, b_0 = 1, b_1 = 2(alpha+1)."""
    return math.exp(log_b_coeff(n, alpha))


def a_const(alpha: OrderParam | float) -> float:
    """Normalization of the compact integral representation of the kernel:
    Gamma(alpha+1) / (sqrt(pi) Gamma(alpha+1/2))."""
    a = as_order(alpha).alpha
    return math.exp(math.lgamma(a + 1) - math.lgamma(a + 0.5)) / math.sqrt(math.pi)


def a_sonine(alpha: OrderParam | float, beta: OrderParam | float) -> float:
    """Sonine prefactor Gamma(beta+1)/(Gamma(beta-alpha) Gamma(alpha+1)), beta > alpha."""
    a = as_source_order(alpha).alpha
    b = as_order(beta).alpha
    if not b > a:
        raise ValueError(f"Sonine prefactor requires beta > alpha, got alpha={a}, beta={b}")
    return math.exp(math.lgamma(b + 1) - math.lgamma(b - a) - math.lgamma(a + 1))


def c_const(alpha: OrderParam | float) -> float:
    """Inversion/Plancherel constant 1 / [2^(alpha+1) Gamma(alpha+1)]^2."""
    a = as_order(alpha).alpha
    return math.exp(-2.0 * ((a + 1) * math.log(2) + math.lgamma(a + 1)))


def _half_integer_order(a: float, tol: float = 1e-12) -> bool:
    return abs((a + 0.5) - round(a + 0.5)) < tol


def d_const(alpha: OrderParam | float) -> tuple[int, float]:
    """Integer part r = [alpha+1/2] and the constant
    2^(-r) pi / (Gamma(alpha+1) Gamma(r-alpha+1/2)) of the inverse-intertwiner
    integro-differential formulas.

    Orders with alpha + 1/2 an integer make the fractional order of the inner
    integral degenerate and are rejected rather than special-cased.
    """
    a = as_order(alpha).alpha
    if _half_integer_order(a):
        raise ValueError(
            f"alpha={a}: alpha + 1/2 is an integer; the integro-differential "
            "inversion formulas are unsupported at these orders"
        )
    r = math.floor(a + 0.5)
    g = r - a + 0.5
    if g <= 0:
        raise ValueError(f"alpha={a}: nonpositive Gamma argument {g} in inversion constant")
    d = math.exp(-r * math.log(2) + math.log(math.pi) - math.lgamma(a + 1) - math.lgamma(g))
    return r, d


def inverse_intertwiner_const(alpha: OrderParam | float) -> tuple[int, float]:
    """Working normalization of the inverse-intertwiner formulas.

    Equals d_const / sqrt(pi).  The sqrt(pi) mismatch of the d_const value
    against the actual operator inverse is verified numerically in the test
    suite: with d_const itself the formulas return sqrt(pi) * V^{-1}(f).
    """
    r, d = d_const(alpha)
    return r, d / math.sqrt(math.pi)


def j_norm(alpha: OrderParam | float, u) -> np.ndarray:
    """Normalized Bessel function Gamma(alpha+1) (2/u)^alpha J_alpha(u) for
    real or complex u (real input, real output); even, entire, 1 at u = 0.

    Sums the power series sum_n (-u^2/4)^n / (n! (alpha+1)_n) where its
    cancellation factor exp(|u| - |Im u|) is below e^0.35, and calls ``jv``
    (Amos) elsewhere, after mapping u to Re u >= 0 by evenness.
    """
    a = as_order(alpha).alpha
    u = np.asarray(u, dtype=complex if np.iscomplexobj(u) else float)
    out = np.empty(u.shape, dtype=u.dtype)
    series = np.abs(u) - np.abs(u.imag) < _SERIES_LOSS
    w = -((u[series] / 2.0) ** 2)
    term = np.ones_like(w)
    total = term.copy()
    for n in range(1, _SERIES_CAP + 1):
        term = term * w / (n * (n + a))
        total += term
        if n >= 3 and np.all(np.abs(term) < _REL_STOP * np.maximum(np.abs(total), 1e-300)):
            break
    else:
        raise SeriesNonConvergence(f"normalized Bessel series did not converge for alpha={a}")
    out[series] = total
    ub = u[~series]
    ub = np.abs(ub) if ub.dtype == float else np.where(ub.real < 0, -ub, ub)
    out[~series] = math.exp(math.lgamma(a + 1.0)) * (2.0 / ub) ** a * jv(a, ub)
    return out


def bessel_mod_array(alpha: OrderParam | float, z) -> np.ndarray:
    """Modified normalized Bessel function of order alpha, j_norm(alpha, iz) =
    Gamma(alpha+1) sum_n (z/2)^(2n) / (n! Gamma(n+alpha+1)), for |z| <= Z_MAX."""
    z = np.asarray(z, dtype=complex)
    if z.size and np.max(np.abs(z)) > Z_MAX:
        raise ValueError(f"argument exceeds the radius Z_MAX = {Z_MAX}")
    return j_norm(alpha, 1j * z)
