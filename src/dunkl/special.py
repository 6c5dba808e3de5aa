"""Gamma-based constants and coefficient sequences of the rank-one Dunkl
calculus, and its normalized Bessel evaluators ``j_norm`` and ``j_norm_pair``.

Everything downstream (quadrature weights, kernel series, Sonine prefactors,
inversion constants) is a ratio of Gamma values.  All ratios are formed as
differences of log-Gamma and exponentiated at the end, so factorial-scale
coefficient growth never overflows an intermediate.
"""

from __future__ import annotations

import cmath
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
    "j_norm_pair",
    "bessel_mod_array",
]

#: Radius of the kernel's series and Bessel routes.
Z_MAX = 60.0

_SERIES_LOSS = 0.35  # j_norm's series bound on |u| - |Im u|
_SERIES_CAP = 500
_REL_STOP = 1e-16
_HANKEL_MIN = 20.0  # j_norm_pair's Hankel band starts here
_HANKEL_CAP = 64
_TAIL = 1e-17  # truncation bound of Miller's start order and Hankel's term count


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


def _series(a: float, u: np.ndarray) -> np.ndarray:
    """sum_n (-u^2/4)^n / (n! (a+1)_n), where |u| - |Im u| < _SERIES_LOSS."""
    w = -((u / 2.0) ** 2)
    term, total = np.ones_like(w), np.ones_like(w)
    for n in range(1, _SERIES_CAP + 1):
        term = term * w / (n * (n + a))
        total += term
        if n >= 3 and np.all(np.abs(term) < _REL_STOP * np.maximum(np.abs(total), 1e-300)):
            return total
    raise SeriesNonConvergence(f"normalized Bessel series did not converge for alpha={a}")


def _miller_pair(a: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j_a, j_{a+1}) by Miller's backward recurrence J_{v-1} = (2v/u) J_v - J_{v+1},
    normalised by the Neumann sum (u/2)^a = sum_k (a+2k) Gamma(a+k)/k! J_{a+2k}(u),
    whose k = 0 term is Gamma(a+1) J_a; 0 < u < 20."""
    half = float(np.max(u)) / 2.0  # n: the first even order with (max u / 2)^n / n! < _TAIL
    n = next(n for n in range(2, 200, 2) if half**n / math.factorial(n) < _TAIL)
    g = np.cumprod([1.0, *((a + k) / (k + 1) for k in range(1, n // 2))])  # Gamma(a+k) / (k! Gamma(a+1)), k >= 1
    d = [1.0, *((a + 2 * k) * g[k - 1] for k in range(1, n // 2 + 1))]  # the Neumann weights over Gamma(a+1)
    two_u, upper, cur, total = 2.0 / u, np.zeros_like(u), np.full_like(u, 1e-200), d[-1] * 1e-200
    for v in range(n, 0, -1):  # (upper, cur) = (J_{a+v}, J_{a+v-1}), unnormalised
        upper, cur = cur, (a + v) * two_u * cur - upper
        if v % 2:
            total = total + d[v // 2] * cur
    return cur / total, (a + 1.0) * two_u * upper / total


def _hankel_pair(a: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j_a, j_{a+1}) on u >= 20 by Hankel's expansion (DLMF 10.17.3) up to the first term under
    _TAIL at both orders and the smallest u, or by ``jv`` if none within _HANKEL_CAP is.  With
    phi = a pi/2 + pi/4, J_a and J_{a+1} are Re and Im of sqrt(2/(pi u)) (P + iQ) e^{i(u - phi)}."""
    u_min, coef = float(np.min(u)), [(1.0, 1.0)]  # a_k(v) = prod_{j<=k} (4v^2 - (2j-1)^2) / (k! 8^k)
    for k in range(1, _HANKEL_CAP):
        coef.append(tuple(c * (4.0 * v * v - (2 * k - 1) ** 2) / (8.0 * k) for c, v in zip(coef[-1], (a, a + 1.0))))
        if max(map(abs, coef[-1])) < _TAIL * u_min**k:
            break
    else:
        gamma = math.exp(math.lgamma(a + 1.0)) * (2.0 / u) ** a
        return gamma * jv(a, u), (a + 1.0) * (2.0 / u) * gamma * jv(a + 1.0, u)
    coef[-1] = (0.0, 0.0)  # the first omitted term; with an even count, the rows pair up
    rows = np.reshape(coef[: len(coef) // 2 * 2], (-1, 4, 1))[::-1]  # (P_a, P_{a+1}, uQ_a, uQ_{a+1}) in -1/u^2
    p_a, p_b, uq_a, uq_b = np.polyval(rows, -1.0 / (u * u))
    w = np.exp(1j * u) * cmath.exp(-1j * math.pi * ((a / 2.0 + 0.25) % 2.0))
    scale = math.exp(math.lgamma(a + 1.0)) / math.sqrt(math.pi) * (2.0 / u) ** (a + 0.5)
    return scale * ((p_a + 1j * uq_a / u) * w).real, (a + 1.0) * (2.0 / u) * scale * ((p_b + 1j * uq_b / u) * w).imag


def j_norm_pair(alpha: OrderParam | float, u) -> tuple[np.ndarray, np.ndarray]:
    """(j_norm(alpha, u), j_norm(alpha + 1, u)) for real u: the power series where
    |u| < 0.35, Miller's recurrence below 20 and Hankel's expansion beyond."""
    a, u = as_order(alpha).alpha, np.abs(np.asarray(u, dtype=float))
    out = np.empty((2, *u.shape))
    near, far = u < _SERIES_LOSS, ~(u < _HANKEL_MIN)  # nan takes the far band and jv
    for band, pair in ((near, lambda v: (_series(a, v), _series(a + 1.0, v))),
                       (~(near | far), lambda v: _miller_pair(a, v)), (far, lambda v: _hankel_pair(a, v))):
        if np.any(band):
            out[:, band] = pair(u[band])
    return out[0], out[1]


def j_norm(alpha: OrderParam | float, u) -> np.ndarray:
    """Normalized Bessel function Gamma(alpha+1) (2/u)^alpha J_alpha(u) for
    real or complex u (real input, real output); even, entire, 1 at u = 0.

    Real u takes the first part of ``j_norm_pair``.  Complex u sums the series
    where its cancellation factor exp(|u| - |Im u|) is below e^0.35, and calls
    ``jv`` (Amos) elsewhere, after mapping u to Re u >= 0 by evenness.
    """
    if not np.iscomplexobj(u):
        return j_norm_pair(alpha, u)[0]
    a = as_order(alpha).alpha
    u = np.asarray(u, dtype=complex)
    out = np.empty(u.shape, dtype=complex)
    series = np.abs(u) - np.abs(u.imag) < _SERIES_LOSS
    out[series] = _series(a, u[series])
    ub = np.where(u.real < 0, -u, u)[~series]
    out[~series] = math.exp(math.lgamma(a + 1.0)) * (2.0 / ub) ** a * jv(a, ub)
    return out


def bessel_mod_array(alpha: OrderParam | float, z) -> np.ndarray:
    """Modified normalized Bessel function of order alpha, j_norm(alpha, iz) =
    Gamma(alpha+1) sum_n (z/2)^(2n) / (n! Gamma(n+alpha+1)), for |z| <= Z_MAX."""
    z = np.asarray(z, dtype=complex)
    if z.size and np.max(np.abs(z)) > Z_MAX:
        raise ValueError(f"argument exceeds the radius Z_MAX = {Z_MAX}")
    return j_norm(alpha, 1j * z)
