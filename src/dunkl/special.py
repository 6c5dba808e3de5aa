"""Gamma-based constants and coefficient sequences of the rank-one Dunkl
calculus, and its normalized Bessel evaluators ``j_norm`` and ``j_norm_pair``.

Everything downstream (quadrature weights, kernel series, Sonine prefactors,
the Plancherel constant) is a ratio of Gamma values.  All ratios are formed as
differences of log-Gamma and exponentiated at the end, so factorial-scale
coefficient growth never overflows an intermediate.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, jve

__all__ = [
    "OrderParam",
    "CLASSICAL_ORDER",
    "SeriesNonConvergence",
    "as_order",
    "as_source_order",
    "b_coeff",
    "log_b_coeff",
    "a_const",
    "a_sonine",
    "c_const",
    "j_norm",
    "j_norm_pair",
    "bessel_mod_array",
]

_SERIES_LOSS = 0.35  # j_norm's series bound on |u| - |Im u|
_SERIES_CAP = 500
_REL_STOP = 1e-16
_TAIL = 1e-17  # bound on the first omitted term of each real band at its edge
_MILLER_START = 54  # the first even order n with (20/2)^n / n! < _TAIL
#: log of the largest double: beyond |Re z| = 709.78, e^z and the kernel overflow.
_RE_MAX = math.log(np.finfo(float).max)


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
#: OrderParam's check and is admitted only as a Sonine source order and by
#: dunkl_operator (see as_source_order); S_{-1/2,alpha} is the intertwiner V_alpha.
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
    """as_order, also admitting -1/2: for SoninePair, log_b_coeff, a_sonine and dunkl_operator only."""
    if alpha is CLASSICAL_ORDER or (not isinstance(alpha, OrderParam) and float(alpha) == -0.5):
        return CLASSICAL_ORDER
    return as_order(alpha)


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


def _series(a: float, u: np.ndarray) -> np.ndarray:
    """sum_n (-u^2/4)^n / (n! (a+1)_n), where |u| - |Im u| < _SERIES_LOSS."""
    w = -((u / 2.0) ** 2)
    term, total = np.ones_like(w), np.ones_like(w)
    for n in range(1, _SERIES_CAP + 1):
        term = term * (w / (n * (n + a)))  # w / n^2 first: term * w overflows near |u| = 709
        total += term
        if n >= 3 and np.all(np.abs(term) < _REL_STOP * np.maximum(np.abs(total), 1e-300)):
            return total
    raise SeriesNonConvergence(f"normalized Bessel series did not converge for alpha={a}")


def _horner(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each column of ``rows`` (terms, columns, 1; highest power first) at the points x: np.polyval in place."""
    acc = np.repeat(rows[0], x.size, axis=1)
    for row in rows[1:]:
        acc *= x
        acc += row
    return acc


@functools.lru_cache(maxsize=256)
def _series_rows(a: float) -> np.ndarray:
    """Rows of both orders' series in u^2, c_n = (-1/4)^n / (n! (v+1)_n) at v = a, a + 1, n <= 7: at u = 0.35
    the last term is at most 4.8e-18 (as alpha nears -1/2), where the adaptive ``_series`` would have stopped."""
    steps = [(1.0, 1.0), *((-0.25 / (n * (n + a)), -0.25 / (n * (n + a + 1.0))) for n in range(1, 8))]
    return np.cumprod(steps, axis=0)[::-1, :, None]


def _series_pair(a: float, u: np.ndarray) -> np.ndarray:
    return _horner(_series_rows(a), u * u)


@functools.lru_cache(maxsize=256)
def _neumann_weights(a: float) -> tuple[float, ...]:
    """The Neumann weights over Gamma(a+1): 1, then (a+2k) Gamma(a+k) / (k! Gamma(a+1)), k <= _MILLER_START / 2."""
    g = np.cumprod([1.0, *((a + k) / (k + 1) for k in range(1, _MILLER_START // 2))])
    return (1.0, *((a + 2 * k) * g[k - 1] for k in range(1, _MILLER_START // 2 + 1)))


def _miller_pair(a: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j_a, j_{a+1}) by Miller's backward recurrence J_{v-1} = (2v/u) J_v - J_{v+1} from
    v = _MILLER_START, normalised by the Neumann sum (u/2)^a = sum_k (a+2k) Gamma(a+k)/k! J_{a+2k}(u),
    whose k = 0 term is Gamma(a+1) J_a; 0 < u < 20."""
    d = _neumann_weights(a)
    two_u, total = 2.0 / u, d[-1] * 1e-200
    upper, cur, spare = np.zeros_like(u), np.full_like(u, 1e-200), np.empty_like(u)
    for v in range(_MILLER_START, 0, -1):  # (upper, cur) = (J_{a+v}, J_{a+v-1}), unnormalised, in place
        np.multiply(two_u, a + v, out=spare)
        spare *= cur
        spare -= upper
        upper, cur, spare = cur, spare, upper
        if v % 2:
            total = total + d[v // 2] * cur
    return cur / total, (a + 1.0) * two_u * upper / total


@functools.lru_cache(maxsize=256)
def _hankel_rows(a: float, edge: float) -> np.ndarray | None:
    """Rows (P_a, P_{a+1}, uQ_a, uQ_{a+1}) in -1/u^2 of Hankel's expansion on u >= edge, up to the first
    term under _TAIL at both orders and u = edge; None if none of the first 64 is."""
    coef = [(1.0, 1.0)]  # a_k(v) = prod_{j<=k} (4v^2 - (2j-1)^2) / (k! 8^k)
    for k in range(1, 64):
        coef.append(tuple(c * (4.0 * v * v - (2 * k - 1) ** 2) / (8.0 * k) for c, v in zip(coef[-1], (a, a + 1.0))))
        if max(map(abs, coef[-1])) < _TAIL * edge**k:
            coef[-1] = (0.0, 0.0)  # the first omitted term; with an even count, the rows pair up
            return np.reshape(coef[: len(coef) // 2 * 2], (-1, 4, 1))[::-1]


def _hankel_pair(a: float, u: np.ndarray, edge: float) -> tuple[np.ndarray, np.ndarray]:
    """(j_a, j_{a+1}) on u >= edge >= 20 by Hankel's expansion (DLMF 10.17.3) with the rows of
    ``_hankel_rows``, or by ``jv`` where it has none.  With phi = a pi/2 + pi/4, J_a and J_{a+1}
    are Re and Im of sqrt(2/(pi u)) (P + iQ) e^{i(u - phi)}."""
    if (rows := _hankel_rows(a, edge)) is None:
        gamma = math.exp(math.lgamma(a + 1.0)) * (2.0 / u) ** a
        return gamma * jv(a, u), (a + 1.0) * (2.0 / u) * gamma * jv(a + 1.0, u)
    p_a, p_b, uq_a, uq_b = _horner(rows, -1.0 / (u * u))
    w, two_u = np.exp(1j * u) * cmath.exp(-1j * math.pi * ((a / 2.0 + 0.25) % 2.0)), 2.0 / u
    scale = math.exp(math.lgamma(a + 1.0)) / math.sqrt(math.pi) * two_u ** (a + 0.5)
    return scale * ((p_a + 1j * uq_a / u) * w).real, (a + 1.0) * two_u * scale * ((p_b + 1j * uq_b / u) * w).imag


#: edges between j_norm_pair's bands of |u|: the series, Miller's recurrence and three
#: Hankel sub-bands, each with its term count fixed by its edges and memoized per alpha
_BAND_EDGES = np.array([[_SERIES_LOSS], [20.0], [40.0], [80.0]])
_BANDS = (_series_pair, _miller_pair, *(functools.partial(_hankel_pair, edge=edge) for edge in _BAND_EDGES[1:, 0]))
#: points per block in which j_norm_pair evaluates a band, so no band's temporaries grow with the call
_BLOCK = 8192


def j_norm_pair(alpha: OrderParam | float, u) -> tuple[np.ndarray, np.ndarray]:
    """(j_norm(alpha, u), j_norm(alpha + 1, u)) for real u, each value from alpha and its own u alone: the
    power series where |u| < 0.35, Miller's recurrence below 20 and Hankel's expansion beyond, in the
    sub-bands [20, 40), [40, 80) and [80, inf), each in blocks of at most _BLOCK points; nan at inf and nan;
    in u's shape."""
    a, shape = as_order(alpha).alpha, np.shape(u)
    u = np.abs(np.asarray(u, dtype=float).ravel())
    u[np.isinf(u)] = np.nan  # nan compares false with every edge: it takes the series band, whose value is nan
    first, second = np.empty((2, u.size))
    index = (u >= _BAND_EDGES).sum(axis=0, dtype=np.int8)
    present = int(np.bitwise_or.reduce(1 << index))  # bit k is set where band k has points
    for k, pair in enumerate(_BANDS):
        if present >> k & 1:
            band = index == k
            if u.size > _BLOCK:  # the band's indices, to be cut into blocks
                band = np.flatnonzero(band)
            for start in range(0, band.size, _BLOCK):
                block = band[start : start + _BLOCK]
                first[block], second[block] = pair(a, u[block])
    return first.reshape(shape), second.reshape(shape)


def j_norm(alpha: OrderParam | float, u) -> np.ndarray:
    """Normalized Bessel function Gamma(alpha+1) (2/u)^alpha J_alpha(u) for
    real or complex u (real input, real output); even, entire, 1 at u = 0.

    Real u takes the first part of ``j_norm_pair``.  Complex u sums the series
    where its cancellation factor exp(|u| - |Im u|) is below e^0.35, and calls
    ``jve`` (Amos, scaled by e^-|Im u|) elsewhere, after mapping u to Re u >= 0
    by evenness; the scale e^|Im u| is applied last, so no factor overflows
    while the value itself does not (unscaled ``jv`` gives nan or inf there).
    """
    if not np.iscomplexobj(u):
        return j_norm_pair(alpha, u)[0]
    a, shape = as_order(alpha).alpha, np.shape(u)
    u = np.asarray(u, dtype=complex).ravel()  # flat masks index faster
    out = np.empty(u.shape, dtype=complex)
    series = np.abs(u) - np.abs(u.imag) < _SERIES_LOSS
    if np.any(series):
        out[series] = _series(a, u[series])
    ub = np.where(u.real < 0, -u, u)[~series]
    out[~series] = math.exp(math.lgamma(a + 1.0)) * (2.0 / ub) ** a * jve(a, ub) * np.exp(np.abs(ub.imag))
    return out.reshape(shape)


def bessel_mod_array(alpha: OrderParam | float, z) -> np.ndarray:
    """Modified normalized Bessel function of order alpha, j_norm(alpha, iz) =
    Gamma(alpha+1) sum_n (z/2)^(2n) / (n! Gamma(n+alpha+1)), on the box |Re z| <= 709.78
    beyond which it overflows; there, and at a nan or infinite part, it raises ValueError."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("z has a nan or infinite part")
    if z.size and np.max(np.abs(z.real)) > _RE_MAX:
        raise ValueError(f"|Re z| exceeds log(max double) = {_RE_MAX:.2f}: the value overflows")
    return j_norm(alpha, 1j * z)
