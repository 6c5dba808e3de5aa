"""Function representations the operator calculus acts on.

PolyFunction is the exact backbone: every operator in the package has a
closed diagonal or triangular action on monomials, and all quadrature paths
are validated against it.  PolyGaussian covers the Schwartz-class test
functions p(x) exp(-a x^2) with exact derivatives, parity splits, odd
quotients and Taylor data, so no smooth-function code path ever needs finite
differences for its own inputs.  GridFunction carries sampled data on an
exactly symmetric grid.

Every routine that acts on smooth functions reads them through one
protocol, SmoothFunction: value, even part, odd quotient, derivative and
Taylor coefficients.  The function classes implement it, and ``as_smooth``
wraps any other callable in a WrappedFunction, which divides for the odd
quotient and raises where it has no data.  The difference-differential
operator lives here, next to the classes it is exact on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from .special import OrderParam, as_order, bessel_mod_array, log_b_coeff

__all__ = [
    "SmoothFunction",
    "as_smooth",
    "dunkl_operator",
    "PolyFunction",
    "PolyGaussian",
    "GridFunction",
    "KernelFunction",
    "WrappedFunction",
    "gaussian",
    "monomial_gaussian",
]

_ODD_QUOTIENT_EPS = 1e-8
_DF_MEAN_RULE = np.polynomial.legendre.leggauss(12)


def _trim(coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.atleast_1d(np.asarray(coeffs))
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return coeffs[:1] * 0
    return coeffs[: nz[-1] + 1]


@runtime_checkable
class SmoothFunction(Protocol):
    """What the calculus reads from a smooth function f.  ``odd_quotient`` is
    (f(x) - f(-x))/(2x) with its removable singularity at 0 evaluated, and
    ``taylor_coeff(k)`` is f^(k)(0)/k!.  A method raises ValueError where
    the object has no such data."""

    def __call__(self, x): ...

    def even_part(self, x): ...

    def odd_quotient(self, x): ...

    def derivative(self, x): ...

    def taylor_coeff(self, k: int): ...


@dataclass(frozen=True)
class PolyFunction:
    """Polynomial sum_n c_n x^n with exact coefficient arithmetic."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x), self.coeffs)

    def derivative(self, x=None):
        dcoeffs = np.polynomial.polynomial.polyder(self.coeffs)
        if len(dcoeffs) == 0:
            dcoeffs = np.zeros(1)
        df = PolyFunction(dcoeffs)
        return df if x is None else df(x)

    def even_fn(self) -> "PolyFunction":
        c = self.coeffs.copy()
        c[1::2] = 0
        return PolyFunction(c)

    def odd_fn(self) -> "PolyFunction":
        c = self.coeffs.copy()
        c[0::2] = 0
        return PolyFunction(c)

    def odd_quotient_fn(self) -> "PolyFunction":
        """(odd part)/x, a polynomial in x^2."""
        c = self.coeffs
        odd = c[1::2]
        if odd.size == 0:
            return PolyFunction(np.zeros(1, dtype=c.dtype))
        out = np.zeros(2 * odd.size - 1, dtype=c.dtype)
        out[0::2] = odd
        return PolyFunction(out)

    def odd_quotient(self, x):
        return self.odd_quotient_fn()(x)

    def even_part(self, x):
        return self.even_fn()(x)

    def taylor_coeff(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else 0.0

    def scaled(self, factors: np.ndarray) -> "PolyFunction":
        """Coefficientwise multiplication; the diagonal operator actions."""
        factors = np.asarray(factors)
        if len(factors) < len(self.coeffs):
            raise ValueError("not enough diagonal factors")
        return PolyFunction(self.coeffs * factors[: len(self.coeffs)])

    def __add__(self, other: "PolyFunction") -> "PolyFunction":
        return PolyFunction(np.polynomial.polynomial.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "PolyFunction") -> "PolyFunction":
        return PolyFunction(np.polynomial.polynomial.polysub(self.coeffs, other.coeffs))

    @classmethod
    def monomial(cls, n: int) -> "PolyFunction":
        c = np.zeros(n + 1)
        c[n] = 1.0
        return cls(c)


@dataclass(frozen=True)
class PolyGaussian:
    """p(x) exp(-rate x^2): the Schwartz-class workhorse.

    Closed under d/dx, parity splitting and odd-quotient division, which is
    what makes the difference-differential operator exact on this class.
    """

    poly: PolyFunction
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("decay rate must be positive")
        if not isinstance(self.poly, PolyFunction):
            object.__setattr__(self, "poly", PolyFunction(np.asarray(self.poly)))

    def __call__(self, x):
        x = np.asarray(x)
        return self.poly(x) * np.exp(-self.rate * x**2)

    def derivative_fn(self) -> "PolyGaussian":
        p, a = self.poly, self.rate
        dp = p.derivative()
        shifted = PolyFunction(np.polynomial.polynomial.polymul(np.array([0.0, -2.0 * a]), p.coeffs))
        return PolyGaussian(dp + shifted, a)

    def derivative(self, x):
        return self.derivative_fn()(x)

    def even_fn(self) -> "PolyGaussian":
        return PolyGaussian(self.poly.even_fn(), self.rate)

    def odd_quotient_fn(self) -> "PolyGaussian":
        return PolyGaussian(self.poly.odd_quotient_fn(), self.rate)

    def odd_quotient(self, x):
        return self.odd_quotient_fn()(x)

    def even_part(self, x):
        return self.even_fn()(x)

    def taylor_coeff(self, k: int):
        # coefficients of p(x) * sum_j (-a)^j x^(2j)/j!
        total = 0.0
        for j in range(k // 2 + 1):
            pk = self.poly.taylor_coeff(k - 2 * j)
            if pk != 0:
                total += pk * (-self.rate) ** j / math.factorial(j)
        return total


def gaussian(rate: float = 1.0) -> PolyGaussian:
    return PolyGaussian(PolyFunction(np.array([1.0])), rate)


def monomial_gaussian(n: int) -> PolyGaussian:
    """x^n exp(-x^2)."""
    return PolyGaussian(PolyFunction.monomial(n))


@dataclass(frozen=True)
class GridFunction:
    """Samples on a strictly increasing grid that is exactly symmetric
    about 0 (x on the grid implies -x on the grid)."""

    grid: np.ndarray
    values: np.ndarray
    smoothness_hint: str = "generic"

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be equal-length 1-d arrays")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.array_equal(grid, -grid[::-1]):
            raise ValueError("grid must be exactly symmetric about 0; build it as a +/- half-grid")
        if self.smoothness_hint not in ("schwartz", "polynomial_times_gaussian", "generic"):
            raise ValueError(f"unknown smoothness hint {self.smoothness_hint!r}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


class KernelFunction:
    """x -> E_alpha(lam x) as a smooth function object with exact derivative,
    odd quotient and Taylor data.

    E_alpha(z) = B_alpha(z) + z/(2(alpha+1)) B_{alpha+1}(z) where B is the
    even entire function bessel_mod_array.
    """

    def __init__(self, alpha: OrderParam | float, lam: complex):
        self.order = as_order(alpha)
        self.lam = complex(lam)

    def __call__(self, x):
        a = self.order.alpha
        z = self.lam * np.asarray(x, dtype=complex)
        return bessel_mod_array(a, z) + z / (2.0 * (a + 1.0)) * bessel_mod_array(a + 1.0, z)

    def derivative(self, x):
        # E'(z) = [(z+1) B_{a+1}(z) + z^2 B_{a+2}(z)/(2(a+2))] / (2(a+1))
        a = self.order.alpha
        z = self.lam * np.asarray(x, dtype=complex)
        b1, b2 = bessel_mod_array(a + 1.0, z), bessel_mod_array(a + 2.0, z)
        ez = ((z + 1.0) * b1 + z**2 * b2 / (2.0 * (a + 2.0))) / (2.0 * (a + 1.0))
        return self.lam * ez

    def odd_quotient(self, x):
        a = self.order.alpha
        z = self.lam * np.asarray(x, dtype=complex)
        return self.lam * bessel_mod_array(a + 1.0, z) / (2.0 * (a + 1.0))

    def even_part(self, x):
        return bessel_mod_array(self.order.alpha, self.lam * np.asarray(x, dtype=complex))

    def taylor_coeff(self, k: int) -> complex:
        return self.lam**k * math.exp(-log_b_coeff(k, self.order))


class WrappedFunction:
    """A bare callable as a SmoothFunction, with optional derivative and
    Taylor evaluators.

    The odd quotient divides f(x) - f(-x) by 2x.  Where that difference
    loses over two digits and |x| < 1e-2, the derivative evaluator gives
    instead the mean of f' over [-x, x] (12-node Gauss-Legendre); without
    one, |x| < 1e-8 raises.
    """

    def __init__(self, f: Callable, df: Optional[Callable] = None, taylor: Optional[Callable] = None):
        self._f = f
        self._df = df
        self._taylor = taylor

    def __call__(self, x):
        return self._f(x)

    def derivative(self, x):
        if self._df is None:
            raise ValueError("wrapped function has no derivative evaluator")
        return self._df(x)

    def odd_quotient(self, x):
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < _ODD_QUOTIENT_EPS
        if np.any(small) and self._df is None:
            raise ValueError("odd quotient at |x| < 1e-8 needs a derivative evaluator: wrap f as WrappedFunction(f, df=...)")
        safe = np.where(small, 1.0, x)
        fp, fm = np.asarray(self._f(safe)), np.asarray(self._f(-safe))
        out = (fp - fm) / (2.0 * safe)
        near = small | ((np.abs(x) < 1e-2) & (100.0 * np.abs(fp - fm) < np.abs(fp) + np.abs(fm)))
        if self._df is not None and np.any(near):
            s, w = _DF_MEAN_RULE
            mean = 0.5 * (np.asarray(self._df(np.outer(x[near], s).ravel())).reshape(-1, s.size) @ w)
            out = np.array(out, dtype=np.result_type(out, mean))
            out[near] = mean
        return out[()]

    def even_part(self, x):
        x = np.asarray(x)
        return 0.5 * (np.asarray(self._f(x)) + np.asarray(self._f(-x)))

    def taylor_coeff(self, k: int):
        if self._taylor is None:
            raise ValueError("taylor_coeff: the wrapped function has no Taylor data")
        return self._taylor(k)


def as_smooth(f) -> SmoothFunction:
    """``f`` itself if it implements SmoothFunction, else ``f`` wrapped in a
    WrappedFunction without derivative or Taylor data."""
    return f if isinstance(f, SmoothFunction) else WrappedFunction(f)


def dunkl_operator(alpha: OrderParam | float, f):
    """First-order difference-differential operator
    f -> f' + (2 alpha + 1) (f(x) - f(-x)) / (2x).

    Exact on PolyFunction and PolyGaussian.  Any other input comes back as a
    value-only wrapper; one without a derivative evaluator raises here.
    """
    a = as_order(alpha).alpha
    if isinstance(f, PolyFunction):
        c = f.coeffs
        if len(c) == 1:
            return PolyFunction(np.zeros(1, dtype=c.dtype))
        out = np.zeros(len(c) - 1, dtype=np.result_type(c.dtype, float))
        for n in range(1, len(c)):
            gain = n if n % 2 == 0 else n + 2.0 * a + 1.0
            out[n - 1] = gain * c[n]
        return PolyFunction(out)
    if isinstance(f, PolyGaussian):
        deriv = f.derivative_fn()
        refl = PolyFunction((2.0 * a + 1.0) * f.odd_quotient_fn().poly.coeffs)
        return PolyGaussian(deriv.poly + refl, f.rate)
    f = as_smooth(f)
    f.derivative(0.0)  # fails now, not at the first evaluation, without a derivative evaluator
    return WrappedFunction(lambda x: f.derivative(x) + (2.0 * a + 1.0) * f.odd_quotient(x))
