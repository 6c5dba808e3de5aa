"""Reference values computed independently of dunkl: closed forms in double
precision, and hypergeometric functions with mpmath at 30 digits.

Conventions follow dunkl's: E_alpha is the kernel normalised to 1 at 0, the
transform is F f(lam) = int f(x) E_alpha(-i lam x) |x|^(2 alpha + 1) dx, and
S, tS, tV are the Sonine transform, its dual and the dual intertwiner.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30


def _c(z) -> complex:
    return complex(z)


def kernel(alpha: float, z: complex) -> complex:
    """E_alpha(z) = 0F1(;alpha+1;z^2/4) + z/(2(alpha+1)) 0F1(;alpha+2;z^2/4)."""
    a = mpmath.mpf(alpha)
    z = mpmath.mpc(z)
    w = z * z / 4
    return _c(mpmath.hyp0f1(a + 1, w) + z / (2 * (a + 1)) * mpmath.hyp0f1(a + 2, w))


def gaussian_transform(alpha: float, r: float, lam):
    """F(exp(-r x^2))(lam) = Gamma(alpha+1) r^(-alpha-1) exp(-lam^2/(4r)); lam may be an array."""
    lam = np.asarray(lam, dtype=float)
    return math.gamma(alpha + 1.0) * r ** (-alpha - 1.0) * np.exp(-lam * lam / (4.0 * r)) + 0j


def odd_gaussian_transform(alpha: float, r: float, lam):
    """F(x exp(-r x^2))(lam) = -i lam Gamma(alpha+1)/2 r^(-alpha-2) exp(-lam^2/(4r))."""
    lam = np.asarray(lam, dtype=float)
    return -0.5j * lam * math.gamma(alpha + 1.0) * r ** (-alpha - 2.0) * np.exp(-lam * lam / (4.0 * r))


def sonine_gaussian(alpha: float, beta: float, r: float, x: float) -> float:
    """S exp(-r x^2) = 1F1(alpha+1; beta+1; -r x^2)."""
    return float(mpmath.hyp1f1(mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1, -mpmath.mpf(r) * mpmath.mpf(x) ** 2))


def dual_sonine_gaussian(alpha: float, beta: float, r: float, x: float) -> float:
    """tS exp(-r x^2) = Gamma(beta+1)/Gamma(alpha+1) r^(alpha-beta) exp(-r x^2)."""
    a, b, r, x = (mpmath.mpf(v) for v in (alpha, beta, r, x))
    return float(mpmath.gamma(b + 1) / mpmath.gamma(a + 1) * r ** (a - b) * mpmath.exp(-r * x * x))


def dual_intertwiner_gaussian(alpha: float, r: float, x: float) -> float:
    """tV exp(-r x^2) = Gamma(alpha+1)/sqrt(pi) r^(-alpha-1/2) exp(-r x^2)."""
    a, r, x = (mpmath.mpf(v) for v in (alpha, r, x))
    return float(mpmath.gamma(a + 1) / mpmath.sqrt(mpmath.pi) * r ** (-a - mpmath.mpf(0.5)) * mpmath.exp(-r * x * x))


def multiplier_gaussian(alpha: float, sigma: float, r: float, x: float) -> float:
    """Inverse transform of |lam|^sigma F(exp(-r x^2)):

    r^(sigma/2) 2^sigma Gamma(m)/Gamma(alpha+1) 1F1(m; alpha+1; -r x^2),
    m = sigma/2 + alpha + 1 (termwise Hankel integral of the Gaussian)."""
    a, s, r, x = (mpmath.mpf(v) for v in (alpha, sigma, r, x))
    m = s / 2 + a + 1
    return float(r ** (s / 2) * 2**s * mpmath.gamma(m) / mpmath.gamma(a + 1) * mpmath.hyp1f1(m, a + 1, -r * x * x))
