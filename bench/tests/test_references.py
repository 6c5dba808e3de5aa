"""The benchmark's reference formulas against mpmath quadrature of the
defining integrals, at a few points."""

import mpmath
import pytest

import references as ref

mp = mpmath.mp


def j_norm(a, u):
    """Gamma(a+1) (2/u)^a J_a(u), even and 1 at 0."""
    return mpmath.hyp0f1(a + 1, -u * u / 4)


@pytest.mark.parametrize("alpha, z", [(0.5, 1.3), (0.0, -2.2), (1.5, 2j), (-0.25, 0.7 - 1.1j)])
def test_kernel_is_the_compact_integral(alpha, z):
    with mp.workdps(25):
        a = mpmath.mpf(alpha)
        norm = mpmath.gamma(a + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5))
        # t = sin(theta) in a_alpha int_-1^1 e^(zt) (1-t^2)^(alpha-1/2) (1+t) dt
        want = norm * mpmath.quad(
            lambda th: mpmath.exp(z * mpmath.sin(th)) * mpmath.cos(th) ** (2 * a) * (1 + mpmath.sin(th)),
            [-mpmath.pi / 2, mpmath.pi / 2])
        assert abs(ref.kernel(alpha, z) - complex(want)) <= 1e-13 * abs(complex(want))


@pytest.mark.parametrize("alpha, r, lam", [(0.5, 0.7, 1.9), (-0.25, 1.4, 0.6), (1.5, 1.0, 3.0)])
def test_gaussian_transforms_are_the_weighted_integrals(alpha, r, lam):
    a = mpmath.mpf(alpha)
    even = 2 * mpmath.quad(lambda x: mpmath.exp(-r * x * x) * j_norm(a, lam * x) * x ** (2 * a + 1), [0, mpmath.inf])
    odd = 2 * mpmath.quad(
        lambda x: x * mpmath.exp(-r * x * x) * (-1j * lam * x / (2 * (a + 1))) * j_norm(a + 1, lam * x) * x ** (2 * a + 1),
        [0, mpmath.inf])
    assert complex(ref.gaussian_transform(alpha, r, lam)) == pytest.approx(complex(even), rel=1e-12)
    assert complex(ref.odd_gaussian_transform(alpha, r, lam)) == pytest.approx(complex(odd), rel=1e-12)


def sonine_prefactor(a, b):
    return mpmath.gamma(b + 1) / (mpmath.gamma(b - a) * mpmath.gamma(a + 1))


@pytest.mark.parametrize("alpha, beta, r, x", [(0.0, 0.5, 1.0, 1.3), (0.5, 2.5, 0.6, -2.0), (1.5, 2.5, 1.7, 0.4)])
def test_sonine_closed_forms_are_the_integrals(alpha, beta, r, x):
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    pref = sonine_prefactor(a, b)
    direct = pref * mpmath.quad(lambda s: mpmath.exp(-r * x * x * s) * (1 - s) ** (b - a - 1) * s**a, [0, 1])
    dual = pref * mpmath.quad(lambda v: v ** (b - a - 1) * mpmath.exp(-r * (v + x * x)), [0, 1, mpmath.inf])
    assert ref.sonine_gaussian(alpha, beta, r, x) == pytest.approx(float(direct), rel=1e-12)
    assert ref.dual_sonine_gaussian(alpha, beta, r, x) == pytest.approx(float(dual), rel=1e-12)


@pytest.mark.parametrize("alpha, r, x", [(0.0, 1.0, 0.5), (1.5, 0.8, -1.2)])
def test_dual_intertwiner_closed_form_is_the_integral(alpha, r, x):
    a = mpmath.mpf(alpha)
    norm = mpmath.gamma(a + 1) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(a + 0.5))
    want = norm * mpmath.quad(lambda v: v ** (a - 0.5) * mpmath.exp(-r * (v + x * x)), [0, 1, mpmath.inf])
    assert ref.dual_intertwiner_gaussian(alpha, r, x) == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("sigma, r, x", [(-0.8, 1.0, 0.9), (2.0, 0.7, 1.6), (0.0, 1.3, 0.4)])
def test_multiplier_closed_form_is_the_inverse_transform(sigma, r, x):
    alpha = 0.5
    a = mpmath.mpf(alpha)
    c = 1 / (2 ** (a + 1) * mpmath.gamma(a + 1)) ** 2
    want = 2 * c * mpmath.quad(
        lambda lam: lam**sigma * mpmath.gamma(a + 1) * r ** (-a - 1) * mpmath.exp(-lam * lam / (4 * r))
        * j_norm(a, lam * x) * lam ** (2 * a + 1),
        [0, mpmath.inf])
    assert ref.multiplier_gaussian(alpha, sigma, r, x) == pytest.approx(float(want), rel=1e-11)
