"""Function objects: polynomials, Gaussians, grids, kernel eigenfunctions."""

import numpy as np
import pytest

from dunkl.core import dunkl_kernel
from dunkl.functions import (
    GridFunction,
    KernelFunction,
    PolyFunction,
    PolyGaussian,
    WrappedFunction,
    gaussian,
    monomial_gaussian,
)


class TestPolyFunction:
    def test_eval_and_derivative(self):
        p = PolyFunction(np.array([1.0, -2.0, 3.0]))
        assert p(2.0) == pytest.approx(1 - 4 + 12)
        assert p.derivative()(2.0) == pytest.approx(-2 + 12)

    def test_parity_split(self):
        p = PolyFunction(np.array([1.0, 5.0, 0.0, -2.0]))
        x = 1.7
        odd = (p(x) - p(-x)) / 2.0
        assert p.even_fn()(x) + odd == pytest.approx(p(x))
        assert p.odd_quotient_fn()(x) * x == pytest.approx(odd)

    def test_odd_quotient_constant(self):
        p = PolyFunction(np.array([3.0]))
        assert p.odd_quotient_fn()(0.4) == 0.0

    def test_monomial(self):
        assert PolyFunction.monomial(3)(2.0) == 8.0


class TestPolyGaussian:
    def test_derivative_matches_fd(self):
        f = PolyGaussian(PolyFunction(np.array([0.5, 1.0, -0.3])), 0.8)
        h = 1e-6
        for x in (-1.2, 0.0, 2.3):
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert f.derivative(x) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_odd_quotient_exact_at_zero(self):
        f = monomial_gaussian(1)
        assert f.odd_quotient(0.0) == pytest.approx(1.0)

    def test_taylor(self):
        f = gaussian()
        # e^{-x^2} = 1 - x^2 + x^4/2 - ...
        assert f.taylor_coeff(0) == pytest.approx(1.0)
        assert f.taylor_coeff(2) == pytest.approx(-1.0)
        assert f.taylor_coeff(4) == pytest.approx(0.5)
        assert f.taylor_coeff(3) == 0.0

    def test_even_part(self):
        f = PolyGaussian(PolyFunction(np.array([1.0, 1.0])), 1.0)
        x = np.array([0.3, 1.1])
        np.testing.assert_allclose(f.even_part(x), 0.5 * (f(x) + f(-x)), rtol=1e-14)


class TestGridFunction:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([-1.0, 0.5, 1.0]), np.zeros(3))

    def test_from_half_and_parity(self):
        half = np.array([0.5, 1.0, 2.0])
        g = GridFunction(np.concatenate([-half[::-1], half]), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        even = 0.5 * (g.values + g.values[::-1])
        odd = 0.5 * (g.values - g.values[::-1])
        np.testing.assert_array_equal(even + odd, g.values)
        # parity split is exact, not approximate
        np.testing.assert_array_equal(even, even[::-1])

    def test_monotone_enforced(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([-1.0, -1.0, 1.0, 1.0]), np.zeros(4))


class TestKernelFunction:
    def test_matches_kernel(self):
        kf = KernelFunction(0.7, 1.3)
        for x in (-2.0, 0.0, 0.9):
            assert kf(x) == pytest.approx(dunkl_kernel(0.7, 1.3 * x), rel=1e-13)

    def test_derivative_matches_fd(self):
        kf = KernelFunction(0.4, 0.9j)
        h = 1e-6
        for x in (-1.0, 0.3, 1.8):
            fd = (kf(x + h) - kf(x - h)) / (2 * h)
            assert abs(kf.derivative(x) - fd) < 1e-7

    def test_parity_consistency(self):
        kf = KernelFunction(1.1, 2.0)
        x = 0.8
        even = kf.even_part(x)
        oddq = kf.odd_quotient(x)
        assert even + x * oddq == pytest.approx(kf(x), rel=1e-13)

    def test_taylor_is_inverse_b(self):
        from dunkl.special import b_coeff

        kf = KernelFunction(0.5, 2.0)
        for k in (0, 1, 4, 7):
            assert kf.taylor_coeff(k) == pytest.approx(2.0**k / b_coeff(k, 0.5), rel=1e-13)


class TestWrappedFunction:
    def test_odd_quotient_limit(self):
        f = WrappedFunction(lambda x: np.sin(np.asarray(x)), df=lambda x: np.cos(np.asarray(x)))
        assert f.odd_quotient(1e-12) == pytest.approx(1.0)
        assert f.odd_quotient(0.5) == pytest.approx(np.sin(0.5) / 0.5)

    def test_odd_quotient_accurate_near_zero(self):
        # f(x) - f(-x) over 2x alone keeps about eight digits at x = 2e-8
        f = WrappedFunction(np.exp, df=np.exp)
        x = np.geomspace(1e-9, 1e-3, 61)
        for xs in (x, -x):
            want = np.sinh(xs) / xs
            assert np.max(np.abs(f.odd_quotient(xs) - want) / want) <= 1e-13
        assert abs(f.odd_quotient(2e-8) - np.sinh(2e-8) / 2e-8) <= 1e-13

    def test_odd_quotient_without_derivative_raises_below_cutoff(self):
        f = WrappedFunction(np.exp)
        for x in (0.0, 5e-9, -9.9e-9, np.array([1e-3, 1e-9])):
            with pytest.raises(ValueError, match="derivative"):
                f.odd_quotient(x)
        assert f.odd_quotient(1e-8) == pytest.approx(1.0, rel=1e-7)

    def test_missing_derivative(self):
        f = WrappedFunction(lambda x: np.asarray(x) ** 3)
        with pytest.raises(ValueError):
            f.derivative(0.1)
        with pytest.raises(ValueError):
            f.odd_quotient(0.0)
