"""Fractional powers: kernel route vs multiplier route, and the
distributional pairing identities."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma
from scipy.special import rgamma

from dunkl.fractional import (
    _ForwardImage,
    angular_kernel,
    frac_power_kernel,
    pairing_symbol_constant,
    power_weight_identity,
    riesz_prefactor,
)
from dunkl.functions import PolyFunction, PolyGaussian, WrappedFunction, gaussian
from dunkl.quadrature import TailNonConvergence, homogeneous_pairing
from dunkl.report import pair_errs
from dunkl.special import c_const, log_b_coeff
from dunkl.transform import MultiplierSpec, apply_multiplier_fn


class TestAngularKernel:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_against_adaptive_quadrature(self, alpha, sign):
        lam = -0.4
        p = lam + alpha + 1.0
        for (x, y) in ((1.0, 0.5), (1.0, 1.3), (2.0, 1.95)):
            want, _ = quad(
                lambda t: (1 + sign * math.cos(t))
                * (x * x + y * y - 2 * x * y * math.cos(t)) ** (-p)
                * math.sin(t) ** (2 * alpha),
                0.0,
                math.pi,
                limit=400,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            got = angular_kernel(alpha, p, x, np.array([y]), sign)[0]
            assert got == pytest.approx(want, rel=1e-9)

    def test_extreme_proximity_finite(self):
        got = angular_kernel(0.5, 1.0, 1.0, np.array([1.0 - 1e-9]), 1)
        assert np.isfinite(got[0])


class TestRieszPrefactor:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            riesz_prefactor(0.5, 0.0)
        with pytest.raises(ValueError):
            riesz_prefactor(0.5, -1.6)
        assert riesz_prefactor(0.5, -0.5) > 0

    def test_vanishes_toward_zero(self):
        # 1/Gamma(-lam) -> 0 linearly as lam -> 0^-
        assert riesz_prefactor(0.5, -1e-6) == pytest.approx(0.0, abs=1e-4)


class TestCrossRoute:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("lam", [-0.3, -0.5])
    def test_kernel_vs_multiplier(self, plan_factory, alpha, lam):
        plan = plan_factory(alpha)
        f_grid = plan.sample(lambda x: np.exp(-(x**2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mult = apply_multiplier_fn(plan, f_grid, MultiplierSpec(2.0 * lam, 1.0))
        for x in (0.0, 1.0, 2.2, 0.37):
            km = float(np.real(mult(np.array([x]))[0]))
            kk = frac_power_kernel(alpha, lam, gaussian(), x)
            assert abs(km - kk) <= 1e-4 * abs(km)

    def test_even_symmetry(self):
        val_plus = frac_power_kernel(0.5, -0.4, gaussian(), 1.3)
        val_minus = frac_power_kernel(0.5, -0.4, gaussian(), -1.3)
        assert val_plus == pytest.approx(val_minus, rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_divergent_tail_raises(self, x):
        # f = 1 leaves |y|^(-2 lam - 1) = |y|^(-0.4) in the tail: no doubling
        # panel ever falls below the tolerance
        with pytest.raises(TailNonConvergence):
            frac_power_kernel(0.5, -0.3, lambda y: np.ones_like(np.asarray(y, dtype=float)), x)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            frac_power_kernel(0.5, 0.3, gaussian(), 1.0)
        with pytest.raises(ValueError):
            frac_power_kernel(0.5, -1.7, gaussian(), 1.0)


class TestPairingIdentity:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_nonpole_values(self, plan_factory, alpha):
        plan = plan_factory(alpha)
        strip = -(2.0 * alpha + 2.0)
        for lam in (0.35 * strip, 0.6 * strip, 0.85 * strip):
            lhs, rhs, _ = power_weight_identity(alpha, lam, gaussian(), plan)
            assert pair_errs(lhs, rhs)[1] <= 1e-6, f"lam={lam}"

    def test_specific_example(self, plan_factory):
        lhs, rhs, _ = power_weight_identity(0.5, -1.3, gaussian(), plan_factory(0.5))
        assert pair_errs(lhs, rhs)[1] <= 1e-6

    def test_degenerate_even_case(self, plan_factory):
        # constant vanishes; the left pairing must vanish for a test function
        # with zero matching residue (even, second derivative zero at 0)
        from dunkl.functions import PolyFunction, PolyGaussian
        probe = PolyGaussian(PolyFunction.monomial(4), 0.5)
        lhs, rhs, degenerate = power_weight_identity(0.5, 2.0, probe, plan_factory(0.5))
        assert degenerate
        assert abs(lhs) <= 1e-8
        assert abs(rhs) <= 1e-8

    def test_pole_rejected(self, plan_factory):
        with pytest.raises(ValueError):
            power_weight_identity(0.5, -3.0, gaussian(), plan_factory(0.5))

    def test_bare_callable_without_taylor_data_raises(self, plan_factory):
        with pytest.raises(ValueError, match="taylor_coeff"):
            power_weight_identity(0.5, -1.3, lambda x: np.exp(-x**2), plan_factory(0.5))

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.5])
    def test_forward_image_even_part_and_taylor_data(self, plan_factory, alpha):
        """The image pairs through its even kernel alone and takes its Taylor
        data from the synthesis; both agree with the mirrored mean
        (F(xi) + F(-xi))/2 of full values and with the weighted-moment
        closure."""
        plan = plan_factory(alpha)
        strip = -(2.0 * alpha + 2.0)
        for phi, lams in ((gaussian(), (0.35 * strip, 0.6 * strip, 0.85 * strip)),
                          (PolyGaussian(PolyFunction.monomial(4), 0.5), (2.0,))):
            image = _ForwardImage(plan, phi)
            values = phi(plan.x_nodes)
            for k in range(29):
                # relative to the sum of the moment's absolute terms, the
                # scale of its rounding (odd moments cancel to noise)
                terms = plan.x_weights * plan.x_nodes**k * values
                want = (-1j) ** k * math.exp(-log_b_coeff(k, plan.order)) * np.sum(terms)
                scale = math.exp(-log_b_coeff(k, plan.order)) * np.sum(np.abs(terms))
                assert abs(image.taylor_coeff(k) - want) <= 1e-14 * scale
            mirrored = WrappedFunction(image, taylor=image.taylor_coeff)
            for lam in lams:
                got = homogeneous_pairing(lam + 2.0 * alpha + 1.0, image).value
                want = homogeneous_pairing(lam + 2.0 * alpha + 1.0, mirrored).value
                assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_symbol_constants_consistency(self, alpha):
        """c_alpha times the pairing constant is the constant of the mirrored
        identity, 2^lam Gamma((2a+lam+2)/2) / (Gamma(a+1) Gamma(-lam/2)):
        an exact Gamma identity, so the two agree to rounding."""
        for lam in (-0.7, -1.3, -2.2):
            gammas = float(scipy_gamma((2.0 * alpha + lam + 2.0) / 2.0)) * float(rgamma(-lam / 2.0))
            mirrored = 2.0**lam * gammas / math.gamma(alpha + 1.0)
            direct = c_const(alpha) * pairing_symbol_constant(alpha, lam)
            assert abs(direct - mirrored) / max(abs(mirrored), 1e-300) <= 1e-13

    def test_constant_zero_at_even(self):
        assert pairing_symbol_constant(0.5, 2.0) == 0.0
        assert pairing_symbol_constant(0.5, 4.0) == 0.0


class TestResidueExtraction:
    def test_numeric_pole_extraction_matches_analytic(self):
        # residue at -1 via (lam+1)*pairing(lam), averaged over +/- eps to
        # cancel the linear term of the regular part
        phi = gaussian()
        eps = 1e-4
        plus = eps * homogeneous_pairing(-1.0 + eps, phi).value
        minus = -eps * homogeneous_pairing(-1.0 - eps, phi).value
        numeric = 0.5 * (plus + minus)
        assert numeric == pytest.approx(2.0, abs=1e-6)
        analytic = homogeneous_pairing(-1.0, phi)
        assert analytic.pole_flag and analytic.residue_estimate == pytest.approx(2.0, rel=1e-12)
