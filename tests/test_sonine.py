"""Sonine transform, its dual, and the intertwining identities."""

import math

import numpy as np
import pytest

from dunkl import core
from dunkl.cli import main
from dunkl.functions import KernelFunction, PolyFunction, PolyGaussian, WrappedFunction, gaussian, monomial_gaussian
from dunkl.quadrature import radial_rule
from dunkl.sonine import (
    SonineImage,
    SoninePair,
    dual_sonine_apply,
    dual_sonine_grid,
    intertwining_check,
    sonine_apply,
    sonine_grid,
    sonine_via_intertwiners,
)
from dunkl.special import OrderParam, a_const, a_sonine, as_order, b_coeff, c_const
from dunkl.transform import build_plan, forward, forward_at

PAIRS = ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0), (-0.25, 0.75), (1.5, 3.5))


class TestSoninePair:
    def test_orders_validated(self):
        with pytest.raises(ValueError):
            SoninePair.of(1.0, 1.0)
        with pytest.raises(ValueError):
            SoninePair.of(1.0, 0.5)
        with pytest.raises(ValueError):
            SoninePair.of(-0.6, 1.0)

    def test_prefactor(self):
        pair = SoninePair.of(0.5, 2.5)
        assert pair.prefactor == pytest.approx(3.75, rel=1e-14)


class TestSonineApply:
    def test_identity_on_constants(self):
        pair = SoninePair.of(0.3, 1.1)
        out = sonine_apply(pair, PolyFunction(np.array([1.0])))
        assert out.coeffs[0] == pytest.approx(1.0, rel=1e-14)

    def test_value_at_zero(self):
        pair = SoninePair.of(0.3, 1.1)
        f = PolyGaussian(PolyFunction(np.array([0.7, 0.1, 0.4])), 1.0)
        assert sonine_apply(pair, f, 0.0) == pytest.approx(f(0.0), rel=1e-12)

    def test_square_example(self):
        pair = SoninePair.of(0.0, 1.0)
        out = sonine_apply(pair, PolyFunction.monomial(2))
        assert out.coeffs[2] == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_monomial_eigenvalue_law(self, a, b):
        pair = SoninePair.of(a, b)
        x = 1.3
        for n in range(0, 21):
            want = b_coeff(n, a) / b_coeff(n, b) * x**n
            got = sonine_apply(pair, PolyFunction.monomial(n), x)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a,b", ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)))
    def test_kernel_to_kernel(self, a, b):
        pair = SoninePair.of(a, b)
        for lam in (1.0, 2j):
            ka, kb = KernelFunction(a, lam), KernelFunction(b, lam)
            for x in np.linspace(-2.0, 2.0, 9):
                got = sonine_apply(pair, ka, float(x))
                assert abs(got - kb(x)) <= 1e-9 * abs(kb(x))

    def test_grid_route_matches(self):
        pair = SoninePair.of(0.5, 1.5)
        f = PolyGaussian(PolyFunction(np.array([0.3, 1.0, 0.2])), 1.0)
        xs = np.array([-3.0, -1.2, 0.0, 0.4, 2.9])
        grid_vals = sonine_grid(pair, f, xs)
        point_vals = np.asarray([sonine_apply(pair, f, float(x)) for x in xs])
        np.testing.assert_allclose(grid_vals, point_vals, rtol=1e-12, atol=1e-14)


class TestSonineRoutes:
    @pytest.mark.parametrize("a,b", PAIRS)
    def test_composition_route_exact(self, a, b):
        pair = SoninePair.of(a, b)
        rng = np.random.default_rng(17)
        p = PolyFunction(rng.standard_normal(21))
        direct = sonine_apply(pair, p)
        routed = sonine_via_intertwiners(pair, p)
        np.testing.assert_allclose(routed.coeffs, direct.coeffs, rtol=1e-12)

    def test_cube_example(self):
        pair = SoninePair.of(0.0, 1.0)
        want = b_coeff(3, 0.0) / b_coeff(3, 1.0)
        direct = sonine_apply(pair, PolyFunction.monomial(3)).coeffs[3]
        routed = sonine_via_intertwiners(pair, PolyFunction.monomial(3)).coeffs[3]
        assert direct == pytest.approx(want, rel=1e-14)
        assert abs(direct - routed) <= 1e-14 * abs(direct)

    def test_semigroup_property(self):
        # S_{b,c} o S_{a,b} = S_{a,c} on polynomials
        a, b, c = 0.25, 1.0, 2.2
        rng = np.random.default_rng(23)
        p = PolyFunction(rng.standard_normal(21))
        two_step = sonine_apply(SoninePair.of(b, c), sonine_apply(SoninePair.of(a, b), p))
        one_step = sonine_apply(SoninePair.of(a, c), p)
        np.testing.assert_allclose(two_step.coeffs, one_step.coeffs, rtol=1e-12)


class TestDualSonine:
    @pytest.mark.parametrize("a,b", ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)))
    def test_gaussian_closed_form(self, a, b):
        pair = SoninePair.of(a, b)
        ratio = math.gamma(b + 1.0) / math.gamma(a + 1.0)
        for x in (0.0, 1.1, -2.0):
            got = dual_sonine_apply(pair, gaussian(), x)
            assert got == pytest.approx(ratio * math.exp(-x * x), rel=1e-10)

    def test_grid_route_matches(self):
        pair = SoninePair.of(0.3, 1.8)
        f = PolyGaussian(PolyFunction(np.array([1.0, 0.4])), 1.0)
        xs = np.array([0.0, 0.7, 1.9, -1.2])
        grid_vals = dual_sonine_grid(pair, f, xs, u_max=128.0)
        point_vals = np.asarray([dual_sonine_apply(pair, f, float(x)) for x in xs])
        np.testing.assert_allclose(grid_vals, point_vals, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("a,b", ((0.0, 0.5), (0.5, 1.5)))
    def test_duality_pairing(self, a, b):
        # int S(f) g |x|^(2b+1) dx = int f tS(g) |x|^(2a+1) dx,
        # both sides also equal (a+1) Gamma(b+1) in closed form
        pair = SoninePair.of(a, b)
        f = PolyFunction.monomial(2)
        g = gaussian()
        sf = sonine_apply(pair, f)
        rule_b = radial_rule(b, 14.0, 128)
        lhs = np.sum(rule_b.weights * (sf(rule_b.nodes) + sf(-rule_b.nodes)) * np.exp(-rule_b.nodes**2))
        rule_a = radial_rule(a, 14.0, 128)
        tsg = dual_sonine_grid(pair, g, rule_a.nodes, u_max=400.0)
        rhs = np.sum(rule_a.weights * 2.0 * rule_a.nodes**2 * tsg)
        closed = (a + 1.0) * math.gamma(b + 1.0)
        assert lhs == pytest.approx(closed, rel=1e-10)
        assert abs(lhs - rhs) <= 1e-7 * abs(closed)

    def test_spectral_characterization(self, plan_factory):
        # tS agrees with inverse-alpha-transform of the beta-transform
        a, b = 0.5, 1.5
        pair = SoninePair.of(a, b)
        plan_a = plan_factory(a)
        plan_b = plan_factory(b)
        g = monomial_gaussian(1)
        spec_b = forward(plan_b, plan_b.sample(g)).values
        xs = np.array([0.4, 1.0, 2.0])
        from dunkl.transform import inverse_at

        spectral_route = inverse_at(plan_a, plan_a.lambda_grid_function(
            forward_at(plan_b, plan_b.sample(g).values, plan_a.lambda_nodes)
        ), xs)
        direct = dual_sonine_grid(pair, g, xs, u_max=400.0)
        np.testing.assert_allclose(direct, np.real(spectral_route), rtol=1e-8, atol=1e-10)


class TestDecomposition:
    @pytest.mark.parametrize("a,b", ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)))
    @pytest.mark.parametrize("probe", ["gauss", "odd"])
    def test_beta_transform_factors(self, plan_factory, a, b, probe):
        pair = SoninePair.of(a, b)
        plan_a = plan_factory(a)
        plan_b = plan_factory(b)
        g = gaussian() if probe == "gauss" else monomial_gaussian(1)
        mask = np.abs(plan_b.lambda_nodes) <= 8.0
        lam_pts = plan_b.lambda_nodes[mask]
        beta_side = forward_at(plan_b, plan_b.sample(g).values, lam_pts)
        ts_vals = dual_sonine_grid(pair, g, plan_a.x_nodes, u_max=500.0)
        alpha_side = forward_at(plan_a, ts_vals, lam_pts)
        err = np.max(np.abs(alpha_side - beta_side))
        assert err <= 1e-6 * np.max(np.abs(beta_side))


class TestIntertwining:
    @pytest.mark.parametrize("a,b", ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)))
    def test_exact_on_polynomials(self, a, b):
        rng = np.random.default_rng(29)
        _, rel_err = intertwining_check(SoninePair.of(a, b), PolyFunction(rng.standard_normal(13)))
        assert rel_err <= 1e-12

    def test_smooth_inputs(self):
        _, rel_err = intertwining_check(SoninePair.of(0.5, 1.5), gaussian())
        assert rel_err <= 1e-6

    def test_kernel_eigen_route(self):
        # S side on the kernel eigenfunction: Lambda_b S E_a(l.) = l E_b(l.)
        a, b, lam = 0.5, 1.5, 1.2
        pair = SoninePair.of(a, b)
        from dunkl.core import dunkl_operator
        from dunkl.sonine import SonineImage

        img = SonineImage(pair, KernelFunction(a, lam))
        op = dunkl_operator(b, img)
        kb = KernelFunction(b, lam)
        for x in (0.5, 1.4):
            assert op(x) == pytest.approx(lam * kb(x), rel=1e-9)


class TestBareCallables:
    def test_odd_quotient_near_zero_takes_the_derivative(self):
        f = WrappedFunction(lambda u: np.asarray(u, dtype=float), df=lambda u: np.ones_like(np.asarray(u, dtype=float)))
        assert sonine_apply(SoninePair.of(0, 1), f, 1e-9) == pytest.approx(5e-10, rel=1e-14)

    def test_odd_quotient_near_zero_without_derivative_raises(self):
        with pytest.raises(ValueError, match="derivative"):
            sonine_apply(SoninePair.of(0, 1), WrappedFunction(lambda u: u), 1e-9)
        with pytest.raises(ValueError, match="derivative"):
            sonine_apply(SoninePair.of(0, 1), lambda u: u, 1e-9)

    def test_value_at_zero_needs_no_odd_quotient(self):
        assert core.intertwiner_v(0.5, lambda x: np.exp(-x**2), 0.0) == 1.0

    def test_failure_range_of_a_bare_callable(self):
        """With the default 64 nodes the smallest argument is about 0.0122 |x|,
        so a bare callable raises for 0 < |x| below about 8.2e-7."""
        want = lambda x: KernelFunction(0.5, 1.0)(x).real  # V_alpha e^(.) = E_alpha
        for x in (1e-6, -1e-6, 1e-3):
            assert core.intertwiner_v(0.5, np.exp, x) == pytest.approx(want(x), rel=1e-13)
        for x in (1e-7, -5e-7):
            with pytest.raises(ValueError, match="derivative"):
                core.intertwiner_v(0.5, np.exp, x)
            got = core.intertwiner_v(0.5, WrappedFunction(np.exp, df=np.exp), x)
            assert got == pytest.approx(want(x), rel=1e-14)


class TestSonineImage:
    def test_parts_and_taylor_data(self):
        pair = SoninePair.of(0.5, 1.5)
        img = SonineImage(pair, PolyGaussian(PolyFunction(np.array([1.0, 0.7, 0.0, -0.3])), 1.0))
        x = np.array([0.4, 1.3])
        np.testing.assert_allclose(img.even_part(x), 0.5 * (img(x) + img(-x)), rtol=1e-13)
        np.testing.assert_allclose(x * img.odd_quotient(x), 0.5 * (img(x) - img(-x)), rtol=1e-13)
        f = PolyFunction(np.random.default_rng(5).standard_normal(9))
        want = sonine_apply(pair, f).coeffs
        got = [SonineImage(pair, f).taylor_coeff(k) for k in range(9)]
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestClassicalOrder:
    """S_{-1/2,alpha} is the intertwiner V_alpha, and -1/2 is a Sonine
    pair's source order only."""

    def test_intertwiner_factors_and_prefactor(self):
        for a in (-0.25, 0.0, 0.5, 1.5):
            want = [math.factorial(n) / b_coeff(n, a) for n in range(21)]
            np.testing.assert_allclose(core.v_diagonal_factors(a, 20), want, rtol=1e-13)
            assert SoninePair.of(-0.5, a).prefactor == pytest.approx(a_const(a), rel=1e-14)

    def test_transitivity_on_polynomials(self):
        p = PolyFunction(np.random.default_rng(17).standard_normal(21))
        for a, b in ((0.0, 1.0), (0.5, 2.0), (-0.25, 1.5)):
            two_steps = sonine_apply(SoninePair.of(a, b), sonine_apply(SoninePair.of(-0.5, a), p))
            one_step = sonine_apply(SoninePair.of(-0.5, b), p)
            np.testing.assert_allclose(two_steps.coeffs, one_step.coeffs, rtol=1e-14)
            routed = sonine_via_intertwiners(SoninePair.of(-0.5, b), p)
            np.testing.assert_allclose(routed.coeffs, one_step.coeffs, rtol=1e-14)

    @pytest.mark.parametrize("a,b", ((0.0, 1.0), (0.5, 2.0)))
    def test_transitivity_through_sonine_image(self, a, b):
        f = monomial_gaussian(1)
        inner = SonineImage(SoninePair.of(-0.5, a), f)
        for x in (-1.7, 0.3, 1.1, 2.4):
            two_steps = sonine_apply(SoninePair.of(a, b), inner, x)
            assert two_steps == pytest.approx(sonine_apply(SoninePair.of(-0.5, b), f, x), rel=1e-12)

    def test_negative_half_rejected_elsewhere(self, capsys):
        with pytest.raises(ValueError):
            OrderParam(-0.5)
        with pytest.raises(ValueError):
            build_plan(-0.5)
        with pytest.raises(ValueError):
            SoninePair.of(0.5, -0.5)
        with pytest.raises(ValueError):
            SoninePair.of(-0.6, 1)
        assert main(["kernel", "--alpha", "-0.5", "--z", "1"]) == 2
        assert main(["sonine", "--alpha", "-0.5", "--beta", "1", "--x", "0.5"]) == 2
        assert "alpha > -1/2" in capsys.readouterr().err

    def test_classical_source_order_does_not_leak(self):
        source = SoninePair.of(-0.5, 1.0).alpha
        for reject in (as_order, build_plan, c_const, a_const, lambda a: KernelFunction(a, 1.0),
                       lambda a: core.dunkl_kernel(a, 1.0), lambda a: radial_rule(a, 10.0, 8),
                       lambda a: a_sonine(0.0, a)):
            with pytest.raises(ValueError):
                reject(source)
        assert b_coeff(5, source) == pytest.approx(120.0, rel=1e-14)
        assert a_sonine(source, 0.5) == pytest.approx(a_const(0.5), rel=1e-14)
