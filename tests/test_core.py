"""The deformed calculus: kernel, operator, intertwiners, translation,
convolution.  Monomial actions are exact oracles; quadrature routes are
checked against them and against Gaussian closed forms."""

import cmath
import math

import numpy as np
import pytest

import dunkl.core
import dunkl.quadrature
from dunkl.core import (
    convolution,
    dual_intertwiner_v,
    dual_intertwiner_v_grid,
    dunkl_kernel,
    dunkl_operator,
    intertwiner_v,
    intertwiner_v_inverse,
    translation,
)
from dunkl.functions import (
    GridFunction,
    KernelFunction,
    PolyFunction,
    PolyGaussian,
    WrappedFunction,
    gaussian,
    monomial_gaussian,
)
from dunkl.quadrature import radial_rule
from dunkl.sonine import SonineImage, classical_pair
from dunkl.special import b_coeff
from dunkl.transform import forward

ALPHAS = (-0.4, 0.0, 0.5, 1.5, 2.7)
Z_SET = (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 10j, -10j, 3 + 4j)
# the overflow box |Re z| <= 709.78: |z| in {30, 61, 150, 400, 700, 1000} at 16 angles each, 8 on
# each half-plane's arc with |Re z| <= 700, and four points at its edges and far up the imaginary axis
BOX = tuple(
    r * cmath.exp(1j * (t0 + (math.pi - 2.0 * t0) * (k + 0.5) / 8.0 + side * math.pi))
    for r in (30.0, 61.0, 150.0, 400.0, 700.0, 1000.0)
    for t0 in (math.acos(min(700.0 / r, 1.0)),)
    for side in (0, 1)
    for k in range(8)
) + (705 + 0.5j, 709 + 50j, -709.7 - 0.1j, 1e4j)


def kernel_half_closed(z):
    """Order-1/2 kernel in elementary functions (half-integer Bessel)."""
    z = complex(z)
    if z == 0:
        return 1.0 + 0.0j
    s = np.sinh(z) / z
    return s + (np.cosh(z) - s) / z


#: nan, nan i, 1 + nan i and inf i: a nan or infinite part in each place
NON_FINITE = (complex(math.nan, 0.0), complex(0.0, math.nan), complex(1.0, math.nan), complex(0.0, math.inf))
NON_FINITE_IDS = ("nan", "nan-i", "1+nan-i", "inf-i")


class TestKernel:
    def test_normalized_at_zero(self):
        for a in ALPHAS:
            for mode in ("series", "bochner", "bessel"):
                assert dunkl_kernel(a, 0.0, mode) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mode_agreement(self, alpha):
        for z in Z_SET:
            vals = [dunkl_kernel(alpha, z, m) for m in ("series", "bochner", "bessel")]
            scale = max(abs(v) for v in vals)
            assert max(abs(v - w) for v in vals for w in vals) <= 1e-10 * scale

    def test_half_integer_closed_form(self):
        for z in (0.7, -2.0, 1.5j, 2.0 + 1.0j, 40j, 59j, -59j, 10 + 50j):
            got = dunkl_kernel(0.5, z)
            want = kernel_half_closed(z)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_series_radius_error(self):
        with pytest.raises(ValueError, match="bessel"):
            dunkl_kernel(0.5, 100.0, "series")

    def test_series_rejects_oscillatory_band(self):
        with pytest.raises(ValueError, match="bessel"):
            dunkl_kernel(0.5, 20j, "series")
        assert dunkl_kernel(0.5, 10j, "series") == pytest.approx(kernel_half_closed(10j), rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_oscillatory_axis_against_mpmath(self, alpha):
        import mpmath

        mpmath.mp.dps = 30

        def b(shift, z):
            return complex(mpmath.hyp0f1(alpha + shift + 1, mpmath.mpc(z) ** 2 / 4))

        for z in (20j, 30j, 40j, 59j, -59j, 10 + 50j, -30 + 20j, 200j, 300 + 5j):
            q1, q2 = b(1, z) / (2 * (alpha + 1)), b(2, z) / (4 * (alpha + 1) * (alpha + 2))
            kernel = b(0, z) + z * q1
            kf = KernelFunction(alpha, z)
            pairs = [
                (dunkl_kernel(alpha, z), kernel),
                (dunkl_kernel(alpha, z, "bessel"), kernel),
                (kf(1.0), kernel),
                (kf.even_part(1.0), b(0, z)),
                (kf.odd_quotient(1.0), z * q1),
                (kf.derivative(1.0), z * (q1 + z * q1 + z * z * q2)),
            ]
            for got, want in pairs:
                assert abs(complex(got) - want) <= 1e-12 * abs(want), (z, got, want)

    @pytest.mark.parametrize("mode", ("auto", "series", "bessel", "bochner"))
    def test_overflow_rejected(self, mode):
        # E_alpha(z) grows like e^|Re z|: past log(max double) = 709.78 no
        # double holds it, and every mode says so instead of returning nan
        for z in (800.0, -800.0, 709.8 + 5j, -710.0 - 1j):
            with pytest.raises(ValueError, match="709.78"):
                dunkl_kernel(1.5, z, mode)

    @pytest.mark.parametrize("mode", ("auto", "series", "bessel", "bochner"))
    @pytest.mark.parametrize("z", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_rejected(self, mode, z):
        # no kernel value at a nan or infinite part: every mode says so, instead of
        # returning nan or failing on a radius, a box or a rule size
        with pytest.raises(ValueError, match="nan or infinite"):
            dunkl_kernel(1.5, z, mode)

    @pytest.mark.parametrize("z", NON_FINITE, ids=NON_FINITE_IDS)
    def test_kernel_function_rejects_non_finite(self, z):
        kf = KernelFunction(0.5, 1.0)
        for read in (kf, kf.even_part, kf.odd_quotient):
            # at inf i the product lam x is itself an invalid complex product (0 * inf); the read must still raise
            with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="nan or infinite"):
                read(np.array([0.3, z]))

    def test_bochner_large_argument(self):
        # beyond the series radius the integral representation still works
        got = dunkl_kernel(0.5, 80.0, "bochner")
        want = kernel_half_closed(80.0)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize(
        "z",
        (
            -1.1144817557741047 + 8.392604561050302j,  # near zeros of E_1.5, where |E| is 1e-3
            -1.115003644041072 - 8.264908663585482j,
            -1.0747917972596548 - 8.27596984500489j,
            40j,
        ),
    )
    def test_bochner_against_mpmath(self, z):
        # one Gauss-Jacobi rule in s = (1+t)/2 holds 5e-11 here, where |E| is small
        import mpmath

        mpmath.mp.dps = 30
        a, w = 1.5, mpmath.mpc(z) ** 2 / 4
        want = complex(mpmath.hyp0f1(a + 1, w) + z / (2 * (a + 1)) * mpmath.hyp0f1(a + 2, w))
        assert abs(dunkl_kernel(a, z, "bochner") - want) <= 5e-11 * abs(want)


class TestKernelBox:
    """Beyond the series strip ``auto`` is ``bessel``, on the whole overflow box."""

    @pytest.fixture
    def no_jacobi_rule(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built a Gauss-Jacobi rule")

        monkeypatch.setattr(dunkl.core, "jacobi_rule", forbidden)
        monkeypatch.setattr(dunkl.quadrature, "jacobi_rule", forbidden)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_against_mpmath(self, alpha, no_jacobi_rule):
        # 1e-12 relative, or 1e-10 where Re z < 0 and the kernel's two parts cancel;
        # KernelFunction(alpha, 1) at x = z gives E(z), B_(alpha+1)(z) / (2(alpha+1)) and E'(z)
        import mpmath

        mpmath.mp.dps = 30
        a = mpmath.mpf(alpha)  # alpha + 2 rounded in double moves B_(alpha+1) by 7e-16 at |z| = 1000
        kf = KernelFunction(alpha, 1.0)
        got = np.array([kf(BOX), kf.odd_quotient(BOX), kf.derivative(BOX)])
        for k, z in enumerate(BOX):
            w = mpmath.mpc(z) ** 2 / 4
            b0, b1 = mpmath.hyp0f1(a + 1, w), mpmath.hyp0f1(a + 2, w)
            q1, kernel = b1 / (2 * (a + 1)), b0 + b1 * z / (2 * (a + 1))
            # E' = (1 + z) q1 + z^2 B_(alpha+2) / (4(alpha+1)(alpha+2)), and that last term is b0 - b1 (DLMF 10.29.1)
            values = (dunkl_kernel(alpha, z), dunkl_kernel(alpha, z, "bessel"), *got[:, k])
            for value, want in zip(values, (kernel, kernel, kernel, q1, (1 + z) * q1 + b0 - b1)):
                assert abs(value - want) <= (1e-12 if z.real >= 0 else 1e-10) * abs(want), (z, value, want)

    def test_auto_builds_no_jacobi_rule(self, no_jacobi_rule):
        # the box's far corners and the series strip's edge; test_against_mpmath covers its grid
        corners = (709.7 + 1e3j, 709.7 - 1e4j, -709.7 + 1e4j, -709.7 - 1e3j, 60.5j, -60.5 + 10j, 0.0)
        for alpha in ALPHAS:
            for z in corners:
                assert np.isfinite(dunkl_kernel(alpha, z))

    def test_derivative_raises_where_it_overflows(self):
        # lam E'(lam) is about 705 E(705) > max double, though E(705 + 0.5i) itself is finite
        kf = KernelFunction(-0.4, 705 + 0.5j)
        assert np.isfinite(kf(1.0))
        with pytest.raises(ValueError, match="overflows"):
            kf.derivative(1.0)


class TestOperator:
    def test_constant_annihilated(self):
        out = dunkl_operator(0.7, PolyFunction(np.array([4.0])))
        assert np.all(out.coeffs == 0)

    def test_linear(self):
        for a in ALPHAS:
            out = dunkl_operator(a, PolyFunction(np.array([0.0, 1.0])))
            assert out.coeffs[0] == pytest.approx(2.0 * a + 2.0, rel=1e-14)

    def test_monomial_rules(self):
        a = 0.8
        for n in range(1, 12):
            out = dunkl_operator(a, PolyFunction.monomial(n))
            gain = n if n % 2 == 0 else n + 2 * a + 1
            assert out.coeffs[n - 1] == pytest.approx(gain, rel=1e-14)

    @pytest.mark.parametrize("lam", [1.0, 1j, 2j])
    def test_eigenrelation(self, lam):
        a = 0.7
        kf = KernelFunction(a, lam)
        op = dunkl_operator(a, kf)
        grid = np.linspace(-2.0, 2.0, 41)
        vals = np.asarray([kf(float(x)) for x in grid])
        image = np.asarray([op(float(x)) for x in grid])
        assert np.max(np.abs(image - lam * vals)) <= 1e-9 * np.max(np.abs(vals))

    def test_polygaussian_exact(self):
        a = 0.5
        f = gaussian()
        image = dunkl_operator(a, f)
        # even input: reflection term vanishes, image is -2x e^{-x^2}
        x = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(image(x), -2 * x * np.exp(-(x**2)), rtol=1e-14)

    def test_requires_derivative(self):
        with pytest.raises(ValueError):
            dunkl_operator(0.5, WrappedFunction(lambda x: np.exp(-np.asarray(x) ** 2)))

    def test_classical_order_is_the_derivative(self):
        """At the Sonine source order -1/2 the reflection gain vanishes, so the
        operator is d/dx, bit for bit on both exact classes."""
        p = PolyFunction(np.random.default_rng(3).standard_normal(12))
        np.testing.assert_array_equal(dunkl_operator(-0.5, p).coeffs, p.derivative().coeffs)
        pg = PolyGaussian(PolyFunction(np.array([1.0, -0.4, 0.3, 2.0])), 1.5)
        image, want = dunkl_operator(classical_pair(0.5).alpha, pg), pg.derivative_fn()
        assert image.rate == want.rate
        np.testing.assert_array_equal(image.poly.coeffs, want.poly.coeffs)


class TestIntertwiner:
    def test_normalization(self):
        assert intertwiner_v(0.9, PolyFunction(np.array([1.0]))).coeffs[0] == pytest.approx(1.0)

    def test_square_diagonal(self):
        for a in (0.0, 0.5, 1.3):
            out = intertwiner_v(a, PolyFunction.monomial(2))
            assert out.coeffs[2] == pytest.approx(1.0 / (2.0 * (a + 1.0)), rel=1e-13)

    def test_exponential_maps_to_kernel(self):
        a, lam = 0.8, 1.1
        f = WrappedFunction(lambda x: np.exp(lam * np.asarray(x)))
        kf = KernelFunction(a, lam)
        for x in (0.4, 1.7, -2.2):
            assert intertwiner_v(a, f, x) == pytest.approx(kf(x), rel=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_transmutation_exact_on_polynomials(self, alpha):
        rng = np.random.default_rng(3)
        p = PolyFunction(rng.standard_normal(21))
        lhs = dunkl_operator(alpha, intertwiner_v(alpha, p))
        rhs = intertwiner_v(alpha, p.derivative())
        width = max(len(lhs.coeffs), len(rhs.coeffs))
        lc, rc = np.zeros(width), np.zeros(width)
        lc[: len(lhs.coeffs)] = lhs.coeffs
        rc[: len(rhs.coeffs)] = rhs.coeffs
        assert np.max(np.abs(lc - rc)) <= 1e-12 * np.max(np.abs(rc))


class TestInverseIntertwiner:
    def test_polynomial_roundtrip_exact(self):
        a = 1.3
        rng = np.random.default_rng(5)
        p = PolyFunction(rng.standard_normal(15))
        back = intertwiner_v_inverse(a, intertwiner_v(a, p))
        np.testing.assert_allclose(back.coeffs, p.coeffs, rtol=1e-12, atol=1e-14)

    def test_diagonal(self):
        a = 0.7
        out = intertwiner_v_inverse(a, PolyFunction.monomial(4))
        assert out.coeffs[4] == pytest.approx(b_coeff(4, a) / math.factorial(4), rel=1e-13)

    @staticmethod
    def _kernel_errors(alpha):
        """Relative errors of V^{-1} E_alpha(lam .) = e^(lam .) on the points
        that straddle 0, at real, imaginary and complex lam."""
        for lam in (1.1, -0.7, 2j, 0.5 + 1j):
            kf = KernelFunction(alpha, lam)
            for x in (-1.3, 0.0, 0.05, 0.9, 1.6):
                want = cmath.exp(lam * x)
                yield abs(intertwiner_v_inverse(alpha, kf, x) - want) / abs(want)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.49, 1.2, 2.7])
    def test_kernel_maps_back_to_exponential(self, alpha):
        assert max(self._kernel_errors(alpha)) <= 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_half_integer_orders(self, alpha):
        # alpha + 1/2 an integer: beta - alpha = 1, the Sonine rule has no singular end
        assert max(self._kernel_errors(alpha)) <= 1e-10

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.5, 1.2, 1.5, 2.7])
    def test_sonine_image_roundtrip(self, alpha):
        # V^{-1} V f = f on f = (1 + 0.4 x) e^(-x^2), the image read through SonineImage
        f = PolyGaussian(PolyFunction(np.array([1.0, 0.4])), 1.0)
        image = SonineImage(classical_pair(alpha), f)
        for x in (-1.3, 0.0, 0.9):
            assert abs(intertwiner_v_inverse(alpha, image, x) - f(x)) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 1.2])
    def test_one_evaluation_for_the_whole_stencil(self, alpha, counting):
        # the 2 (2m + 1) stencil points of S_{alpha,beta} f share one call of each part of f
        f = counting(PolyGaussian(PolyFunction(np.array([1.0, 0.4])), 1.0))
        got = intertwiner_v_inverse(alpha, f, 0.9)
        assert f.calls == {"even_part": 1, "odd_quotient": 1}
        assert got == intertwiner_v_inverse(alpha, f.f, 0.9)

    def test_alpha_zero_square_example(self):
        # V_0^{-1} x^2 = b_2(0)/2! x^2 = 2 x^2, through beta = 1/2: (theta + 1) x^2 = 3 x^2 after S_{0,1/2}
        f = WrappedFunction(lambda x: np.asarray(x, dtype=float) ** 2)
        for x in (0.9, 1.4):
            assert intertwiner_v_inverse(0.0, f, x) == pytest.approx(2.0 * x * x, rel=1e-8)

    def test_grid_function_path(self):
        a, lam = 0.3, 0.9
        kf = KernelFunction(a, lam)
        half = np.linspace(1e-3, 6.0, 480)
        grid = np.concatenate([-half[::-1], half])
        gf = GridFunction(grid, np.real(kf(grid)), smoothness_hint="schwartz")
        got = intertwiner_v_inverse(a, gf, 1.2)
        assert got == pytest.approx(math.exp(lam * 1.2), rel=1e-5)

    def test_generic_hint_rejected(self):
        gf = GridFunction(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            intertwiner_v_inverse(0.3, gf, 0.9)


class TestDualIntertwiner:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5])
    def test_gaussian_closed_form(self, alpha):
        # tV(e^{-y^2})(x) = Gamma(alpha+1)/sqrt(pi) e^{-x^2}
        f = gaussian()
        for x in (0.0, 1.3, -2.0):
            want = math.gamma(alpha + 1.0) / math.sqrt(math.pi) * math.exp(-x * x)
            assert dual_intertwiner_v(alpha, f, x) == pytest.approx(want, rel=1e-11)

    def test_grid_route_matches_pointwise(self):
        a = 0.7
        f = PolyGaussian(PolyFunction(np.array([1.0, 0.3])), 1.0)
        xs = np.array([0.0, 0.8, 2.1, -1.1])
        grid_vals = dual_intertwiner_v_grid(a, f, xs, u_max=128.0)
        point_vals = np.asarray([dual_intertwiner_v(a, f, float(x)) for x in xs])
        np.testing.assert_allclose(grid_vals, point_vals, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_duality_pairing(self, alpha):
        # int V(f) g |x|^(2a+1) dx = int f tV(g) dx for f = x^2, g = gaussian
        f = PolyFunction.monomial(2)
        g = gaussian()
        vf = intertwiner_v(alpha, f)
        rule = radial_rule(alpha, 14.0, 128)
        lhs = np.sum(rule.weights * (vf(rule.nodes) + vf(-rule.nodes)) * np.exp(-rule.nodes**2))
        gl_x, gl_w = np.polynomial.legendre.leggauss(200)
        nodes, weights = 14.0 * gl_x, 14.0 * gl_w
        rhs = np.sum(weights * nodes**2 * dual_intertwiner_v_grid(alpha, g, nodes, u_max=400.0))
        closed = math.gamma(alpha + 1.0) / 2.0
        assert lhs == pytest.approx(closed, rel=1e-10)
        assert abs(lhs - rhs) <= 1e-8 * abs(closed)

    def test_dual_transmutation(self):
        # tV(Lambda f) = (tV f)' on f = x exp(-x^2), checked by high-order FD
        a = 0.8
        f = monomial_gaussian(1)
        lf = dunkl_operator(a, f)
        h = 1e-3
        for x in (-1.2, 0.4, 1.9):
            lhs = dual_intertwiner_v(a, lf, x)
            tv = lambda u: dual_intertwiner_v(a, f, u)
            rhs = (8 * (tv(x + h) - tv(x - h)) - (tv(x + 2 * h) - tv(x - 2 * h))) / (12 * h)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


class TestTranslation:
    def test_at_origin(self):
        a = 0.6
        f = PolyGaussian(PolyFunction(np.array([0.5, 1.0, 0.3])), 1.0)
        for y in (0.9, -1.7):
            assert translation(a, f, 0.0, y) == pytest.approx(f(y), rel=1e-12)

    def test_both_zero_convention(self):
        f = gaussian()
        assert translation(0.5, f, 0.0, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.5])
    def test_product_formula(self, alpha):
        for lam in (1.2, 1.5j):
            kf = KernelFunction(alpha, lam)
            for (x, y) in ((0.7, -1.1), (1.3, 1.3), (-0.4, 2.0)):
                got = translation(alpha, kf, x, y)
                want = kf(x) * kf(y)
                assert abs(got - want) <= 1e-8 * abs(want)

    @pytest.mark.parametrize("x", [0.0, 0.7, -1.3])
    def test_array_y_matches_scalar_calls(self, x):
        # one batched integral per array, the (0, 0) convention per entry
        ys = np.array([0.0, -1.1, 0.9, 1.3, -0.7, 0.7, 2.0])
        for f in (gaussian(), KernelFunction(0.6, 1.5j), lambda v: (1.0 + v) * np.exp(-v * v)):
            got = translation(0.6, f, x, ys)
            want = np.array([translation(0.6, f, x, y) for y in ys])
            assert got.shape == ys.shape
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
            assert np.isscalar(translation(0.6, f, x, 0.9)) and np.isscalar(translation(0.6, f, x, 0.0))
        assert translation(0.6, gaussian(), 0.0, ys)[0] == 1.0

    def test_transform_side_oracle(self, plan_factory):
        # tau_x f(y) = c_a int E(i l x) E(i l y) Ff(l) |l|^(2a+1) dl
        a = 0.5
        plan = plan_factory(a)
        f = gaussian()
        spectrum = forward(plan, plan.sample(f)).values
        x = 0.9
        lam = plan.lambda_nodes
        from dunkl.transform import kernel_unitary

        ker = kernel_unitary(a, lam * x, +1) * kernel_unitary(a, lam * (-x), +1)
        want = plan.c_alpha * np.sum(plan.lambda_weights * ker * spectrum)
        got = translation(a, f, x, -x)
        assert got == pytest.approx(float(np.real(want)), rel=1e-8)


class TestConvolution:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
    def test_gaussian_closed_form(self, alpha):
        # e^{-.^2} * e^{-.^2} = Gamma(a+1) 2^{-(a+1)} e^{-x^2/2}
        f = gaussian()
        for x in (0.0, 0.8, -1.5):
            got = convolution(alpha, f, f, x)
            want = math.gamma(alpha + 1.0) * 2.0 ** (-(alpha + 1.0)) * math.exp(-x * x / 2.0)
            assert got == pytest.approx(want, rel=1e-6)

    def test_commutativity(self):
        a = 0.7
        f = gaussian()
        g = PolyGaussian(PolyFunction(np.array([1.0, 0.5])), 1.0)
        for x in (0.0, 0.9, -1.4):
            fg = convolution(a, f, g, x)
            gf = convolution(a, g, f, x)
            assert fg == pytest.approx(gf, rel=1e-8)

    def test_even_input_at_origin_reduces(self):
        a = 0.9
        f = gaussian()
        g = PolyGaussian(PolyFunction(np.array([1.0, 0.0, 1.0])), 1.0)
        rule = radial_rule(a, 14.0, 128)
        direct = np.sum(rule.weights * (f(rule.nodes) * g(rule.nodes) + f(-rule.nodes) * g(-rule.nodes)))
        assert convolution(a, f, g, 0.0) == pytest.approx(float(direct), rel=1e-9)

    def test_one_batched_translation(self, counting):
        # f is read once, by one parts call (an even-part and an odd-quotient
        # call here), g once per sign of y, not once per radial node
        f, g = counting(gaussian()), counting(PolyGaussian(PolyFunction(np.array([1.0, 0.5])), 1.0))
        got = convolution(0.7, f, g, 0.9)
        assert f.calls == {"even_part": 1, "odd_quotient": 1}
        assert g.calls == {"value": 2}
        assert got == convolution(0.7, f.f, g.f, 0.9)

    def test_transform_identity(self, plan_factory):
        # F(f * g) = F f F g on a reduced plan
        a = 0.5
        plan = plan_factory(a, half_width=10.0, n_x=160, lambda_max=12.0, n_lambda=192, tol=1e-9)
        f = gaussian()
        conv_vals = np.asarray([convolution(a, f, f, float(x)) for x in plan.x_nodes])
        lhs = forward(plan, conv_vals).values
        ff = forward(plan, plan.sample(f)).values
        mask = np.abs(plan.lambda_nodes) <= 8.0
        err = np.max(np.abs(lhs[mask] - ff[mask] ** 2))
        assert err <= 1e-6 * np.max(np.abs(ff[mask] ** 2))
