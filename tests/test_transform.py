"""Discrete transform plans, Plancherel, and spectral multipliers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dunkl.transform
from dunkl.core import dunkl_operator
from dunkl.fractional import _ForwardImage, power_weight_identity
from dunkl.functions import GridFunction, gaussian, monomial_gaussian
from dunkl.lizorkin import inversion_check, make_witness, witness_plan
from dunkl.report import pair_errs
from dunkl.sonine import SoninePair
from dunkl.suites import DEFAULT_TOLERANCES, _decomposition_errs
from dunkl.special import as_order, j_norm, j_norm_pair, log_b_coeff
from dunkl.transform import (
    MultiplierSpec,
    PlanSelfTestError,
    SpectralFunction,
    TransformPlan,
    _real_matvec,
    apply_multiplier,
    apply_multiplier_fn,
    build_plan,
    forward,
    forward_at,
    forward_fn,
    inverse,
    inverse_at,
    kernel_unitary,
    mirrored_weighted_rule,
    plancherel_sides,
)

ALPHAS = (-0.25, 0.0, 0.5, 1.5)

# property tests: fixed example count, derandomized draws; hypothesis also
# draws numeric literals from the project's source, so editing one can change
# the examples
_PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def _point_sets(draw, bound):
    """Points in [-bound, bound]: some mirrored, some repeated, maybe 0, in
    random order."""
    base = np.array(draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=12)))
    mirrored = np.array(draw(st.lists(st.booleans(), min_size=base.size, max_size=base.size)))
    zero = [0.0] if draw(st.booleans()) else []
    points = np.concatenate([base, -base[mirrored], zero, base[: draw(st.integers(0, 2))]])
    return points[draw(st.permutations(range(points.size)))]


@st.composite
def _spectra(draw):
    """A planless SpectralFunction on random nodes with complex weights."""
    alpha = draw(st.floats(-0.45, 3.0))
    nodes = draw(_point_sets(9.0))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=nodes.size, max_size=nodes.size)
    return SpectralFunction(alpha, nodes, np.array(draw(parts)) + 1j * np.array(draw(parts)))


class TestJNorm:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_table_range_against_mpmath(self, alpha):
        # synthesis evaluates j_norm on [0, lambda_max * 1.4 * L] = [0, 269]
        import mpmath

        mpmath.mp.dps = 30
        u = np.linspace(0.0, 269.0, 601)
        for shift in (0, 1, 2):
            want = np.array([float(mpmath.hyp0f1(alpha + shift + 1, -(mpmath.mpf(v) ** 2) / 4)) for v in u])
            assert np.max(np.abs(j_norm(alpha + shift, u) - want)) <= 5e-14


class TestPlanBuild:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_self_test_passes(self, plan_factory, alpha):
        plan = plan_factory(alpha)
        assert plan.self_test["forward_gaussian"] <= 1e-10
        assert plan.self_test["roundtrip_gaussian"] <= 1e-10

    def test_undersized_plan_reports(self):
        with pytest.raises(PlanSelfTestError, match="increase"):
            build_plan(0.5, half_width=3.0, n_x=32, lambda_max=4.0, n_lambda=32, tol=1e-10)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            build_plan(0.5, n_lambda=0)

    def test_non_mirrored_rule_rejected(self):
        xn, xw = mirrored_weighted_rule(0.5, 4.0, 8)
        ln, lw = mirrored_weighted_rule(0.5, 4.0, 8)
        shifted = xn.copy()
        shifted[0] *= 1.0 + 1e-15  # one node a few ulps off its mirror image
        for nodes, weights, lam in ((shifted, xw, ln), (xn[1:], xw[1:], ln), (xn, xw, np.abs(ln))):
            with pytest.raises(ValueError, match="mirrored"):
                TransformPlan(as_order(0.5), 4.0, 4.0, nodes, weights, lam, lw, 1e-10)


def _outer_forward(plan, lam_points):
    """The unfolded forward kernel: kernel_unitary on the full outer product."""
    return kernel_unitary(plan.alpha, np.outer(lam_points, plan.x_nodes), sign=-1)


def _outer_inverse(plan, x_points):
    return kernel_unitary(plan.alpha, np.outer(x_points, plan.lambda_nodes), sign=+1)


class TestFoldedKernel:
    """Plan matrices, forward_at and inverse_at fold the kernel by K(-u) =
    conj K(u); the result must be bit-identical to the full outer product."""

    @pytest.mark.parametrize("kind", ("default", "witness"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bit_identical_to_outer_product(self, plan_factory, witness_plan_factory, alpha, kind):
        plan = plan_factory(alpha) if kind == "default" else witness_plan_factory(alpha)
        assert np.array_equal(plan.forward_matrix, _outer_forward(plan, plan.lambda_nodes) * plan.x_weights)
        want = (_outer_forward(plan, plan.lambda_nodes).conj().T * plan.lambda_weights) * plan.c_alpha
        assert np.array_equal(plan.inverse_matrix, want)
        assert np.array_equal(plan.inverse_matrix, (_outer_inverse(plan, plan.x_nodes) * plan.lambda_weights) * plan.c_alpha)

        rng = np.random.default_rng(17)
        f = np.exp(-(plan.x_nodes**2)) * (1.0 + 0.3 * plan.x_nodes)
        g = np.exp(-(plan.lambda_nodes**2) / 4.0) * (1.0 - 0.2j * plan.lambda_nodes)
        lam = np.concatenate([rng.uniform(-9.0, 9.0, 37), [0.0]])
        xs = np.concatenate([rng.uniform(-6.0, 6.0, 23), [0.0]])
        assert np.array_equal(forward_at(plan, f, lam), _outer_forward(plan, lam) @ (plan.x_weights * f))
        want_inv = plan.c_alpha * (_outer_inverse(plan, xs) @ (plan.lambda_weights * g))
        assert np.array_equal(inverse_at(plan, g, xs), want_inv)

    def test_kernel_evaluation_count(self, plan_factory, monkeypatch):
        """One j_norm_pair point, both kernel parts, per distinct |u|."""
        points = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            points.append(np.size(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        plan = build_plan(0.5)
        assert sum(points) == 256 * 256
        points.clear()
        f = plan.sample(lambda x: np.exp(-(x**2)))
        g = np.exp(-(plan.lambda_nodes**2) / 4.0)
        half = np.linspace(0.1, 3.0, 16)
        mirrored = np.concatenate([-half[::-1], [0.0], half])
        unmirrored = np.array([0.5, 1.0, 2.0, -2.5])
        sets = (*(np.linspace(-3.0, 3.0, k) for k in (1, 5, 32)), mirrored, unmirrored)
        for lam, distinct in zip(sets, (1, 3, 23, 17, 4)):
            assert np.unique(np.abs(lam)).size == distinct
            forward_at(plan, f, lam)
            assert sum(points) == distinct * 256
            points.clear()
            inverse_at(plan, g, lam)
            assert sum(points) == distinct * 256
            points.clear()

    def test_inversion_pipeline_budget(self, witness_plan_factory, monkeypatch):
        """One s-k1-ts inversion check at (0, 0.5), m = 0, evaluates each
        kernel value once per distinct |node| and point, both parts from one
        j_norm_pair call: the 95 760 points of the multiplier image's proxy
        build (570 sample points times 168 nodes).  The fractional integral
        asks the image for each part once, on all its points, and that first
        call already costs more than a build, so the image builds at once and
        sums nothing directly.  The multiplier reads its spectrum from the
        transform of its input, and the objects on the plans' own nodes read
        theirs; all of these build their proxies from the plans' synthesis
        and analysis tables, built before the count."""
        plan_a, plan_b = witness_plan_factory(0.0), witness_plan_factory(0.5)
        for plan in (plan_a, plan_b):
            plan.jnorm_table(0)
            plan.analysis_table(0)
        witness = make_witness(0.5, plan_b, m=0)  # fresh: no image kept yet
        pairs = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            pairs.append(np.size(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        _, rel_err, _ = inversion_check(SoninePair.of(0.0, 0.5), plan_a, plan_b, witness, "s-k1-ts")
        assert rel_err <= DEFAULT_TOLERANCES["inversion"]
        assert 0 < sum(pairs) <= 95_760

    @_PROPERTY
    @given(alpha=st.floats(-0.45, 3.0), lam=_point_sets(12.0), xs=_point_sets(12.0))
    def test_rows_fold_bit_identically(self, alpha, lam, xs):
        xn, xw = mirrored_weighted_rule(alpha, 6.0, 32)
        ln, lw = mirrored_weighted_rule(alpha, 8.0, 32)
        plan = TransformPlan(as_order(alpha), 6.0, 8.0, xn, xw, ln, lw, 1e-10)
        f = np.exp(-(xn**2)) * (1.0 + 0.3 * xn)
        g = np.exp(-(ln**2) / 4.0) * (1.0 - 0.2j * ln)
        assert np.array_equal(forward_at(plan, f, lam), _outer_forward(plan, lam) @ (xw * f))
        assert np.array_equal(inverse_at(plan, g, xs), plan.c_alpha * (_outer_inverse(plan, xs) @ (lw * g)))


class TestForwardInverse:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_gaussian_oracle(self, plan_factory, alpha):
        plan = plan_factory(alpha)
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
        mask = np.abs(plan.lambda_nodes) <= 8.0
        want = math.gamma(alpha + 1.0) * np.exp(-plan.lambda_nodes[mask] ** 2 / 4.0)
        assert np.max(np.abs(spec.values[mask] - want)) <= 1e-9

    def test_gaussian_at_zero_alpha_zero(self, plan_factory):
        plan = plan_factory(0.0)
        at_zero = forward_at(plan, plan.sample(lambda x: np.exp(-(x**2))).values, np.array([0.0]))
        assert float(np.real(at_zero[0])) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_of_closed_form_spectrum(self, plan_factory):
        plan = plan_factory(0.5)
        spectrum = math.gamma(1.5) * np.exp(-plan.lambda_nodes**2 / 4.0)
        back = inverse(plan, spectrum)
        want = np.exp(-plan.x_nodes**2)
        assert np.max(np.abs(back.values - want)) <= 1e-10

    def test_roundtrip(self, plan_factory):
        plan = plan_factory(1.5)
        f = plan.sample(lambda x: x * np.exp(-(x**2)))
        back = inverse(plan, forward(plan, f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-10

    def test_linearity_exact(self, plan_factory):
        # power-of-two scaling commutes with the matrix product bit-exactly
        plan = plan_factory(0.5)
        g = forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
        scaled = inverse(plan, 2.0 * g.values)
        base = inverse(plan, g.values)
        np.testing.assert_array_equal(scaled.values, 2.0 * base.values)

    def test_even_real_input_gives_even_real_spectrum(self, plan_factory):
        plan = plan_factory(0.5)
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2)))).values
        assert np.max(np.abs(spec.imag)) <= 1e-13 * np.max(np.abs(spec.real))
        assert np.max(np.abs(spec - spec[::-1])) <= 1e-12 * np.max(np.abs(spec))

    def test_derivative_identity(self, plan_factory):
        plan = plan_factory(0.5)
        f = monomial_gaussian(1)
        spec_f = forward(plan, plan.sample(f)).values
        spec_lf = forward(plan, plan.sample(dunkl_operator(0.5, f))).values
        mask = np.abs(plan.lambda_nodes) <= 8.0
        want = 1j * plan.lambda_nodes[mask] * spec_f[mask]
        assert np.max(np.abs(spec_lf[mask] - want)) <= 1e-7 * np.max(np.abs(want))

    def test_grid_mismatch_rejected(self, plan_factory):
        plan = plan_factory(0.5)
        other = GridFunction(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="grid"):
            forward(plan, other)


class TestPlancherel:
    def test_alpha_zero_closed_form(self, plan_factory):
        plan = plan_factory(0.0)
        lhs, rhs = plancherel_sides(plan, plan.sample(lambda x: np.exp(-(x**2))))
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-9)

    def test_odd_gaussian_closed_form(self, plan_factory):
        plan = plan_factory(0.5)
        lhs, rhs = plancherel_sides(plan, plan.sample(lambda x: x * np.exp(-(x**2))))
        closed = 3.0 / 32.0 * math.sqrt(2.0 * math.pi)
        assert lhs == pytest.approx(closed, rel=1e-8)
        assert pair_errs(lhs, rhs)[1] <= 1e-8

    def test_zero_function(self, plan_factory):
        plan = plan_factory(0.5)
        lhs, rhs = plancherel_sides(plan, plan.sample(lambda x: 0.0 * x))
        assert pair_errs(lhs, rhs)[0] == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_generic(self, plan_factory, alpha):
        plan = plan_factory(alpha)
        lhs, rhs = plancherel_sides(plan, plan.sample(lambda x: (1 + x) * np.exp(-(x**2))))
        assert pair_errs(lhs, rhs)[1] <= 1e-8


class TestMultiplier:
    def test_identity_roundtrip(self, plan_factory):
        plan = plan_factory(0.5)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        out = apply_multiplier(plan, f, MultiplierSpec(0.0, 1.0))
        assert np.max(np.abs(out.values - f.values)) <= 1e-10

    def test_square_multiplier_is_minus_laplacian(self, plan_factory):
        plan = plan_factory(0.5)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        out = apply_multiplier(plan, f, MultiplierSpec(2.0, 1.0))
        image = dunkl_operator(0.5, dunkl_operator(0.5, gaussian()))
        want = -image(plan.x_nodes)
        assert np.max(np.abs(out.values - want)) <= 1e-6 * np.max(np.abs(want))

    def test_spec_algebra(self):
        m = MultiplierSpec(1.2, 2.0) * MultiplierSpec(0.8, 0.5)
        assert m.exponent == pytest.approx(2.0)
        assert m.scale == pytest.approx(1.0)

    def test_composition_law(self, witness_plan_factory, witness_factory):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        m1, m2 = MultiplierSpec(1.2, 2.0), MultiplierSpec(0.8, 0.5)
        two = apply_multiplier(plan, apply_multiplier(plan, w.values, m1), m2)
        one = apply_multiplier(plan, w.values, m1 * m2)
        assert np.max(np.abs(two.values - one.values)) <= 1e-9 * np.max(np.abs(one.values))

    def test_negative_exponent_warns_on_gaussian(self, plan_factory):
        plan = plan_factory(0.5)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        with pytest.warns(UserWarning, match="vanish"):
            apply_multiplier(plan, f, MultiplierSpec(-0.6, 1.0))

    def test_negative_exponent_silent_on_witness(self, witness_plan_factory, witness_factory):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_multiplier(plan, w.values, MultiplierSpec(-0.6, 1.0))

    def test_non_integrable_exponent_rejected(self, plan_factory):
        plan = plan_factory(0.0)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            apply_multiplier(plan, f, MultiplierSpec(-3.1, 1.0))


class TestSpectralFunction:
    def test_matches_grid_synthesis(self, plan_factory):
        plan = plan_factory(0.5)
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
        fn = SpectralFunction.from_spectrum(plan, spec)
        xs = np.array([-2.0, 0.0, 0.7, 3.1])
        want = inverse_at(plan, spec, xs)
        np.testing.assert_allclose(fn(xs), want, rtol=1e-12, atol=1e-14)

    def test_derivative_and_quotient(self, plan_factory):
        plan = plan_factory(0.5)
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
        fn = SpectralFunction.from_spectrum(plan, spec)
        h = 1e-5
        for x in (0.3, 1.1):
            fd = (fn(np.array([x + h]))[0] - fn(np.array([x - h]))[0]) / (2 * h)
            assert abs(fn.derivative(np.array([x]))[0] - fd) <= 1e-8
        # even function: odd quotient is numerically zero
        assert abs(fn.odd_quotient(np.array([0.9]))[0]) <= 1e-12

    def test_taylor_of_gaussian_image(self, plan_factory):
        plan = plan_factory(0.5)
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
        fn = SpectralFunction.from_spectrum(plan, spec)
        assert fn.taylor_coeff(0) == pytest.approx(1.0, rel=1e-10)
        assert np.real(fn.taylor_coeff(2)) == pytest.approx(-1.0, rel=1e-8)


class TestFoldedSynthesis:
    """Synthesis sums each distinct |nu| once, and agrees with the sum over
    every node to rounding."""

    def test_one_evaluation_per_distinct_node(self, witness_plan_factory, witness_factory, monkeypatch):
        """A direct sum takes both kernel components of each distinct |nu|
        from one j_norm_pair call, and a call for the other part on the same
        points reuses it.  An object on its plan's lambda-nodes or x-nodes
        (the transform image) reads its proxy, built from the plan's tables,
        for all but the derivative."""
        plan = witness_plan_factory(0.5)
        plan.jnorm_table(0)
        plan.analysis_table(0)
        w = witness_factory(0.5, 0)
        image = apply_multiplier_fn(plan, w.values, MultiplierSpec(1.0, 1.0))
        fns = (SpectralFunction.from_spectrum(plan, w.spectrum), image, _ForwardImage(plan, gaussian()))
        calls = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            calls.append(np.size(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        x = np.linspace(-3.0, 3.0, 25)
        for fn in fns:
            distinct = np.unique(np.abs(fn.nodes)).size
            assert 2 * distinct == fn.nodes.size
            summed = [x.size * distinct]
            direct = summed if fn is image else []
            for call, points, expected in ((fn.even_part, x, direct), (fn.odd_quotient, x, []), (fn, x, []),
                                           (fn.derivative, x, summed), (fn.odd_quotient, x + 1.0, direct)):
                calls.clear()
                call(points)
                assert calls == expected

    @_PROPERTY
    @given(fn=_spectra(), x=_point_sets(5.0), k=st.integers(0, 5))
    # weights of float_info.min / 2, a subnormal that hypothesis draws: the
    # folded value lies 3 subnormal steps from the unfolded one
    @example(fn=SpectralFunction(1.0, np.array([2.0, 9.0]), np.full(2, 1.1125369292536007e-308j)), x=np.array([-5.0]), k=0)
    def test_matches_sum_over_every_node(self, fn, x, k):
        """Each method against its unfolded formula, to 1e-14 of the sum of
        its absolute terms (1e-14 sum |w| where the kernel factor is at most 1);
        the two kernel components come from j_norm_pair, as the object sums them.
        Relative precision ends at the smallest normal double, so the sum is
        floored there: terms with subnormal weights round by whole subnormal
        steps (5e-324), and the two sums differ by a few of them."""
        a = fn.order.alpha
        u = np.outer(x, fn.nodes)
        even, j1 = j_norm_pair(a, u)
        q = j1 / (2.0 * (a + 1.0))
        qp = -u * j_norm(a + 2.0, u) / (2.0 * (a + 2.0)) / (2.0 * (a + 1.0))
        odd_q = 1j * q * fn.nodes
        terms = {
            fn.even_part: even,
            fn.odd_quotient: odd_q,
            fn: even + x[:, None] * odd_q,
            fn.derivative: (-u * q + 1j * (q + u * qp)) * fn.nodes,
        }
        normal = np.finfo(float).tiny
        for method, factors in terms.items():
            bound = 1e-14 * np.maximum(np.abs(factors) @ np.abs(fn.wspec), normal)
            assert np.all(np.abs(method(x) - factors @ fn.wspec) <= bound)
        scale = math.exp(-log_b_coeff(k, fn.order))
        taylor = scale * (1j * fn.nodes) ** k * fn.wspec
        assert abs(fn.taylor_coeff(k) - np.sum(taylor)) <= 1e-14 * max(np.sum(np.abs(taylor)), normal)


PIPELINE_ORDERS = (0.0, 0.5, 1.5, 2.0)


def _exact_parts(fn, y):
    """Even part and odd quotient by direct synthesis with the exact kernel
    over the distinct |nu|, the spectrum folded into even and odd weights,
    both components from one j_norm_pair call and each real table times
    complex weights as one real product, as SpectralFunction sums."""
    a = fn.order.alpha
    abs_nodes, where = np.unique(np.abs(fn.nodes), return_inverse=True)
    w_even = np.zeros(abs_nodes.size, dtype=np.result_type(fn.wspec, float))
    w_odd = np.zeros_like(w_even)
    np.add.at(w_even, where, fn.wspec)
    np.add.at(w_odd, where, np.sign(fn.nodes) * fn.wspec)
    j_even, j_odd = j_norm_pair(a, np.outer(y, abs_nodes))
    return _real_matvec(j_even, w_even), _real_matvec(j_odd, 1j * abs_nodes * w_odd / (2.0 * (a + 1.0)))


def _assert_bins_within_direct(y, radius, want, scale, direct, got, label):
    """In every bin of [0, radius], the error of ``got`` against ``want`` is
    within 10 times that of the exact direct route ``direct``, plus a
    rounding floor: 50 ulps of the bin's largest sum of absolute terms
    ``scale``, or 1e-15 of the peak where that is smaller.  The bins have
    width 2 in y, whatever panels the proxy uses; the last one takes the
    endpoint y = radius."""
    peak = np.max(np.abs(want))
    bins = np.minimum(y // 2.0, math.ceil(radius / 2.0) - 1)
    for k in np.unique(bins):
        on = bins == k
        floor = min(50.0 * np.finfo(float).eps * np.max(scale[on]), 1e-15 * peak)
        direct_err = np.max(np.abs(direct[on] - want[on]))
        assert np.max(np.abs(got[on] - want[on])) <= 10.0 * direct_err + floor, (label, k)


def _pipeline_fns(plan, witness_factory, alpha):
    """The witnesses (m = 0, 1) and a multiplier image, as the pipelines synthesize them."""
    fns = [SpectralFunction.from_spectrum(plan, witness_factory(alpha, m).spectrum) for m in (0, 1)]
    return [*fns, apply_multiplier_fn(plan, witness_factory(alpha, 0).values, MultiplierSpec(1.0, 1.0))]


class TestSynthesisProxy:
    """Calls within the synthesis radius read a piecewise-Chebyshev proxy:
    every call of an object on its plan's nodes, and a multiplier image's
    calls larger than its proxy's build.  The rest sum directly."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        original = SpectralFunction._build_proxy

        def counted(fn):
            count.append(fn)
            original(fn)

        monkeypatch.setattr(SpectralFunction, "_build_proxy", counted)
        return count

    @pytest.mark.parametrize("alpha", PIPELINE_ORDERS)
    def test_panel_errors_within_table_route(self, witness_plan_factory, witness_factory, alpha):
        """In every bin of [0, radius], the proxy's error against the sum
        over every node is within 10 times that of the exact direct route
        (the folded sum), plus a rounding floor: 50 ulps of the bin's largest
        sum of absolute terms, or 1e-15 of the peak where that is smaller."""
        plan = witness_plan_factory(alpha)
        fns = _pipeline_fns(plan, witness_factory, alpha)
        radius = plan.synthesis_radius
        y = np.linspace(0.0, radius, 2001)
        for fn in fns:
            # unfolded references: independent of the fold the object sums by
            j_even, j_odd = j_norm_pair(alpha, np.outer(y, fn.nodes))
            factors = (j_even, 1j * j_odd / (2.0 * (alpha + 1.0)) * fn.nodes)
            exact = [f @ fn.wspec for f in factors]
            absolute = [np.abs(f) @ np.abs(fn.wspec) for f in factors]
            direct = _exact_parts(fn, y)
            proxy = (fn.even_part(y), fn.odd_quotient(y))
            for want, scale, ref, got in zip(exact, absolute, direct, proxy):
                _assert_bins_within_direct(y, radius, want, scale, ref, got, alpha)

    @pytest.mark.parametrize("alpha", PIPELINE_ORDERS)
    def test_within_sum_of_absolute_terms(self, witness_plan_factory, witness_factory, alpha):
        """The proxy interpolates the exact-kernel sum: at every point of
        [0, radius], each part within 5e-14 of its sum of absolute terms."""
        plan = witness_plan_factory(alpha)
        y = np.linspace(0.0, plan.synthesis_radius, 2001)
        for fn in _pipeline_fns(plan, witness_factory, alpha):
            u = np.outer(y, fn.nodes)
            even = j_norm(alpha, u) * fn.wspec
            odd_q = 1j * j_norm(alpha + 1.0, u) / (2.0 * (alpha + 1.0)) * fn.nodes * fn.wspec
            for got, terms in ((fn.even_part(y), even), (fn.odd_quotient(y), odd_q)):
                assert np.all(np.abs(got - terms.sum(axis=1)) <= 5e-14 * np.abs(terms).sum(axis=1)), alpha
            assert fn._proxy.coeffs

    @pytest.mark.parametrize("witness", [False, True], ids=["default-plan", "witness-plan"])
    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_band_edge_tone(self, plan_factory, witness_plan_factory, witness, alpha):
        """Content at the band edge is the hardest for the proxy's degree:
        a tone with weights 1.0 and 0.3 on the two +-lambda_max nodes reads
        within 5e-9 of its direct sum on [0, radius], in each part relative
        to that part's peak (at most 9.1e-10 here; ten fewer Chebyshev
        points a panel give 2.1e-7 to 2.9e-5)."""
        plan = witness_plan_factory(alpha) if witness else plan_factory(alpha)
        spectrum = np.zeros(plan.lambda_nodes.size)
        spectrum[[0, -1]] = 0.3, 1.0
        fn = SpectralFunction.from_spectrum(plan, spectrum)
        y = np.linspace(0.0, plan.synthesis_radius, 4001)
        nu, w = plan.lambda_nodes[[0, -1]], fn.wspec[[0, -1]]
        j_even, j_odd = j_norm_pair(alpha, np.outer(y, np.abs(nu)))
        direct = (j_even @ w, (1j * j_odd / (2.0 * (alpha + 1.0)) * nu) @ w)
        for got, want in zip((fn.even_part(y), fn.odd_quotient(y)), direct):
            assert np.max(np.abs(got - want)) <= 5e-9 * np.max(np.abs(want))
        assert fn._proxy.coeffs

    def test_small_call_is_the_direct_sum(self, witness_plan_factory, witness_factory, builds):
        """A multiplier image builds its proxy from its own j_norm_pair call
        on the proxy's sample points, by the ski-rental rule: a first call
        below that build's cost is a direct sum, and the call that brings the
        object's direct sums over one build reads the proxy."""
        plan = witness_plan_factory(0.5)
        fn = apply_multiplier_fn(plan, witness_factory(0.5, 1).values, MultiplierSpec(1.0, 1.0))
        builds.clear()  # the multiplier's own spectrum is read from an analysis proxy: count only fn's
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, fn._proxy.size - 10)
        even, odd_q = _exact_parts(fn, x)
        assert np.array_equal(fn.even_part(x), even)
        assert np.array_equal(fn.odd_quotient(x), odd_q)
        assert np.array_equal(fn(x), even + x * odd_q)
        fn.even_part(x)[:] = 0.0  # the object keeps its sums, not the caller's arrays
        assert np.array_equal(fn.even_part(x), even)
        assert builds == []
        beyond = np.linspace(1.01, 2.0, 20) * plan.synthesis_radius  # no proxy reaches here: not counted
        last = np.linspace(-3.0, 3.0, 10)  # together with x, exactly one build
        for y in (beyond, last):
            assert np.array_equal(fn.even_part(y), _exact_parts(fn, y)[0])
        assert builds == []
        one = np.array([0.5])
        assert np.array_equal(fn.even_part(one), fn._proxy(0, one))
        assert builds == [fn]
        assert np.array_equal(fn.even_part(x), fn._proxy(0, x))

    @pytest.mark.parametrize(
        "sizes",
        [(570,), (571,), (569, 2), (50, 50, 50), (100,) * 15, (400,) * 4, (1, 2000), (200, 400, 5, 5)],
    )
    def test_ski_rental_bound(self, witness_plan_factory, witness_factory, monkeypatch, sizes):
        """Over any sequence of calls within the radius, a multiplier image
        evaluates at most twice the kernel points of the better choice in
        hindsight, summing every call directly or building at once, and
        exactly the direct sums while they stay within one build."""
        plan = witness_plan_factory(0.5)
        fn = apply_multiplier_fn(plan, witness_factory(0.5, 1).values, MultiplierSpec(1.0, 1.0))
        build = fn._proxy.size
        assert build == 570  # the witness plans' proxies
        points = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            points.append(np.size(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        rng = np.random.default_rng(sum(sizes))
        for size in sizes:
            fn.even_part(rng.uniform(-plan.synthesis_radius, plan.synthesis_radius, size))
        nodes = fn._abs_nodes.size
        assert sum(points) <= 2 * min(sum(sizes), build) * nodes
        if sum(sizes) <= build:
            assert sum(points) == sum(sizes) * nodes

    def test_small_call_on_plan_nodes_reads_the_proxy(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.array([-3.0, 0.25, 7.5])
        even = fn.even_part(x)
        assert builds == [fn]
        assert np.array_equal(even, fn._proxy(0, x))
        assert np.array_equal(fn.odd_quotient(x), fn._proxy(1, x))
        assert np.max(np.abs(even - _exact_parts(fn, x)[0])) <= 1e-13 * np.max(np.abs(even))

    def test_points_beyond_radius_sum_directly(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 0).spectrum)
        x = np.linspace(0.0, 1.01 * plan.synthesis_radius, 7)
        even, odd_q = _exact_parts(fn, x)
        assert np.array_equal(fn.even_part(x), even)
        assert np.array_equal(fn.odd_quotient(x), odd_q)
        assert builds == []

    def test_built_once_per_object(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, 25)
        even, odd_q = _exact_parts(fn, x)
        peak = np.max(np.abs(even + x * odd_q))
        for _ in range(2):
            assert np.max(np.abs(fn.even_part(x) - even)) <= 1e-13 * peak
            assert np.max(np.abs(fn.odd_quotient(x) - odd_q)) <= 1e-13 * peak
            assert np.max(np.abs(fn(x) - (even + x * odd_q))) <= 1e-13 * peak
        assert builds == [fn]

    def test_planless_object_never_builds(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        fn = SpectralFunction(plan.order, plan.lambda_nodes, plan.c_alpha * plan.lambda_weights * w.spectrum)
        x = np.linspace(0.0, 20.0, 1300)
        even, _ = _exact_parts(fn, x)
        assert np.array_equal(fn.even_part(x), even)
        assert builds == []


class TestSynthesisTables:
    """Objects on a plan's own lambda-nodes (synthesis) or x-nodes (the
    transform of x-samples, ``forward_fn``) share one table of kernel values
    at the proxy's sample points per plan and side."""

    def test_one_kernel_call_per_plan(self, witness_factory, monkeypatch):
        plan = witness_plan(0.5)  # fresh: its tables are not built yet
        w = witness_factory(0.5, 1)
        calls = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            calls.append(np.shape(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        x = np.linspace(-6.0, 6.0, 9)
        sides = {
            "synthesis": [SpectralFunction.from_spectrum(plan, w.spectrum * (1.0 + 0.5 * k * plan.lambda_nodes)) for k in range(5)],
            "analysis": [forward_fn(plan, w.values.values * (1.0 + 0.5 * k * plan.x_nodes)) for k in range(5)],
        }
        for (side, fns), shape in zip(sides.items(), ((630, 168), (324, 192))):
            radius, nu = plan.table_grids[side]
            calls.clear()
            for fn in fns:
                fn(x)
            assert calls == [(fns[0]._proxy.sample_points().size, nu.size)] == [shape]
            for fn in fns:
                own = dunkl.transform._ChebProxy(radius, float(nu[-1]))
                even, odd = original(0.5, np.outer(own.sample_points(), np.unique(np.abs(fn.nodes))))
                own.fit(_real_matvec(even, fn._w_even), _real_matvec(odd, fn._w_quotient))
                assert all(np.array_equal(a, b) for a, b in zip(fn._proxy.coeffs, own.coeffs))

    def test_tables_are_read_only(self, witness_plan_factory):
        plan = witness_plan_factory(0.5)
        for table in (plan.jnorm_table, plan.analysis_table):
            for shift in (0, 1):
                with pytest.raises(ValueError, match="read-only"):
                    table(shift)[0, 0] = 0.0
            with pytest.raises(ValueError, match="shifts 0 and 1"):
                table(2)


class TestAnalysisTables:
    """The transform of x-samples as a function of lambda (``forward_fn``)
    reads its proxy on [0, lambda_max] from the plan's analysis tables;
    points beyond sum directly, and ``forward_at`` stays the exact route."""

    @pytest.mark.parametrize("kind", ("default", "witness"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bins_within_exact_route(self, plan_factory, witness_plan_factory, witness_factory, alpha, kind):
        """Against the exact forward_at (the unfolded outer product, bit for
        bit), the image is within the bound of
        ``test_panel_errors_within_table_route``, whose direct route here is
        the image's own folded sum."""
        plan = plan_factory(alpha) if kind == "default" else witness_plan_factory(alpha)
        x = plan.x_nodes
        inputs = [np.exp(-(x**2)) * (1.0 + 0.3 * x), x * np.exp(-(x**2) / 4.0)]
        if kind == "witness":
            inputs += [witness_factory(alpha, m).values.values for m in (0, 1)]
        y = np.linspace(0.0, plan.lambda_max, 2001)
        kernel = _outer_forward(plan, y)
        for f in inputs:
            fn = forward_fn(plan, f)
            want = forward_at(plan, f, y)
            even, odd_q = _exact_parts(fn, y)
            scale = np.abs(kernel) @ np.abs(plan.x_weights * f)
            _assert_bins_within_direct(y, plan.lambda_max, want, scale, even + y * odd_q, fn(y), alpha)
            assert fn._proxy.coeffs

    def test_suite_checks_read_the_tables(self, plan_factory, monkeypatch):
        """With the plans' analysis tables built, one decomposition check and
        one power-weight-transform check evaluate the kernel only at spectral
        points beyond lambda_max: a direct sum's rows are |lambda| times the
        x-nodes, so each row's largest value is |lambda| x_max."""
        plan_a, plan_b = plan_factory(0.0), plan_factory(0.5)
        for plan in (plan_a, plan_b):
            plan.analysis_table(0)
        rows = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            rows.append(np.max(u, axis=1))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        mask = np.abs(plan_b.lambda_nodes) <= 8.0
        assert max(_decomposition_errs(SoninePair.of(0.0, 0.5), plan_a, plan_b, gaussian(), mask)) <= 1e-12
        assert rows == []
        lhs, rhs, _ = power_weight_identity(0.0, -1.2, gaussian(), plan_a)
        assert pair_errs(lhs, rhs)[1] <= DEFAULT_TOLERANCES["power-weight-transform"]
        assert all(np.all(r > plan_a.lambda_max * plan_a.x_nodes[-1]) for r in rows)

    def test_out_of_band_points_evaluate_nothing(self, plan_factory, monkeypatch):
        """A power-weight image is zero beyond its band limit and evaluates
        the kernel at its in-band points only."""
        image = _ForwardImage(plan_factory(0.0), gaussian())
        beyond = image.band_limit * np.linspace(1.01, 3.0, 7)
        mixed = np.array([1.0, beyond[0], -2.0])
        inside = image.even_part(mixed[[0, 2]])
        calls = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            calls.append(np.shape(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        for method in (image, image.even_part, image.odd_quotient):
            assert np.array_equal(method(-beyond), np.zeros(beyond.size))
        assert calls == []
        assert np.array_equal(image.even_part(mixed), [inside[0], 0.0, inside[1]])
