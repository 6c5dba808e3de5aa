"""Discrete transform plans, Plancherel, and spectral multipliers."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dunkl.transform
from dunkl.core import dunkl_operator
from dunkl.fractional import _ForwardImage
from dunkl.functions import GridFunction, gaussian, monomial_gaussian
from dunkl.lizorkin import inversion_check, make_witness
from dunkl.sonine import SoninePair
from dunkl.special import as_order, j_norm, log_b_coeff
from dunkl.transform import (
    MultiplierSpec,
    PlanSelfTestError,
    SpectralFunction,
    TransformPlan,
    apply_multiplier,
    apply_multiplier_fn,
    build_plan,
    forward,
    forward_at,
    inverse,
    inverse_at,
    kernel_unitary,
    mirrored_weighted_rule,
    plancherel_check,
)

ALPHAS = (-0.25, 0.0, 0.5, 1.5)

# property tests repeat exactly: fixed example count, derandomized draws
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
        # synthesis tables sample j_norm on [0, lambda_max * 1.4 * L] = [0, 269]
        # at the orders alpha, alpha + 1 and alpha + 2
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
        kernel value once per distinct |node|: 138 096 j_norm_pair points,
        each giving both parts (32 256 kernel points and the 105 840 of one
        proxy build), no direct j_norm point, and 532 560 spline points
        (twice that without the fold)."""
        plan_a, plan_b = witness_plan_factory(0.0), witness_plan_factory(0.5)
        for plan in (plan_a, plan_b):
            for shift in (0, 1):
                plan.jnorm_table(shift)
        witness = make_witness(0.5, plan_b, m=0)  # fresh: no image kept yet
        pairs, direct, spline = [], [], []
        originals = dunkl.transform.j_norm_pair, dunkl.transform.j_norm, dunkl.transform._JNormTable.__call__

        def counting(log, original):
            def count(first, u):
                log.append(np.size(u))
                return original(first, u)
            return count

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting(pairs, originals[0]))
        monkeypatch.setattr(dunkl.transform, "j_norm", counting(direct, originals[1]))
        monkeypatch.setattr(dunkl.transform._JNormTable, "__call__", counting(spline, originals[2]))
        report = inversion_check(SoninePair.of(0.0, 0.5), plan_a, plan_b, witness, "s-k1-ts")
        assert report.passed()
        assert 0 < sum(pairs) <= 138_096
        assert sum(direct) == 0
        assert sum(spline) <= 532_560

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
        rep = plancherel_check(plan, plan.sample(lambda x: np.exp(-(x**2))))
        assert rep.params["lhs"] == pytest.approx(0.5, abs=1e-9)
        assert rep.params["rhs"] == pytest.approx(0.5, abs=1e-9)

    def test_odd_gaussian_closed_form(self, plan_factory):
        plan = plan_factory(0.5)
        rep = plancherel_check(plan, plan.sample(lambda x: x * np.exp(-(x**2))))
        closed = 3.0 / 32.0 * math.sqrt(2.0 * math.pi)
        assert rep.params["lhs"] == pytest.approx(closed, rel=1e-8)
        assert rep.max_rel_err <= 1e-8

    def test_zero_function(self, plan_factory):
        plan = plan_factory(0.5)
        rep = plancherel_check(plan, plan.sample(lambda x: 0.0 * x))
        assert rep.max_abs_err == 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_generic(self, plan_factory, alpha):
        plan = plan_factory(alpha)
        rep = plancherel_check(plan, plan.sample(lambda x: (1 + x) * np.exp(-(x**2))))
        assert rep.max_rel_err <= 1e-8


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
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        fns = (
            SpectralFunction.from_spectrum(plan, w.spectrum),
            apply_multiplier_fn(plan, w.values, MultiplierSpec(1.0, 1.0)),
            _ForwardImage(plan, gaussian()),
        )
        points = collections.Counter()
        original = SpectralFunction._j

        def counting(fn, shift, u):
            points[shift] += np.size(u)
            return original(fn, shift, u)

        monkeypatch.setattr(SpectralFunction, "_j", counting)
        x = np.linspace(-3.0, 3.0, 25)
        for fn in fns:
            distinct = np.unique(np.abs(fn.nodes)).size
            assert 2 * distinct == fn.nodes.size
            for call, shifts in ((fn.even_part, (0,)), (fn.odd_quotient, (1,)), (fn, (0, 1)), (fn.derivative, (0, 1))):
                points.clear()
                call(x)
                assert points == {shift: x.size * distinct for shift in shifts}

    @_PROPERTY
    @given(fn=_spectra(), x=_point_sets(5.0), k=st.integers(0, 5))
    def test_matches_sum_over_every_node(self, fn, x, k):
        """Each method against its unfolded formula, to 1e-14 of the sum of
        its absolute terms (1e-14 sum |w| where the kernel factor is at most 1)."""
        a = fn.order.alpha
        u = np.outer(x, fn.nodes)
        q = j_norm(a + 1.0, u) / (2.0 * (a + 1.0))
        qp = -u * j_norm(a + 2.0, u) / (2.0 * (a + 2.0)) / (2.0 * (a + 1.0))
        even = j_norm(a, u)
        odd_q = 1j * q * fn.nodes
        terms = {
            fn.even_part: even,
            fn.odd_quotient: odd_q,
            fn: even + x[:, None] * odd_q,
            fn.derivative: (-u * q + 1j * (q + u * qp)) * fn.nodes,
        }
        for method, factors in terms.items():
            bound = 1e-14 * (np.abs(factors) @ np.abs(fn.wspec))
            assert np.all(np.abs(method(x) - factors @ fn.wspec) <= bound)
        scale = math.exp(-log_b_coeff(k, fn.order))
        taylor = scale * (1j * fn.nodes) ** k * fn.wspec
        assert abs(fn.taylor_coeff(k) - np.sum(taylor)) <= 1e-14 * np.sum(np.abs(taylor))


PIPELINE_ORDERS = (0.0, 0.5, 1.5, 2.0)


def _parts(fn, y, j_even, j_odd, fold):
    """Even part and odd quotient by direct synthesis: over every node, or,
    with ``fold``, over the distinct |nu| with the spectrum folded into even
    and odd weights, as SpectralFunction sums."""
    a = fn.order.alpha
    if not fold:
        u = np.outer(y, fn.nodes)
        return j_even(u) @ fn.wspec, (1j * j_odd(u) / (2.0 * (a + 1.0)) * fn.nodes) @ fn.wspec
    abs_nodes, where = np.unique(np.abs(fn.nodes), return_inverse=True)
    w_even = np.zeros(abs_nodes.size, dtype=np.result_type(fn.wspec, float))
    w_odd = np.zeros_like(w_even)
    np.add.at(w_even, where, fn.wspec)
    np.add.at(w_odd, where, np.sign(fn.nodes) * fn.wspec)
    u = np.outer(y, abs_nodes)
    return j_even(u) @ w_even, j_odd(u) @ (1j * abs_nodes * w_odd / (2.0 * (a + 1.0)))


def _exact_parts(fn, y, fold=True):
    """Even part and odd quotient by direct synthesis with the exact kernel."""
    a = fn.order.alpha
    return _parts(fn, y, lambda u: j_norm(a, u), lambda u: j_norm(a + 1.0, u), fold)


def _table_parts(fn, plan, y, fold=True):
    """Even part and odd quotient by direct synthesis through the plan's tables."""
    return _parts(fn, y, plan.jnorm_table(0), plan.jnorm_table(1), fold)


def _pipeline_fns(plan, witness_factory, alpha):
    """The witnesses (m = 0, 1) and a multiplier image, as the pipelines synthesize them."""
    fns = [SpectralFunction.from_spectrum(plan, witness_factory(alpha, m).spectrum) for m in (0, 1)]
    return [*fns, apply_multiplier_fn(plan, witness_factory(alpha, 0).values, MultiplierSpec(1.0, 1.0))]


class TestSynthesisProxy:
    """Witness-size calls take a piecewise-Chebyshev proxy; the rest sum directly."""

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
        plan = witness_plan_factory(alpha)
        fns = _pipeline_fns(plan, witness_factory, alpha)
        radius = plan.synthesis_radius
        y = np.linspace(0.0, radius, 2001)
        for fn in fns:
            # unfolded references: independent of the fold the object sums by
            exact = _exact_parts(fn, y, fold=False)
            table = _table_parts(fn, plan, y, fold=False)
            proxy = (fn.even_part(y), fn.odd_quotient(y))
            # bins of width 2 in y, whatever panels the proxy uses; the last
            # one takes the endpoint y = radius
            panels = np.minimum(y // 2.0, math.ceil(radius / 2.0) - 1)
            for want, tab, got in zip(exact, table, proxy):
                peak = np.max(np.abs(want))
                for k in np.unique(panels):
                    on = panels == k
                    table_err = np.max(np.abs(tab[on] - want[on]))
                    assert np.max(np.abs(got[on] - want[on])) <= 10.0 * table_err + 1e-17 * peak, (alpha, k)

    @pytest.mark.parametrize("alpha", PIPELINE_ORDERS)
    def test_within_sum_of_absolute_terms(self, witness_plan_factory, witness_factory, alpha):
        """The proxy interpolates the exact-kernel sum: at every point of
        [0, radius], each part within 5e-14 of its sum of absolute terms
        (a proxy sampled from the spline tables reaches 2.3e-13)."""
        plan = witness_plan_factory(alpha)
        y = np.linspace(0.0, plan.synthesis_radius, 2001)
        for fn in _pipeline_fns(plan, witness_factory, alpha):
            u = np.outer(y, fn.nodes)
            even = j_norm(alpha, u) * fn.wspec
            odd_q = 1j * j_norm(alpha + 1.0, u) / (2.0 * (alpha + 1.0)) * fn.nodes * fn.wspec
            for got, terms in ((fn.even_part(y), even), (fn.odd_quotient(y), odd_q)):
                assert np.all(np.abs(got - terms.sum(axis=1)) <= 5e-14 * np.abs(terms).sum(axis=1)), alpha
            assert fn._proxy.coeffs

    def test_small_call_is_the_direct_sum(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, fn._proxy.size)
        even, odd_q = _table_parts(fn, plan, x)
        assert np.array_equal(fn.even_part(x), even)
        assert np.array_equal(fn.odd_quotient(x), odd_q)
        assert np.array_equal(fn(x), even + x * odd_q)
        assert builds == []

    def test_points_beyond_radius_sum_directly(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 0).spectrum)
        x = np.linspace(0.0, 1.01 * plan.synthesis_radius, fn._proxy.size + 1)
        even, odd_q = _table_parts(fn, plan, x)
        assert np.array_equal(fn.even_part(x), even)
        assert np.array_equal(fn.odd_quotient(x), odd_q)
        assert builds == []

    def test_built_once_per_object(self, witness_plan_factory, witness_factory, builds):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, fn._proxy.size + 1)
        even, odd_q = _table_parts(fn, plan, x)
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
