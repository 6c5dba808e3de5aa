"""Discrete transform plans, Plancherel, and spectral multipliers."""

import math
import re
import subprocess
import sys
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
from dunkl.sonine import SoninePair, dual_sonine_grid
from dunkl.suites import DEFAULT_TOLERANCES, _decomposition_errs
from dunkl.quadrature import _real_matvec
from dunkl.special import as_order, j_norm, j_norm_pair, log_b_coeff
from dunkl.transform import (
    MultiplierSpec,
    PlanSelfTestError,
    SpectralFunction,
    TransformPlan,
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

    @pytest.mark.parametrize(
        "size", [{"half_width": math.inf}, {"lambda_max": math.inf}, {"tol": math.nan}, {"tol": math.inf}]
    )
    def test_non_finite_size_rejected(self, size):
        # an infinite extent makes the self-test read nan, and a nan or infinite tol would switch it off
        with pytest.raises(ValueError, match=f"plan {next(iter(size))} must be a finite number > 0"):
            build_plan(0.5, **size)

    @pytest.mark.parametrize(
        "alpha, size", [(0.5, {"half_width": 1e120}), (0.5, {"lambda_max": 1e120}), (3.5, {"half_width": 1e45})]
    )
    def test_overflowing_extent_rejected(self, alpha, size):
        # extent ** (2 alpha + 2) scales the weights; past the double range it is a ValueError, not an OverflowError
        with pytest.raises(ValueError, match=re.escape(f"extent {next(iter(size.values()))!r} overflows")):
            build_plan(alpha, **size)

    def test_nan_self_test_error_fails(self, monkeypatch):
        monkeypatch.setattr(dunkl.transform, "_mirror_sum", lambda plan, values, sign: np.full(values.shape, math.nan))
        with pytest.raises(PlanSelfTestError, match="reached nan"):
            build_plan(0.5, n_x=32, n_lambda=32)

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


def _assert_rows_within(got, terms):
    """got is the row sums of terms within 1e-14 of each row's sum of |terms|."""
    assert np.all(np.abs(got - terms.sum(axis=1)) <= 1e-14 * np.abs(terms).sum(axis=1))


def _assert_off_grid_routes(plan, f, g, lam, xs):
    """forward_at and inverse_at are the direct sums of the plan-free
    SpectralFunctions over the nodes -x and lambda, bit for bit, and the
    unfolded outer-product sums to rounding."""
    fwd, inv = forward_at(plan, f, lam), inverse_at(plan, g, xs)
    assert np.array_equal(fwd, SpectralFunction(plan.order, -plan.x_nodes, plan.x_weights * f)(lam))
    assert np.array_equal(inv, SpectralFunction(plan.order, plan.lambda_nodes, plan.c_alpha * plan.lambda_weights * g)(xs))
    _assert_rows_within(fwd, _outer_forward(plan, lam) * (plan.x_weights * f))
    _assert_rows_within(inv, plan.c_alpha * _outer_inverse(plan, xs) * (plan.lambda_weights * g))


class TestFoldedKernel:
    """A plan keeps the kernel as two real quadrant tables over the positive
    nodes, and ``forward``/``inverse`` mirror them; they agree with the full
    outer-product sum to rounding.  ``forward_at`` and ``inverse_at`` fold the
    mirrored weights by halves and take a SpectralFunction's direct sum over
    the positive nodes: bit-identical to the plan-free SpectralFunction, and
    within the same rounding bound of the full outer product."""

    @pytest.mark.parametrize("kind", ("default", "witness"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bit_identical_to_outer_product(self, plan_factory, witness_plan_factory, alpha, kind):
        plan = plan_factory(alpha) if kind == "default" else witness_plan_factory(alpha)
        u = np.outer(plan.lambda_nodes[plan.lambda_nodes.size // 2 :], plan.x_nodes[plan.x_nodes.size // 2 :])
        even, odd = j_norm_pair(alpha, u)
        assert np.array_equal(plan.kernel_even, even)
        assert np.array_equal(plan.kernel_odd, odd * (u / (2.0 * (alpha + 1.0))))
        assert not (plan.kernel_even.flags.writeable or plan.kernel_odd.flags.writeable)

        rng = np.random.default_rng(17)
        f = np.exp(-(plan.x_nodes**2)) * (1.0 + 0.3 * plan.x_nodes)
        g = np.exp(-(plan.lambda_nodes**2) / 4.0) * (1.0 - 0.2j * plan.lambda_nodes)
        # the mirrored sums agree with the outer-product sum within 1e-14 of each row's sum of |terms|
        for v in (f, f * (1.0 - 0.5j)):
            _assert_rows_within(forward(plan, v).values, _outer_forward(plan, plan.lambda_nodes) * (plan.x_weights * v))
        for v in (g, g.real):
            terms = plan.c_alpha * _outer_inverse(plan, plan.x_nodes) * (plan.lambda_weights * v)
            _assert_rows_within(inverse(plan, v).values, terms)

        lam = np.concatenate([rng.uniform(-9.0, 9.0, 37), [0.0]])
        xs = np.concatenate([rng.uniform(-6.0, 6.0, 23), [0.0]])
        _assert_off_grid_routes(plan, f, g, lam, xs)

    def test_off_grid_values_take_the_shape_of_their_points(self, plan_factory):
        """As the SpectralFunction methods do: a scalar point gives a 0-d
        value, a 2-d array of points a 2-d array of values."""
        plan = plan_factory(0.5)
        f = np.exp(-(plan.x_nodes**2)) * (1.0 + 0.3 * plan.x_nodes)
        g = np.exp(-(plan.lambda_nodes**2) / 4.0) * (1.0 - 0.2j * plan.lambda_nodes)
        grid = np.array([[-2.0, 0.0, 0.7], [3.1, -0.7, 2.0]])
        for route, v in ((forward_at, f), (inverse_at, g)):
            flat = route(plan, v, grid.ravel())
            assert np.shape(route(plan, v, 0.7)) == ()
            assert route(plan, v, 0.7) == route(plan, v, np.array([0.7]))[0]
            assert route(plan, v, grid).shape == grid.shape
            assert np.array_equal(route(plan, v, grid).ravel(), flat)

    def test_plan_holds_no_dense_kernel(self):
        """A fresh default plan holds its two 256 x 256 quadrant tables and its
        rules: 1 064 960 bytes of arrays, where one dense 512 x 512 complex
        kernel alone is 4 194 304."""
        plan = build_plan(0.5)
        held, stack = {}, list(vars(plan).values())
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                while isinstance(item.base, np.ndarray):  # count the memory a view keeps alive
                    item = item.base
                held[id(item)] = item.nbytes
        assert sum(held.values()) <= 1_100_000

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
        j_norm_pair call: the 19 152 points of the multiplier image's proxy
        fill (the 114 sample points of the 3 panels its points touch, of 15,
        times 168 nodes).  The fractional integral asks the image for each
        part once, on all its points, and that first call already costs more
        than a full build, so the image reads its proxy at once and sums
        nothing directly.  The multiplier reads its spectrum from the
        transform of its input, and the objects on the plans' own nodes read
        theirs; all of these fill their proxies from the plans' synthesis
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
        assert 0 < sum(pairs) <= 19_152

    @_PROPERTY
    @given(alpha=st.floats(-0.45, 3.0), lam=_point_sets(12.0), xs=_point_sets(12.0))
    def test_rows_fold_bit_identically(self, alpha, lam, xs):
        xn, xw = mirrored_weighted_rule(alpha, 6.0, 32)
        ln, lw = mirrored_weighted_rule(alpha, 8.0, 32)
        plan = TransformPlan(as_order(alpha), 6.0, 8.0, xn, xw, ln, lw, 1e-10)
        f = np.exp(-(xn**2)) * (1.0 + 0.3 * xn)
        g = np.exp(-(ln**2) / 4.0) * (1.0 - 0.2j * ln)
        _assert_off_grid_routes(plan, f, g, lam, xs)


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
        out = apply_multiplier_fn(plan, f, MultiplierSpec(0.0, 1.0))(plan.x_nodes)
        assert np.max(np.abs(out - f.values)) <= 1e-10

    def test_square_multiplier_is_minus_laplacian(self, plan_factory):
        plan = plan_factory(0.5)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        out = apply_multiplier_fn(plan, f, MultiplierSpec(2.0, 1.0))(plan.x_nodes)
        image = dunkl_operator(0.5, dunkl_operator(0.5, gaussian()))
        want = -image(plan.x_nodes)
        assert np.max(np.abs(out - want)) <= 1e-6 * np.max(np.abs(want))

    def test_composition_law(self, witness_plan_factory, witness_factory):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        m1, m2 = MultiplierSpec(1.2, 2.0), MultiplierSpec(0.8, 0.5)
        x = plan.x_nodes
        two = apply_multiplier_fn(plan, apply_multiplier_fn(plan, w.values, m1)(x), m2)(x)
        one = apply_multiplier_fn(plan, w.values, MultiplierSpec(m1.exponent + m2.exponent, m1.scale * m2.scale))(x)
        assert np.max(np.abs(two - one)) <= 1e-9 * np.max(np.abs(one))

    def test_negative_exponent_warns_on_gaussian(self, plan_factory):
        plan = plan_factory(0.5)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        with pytest.warns(UserWarning, match="vanish"):
            apply_multiplier_fn(plan, f, MultiplierSpec(-0.6, 1.0))(plan.x_nodes)

    def test_negative_exponent_silent_on_witness(self, witness_plan_factory, witness_factory):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_multiplier_fn(plan, w.values, MultiplierSpec(-0.6, 1.0))(plan.x_nodes)

    def test_non_integrable_exponent_rejected(self, plan_factory):
        plan = plan_factory(0.0)
        f = plan.sample(lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError):
            apply_multiplier_fn(plan, f, MultiplierSpec(-3.1, 1.0))(plan.x_nodes)


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
        at each distinct |x| from one j_norm_pair call, so a ``parts`` read
        makes one, and so does every later call.  An object on its plan's
        lambda-nodes or x-nodes (the transform image) reads its proxy, built
        from the plan's tables, for all but the derivative."""
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

            def direct(points):
                return [np.unique(np.abs(points)).size * distinct] if fn is image else []

            for call, points, expected in ((fn.parts, x, direct(x)), (fn, x, direct(x)),
                                           (fn.derivative, x, summed), (fn.odd_quotient, x + 1.0, direct(x + 1.0))):
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
    over the distinct |nu| at the distinct |y|, the spectrum folded into even
    and odd weights, both components from one j_norm_pair call and each real
    table times complex weights as one real product, as SpectralFunction sums."""
    a = fn.order.alpha
    abs_nodes, where = np.unique(np.abs(fn.nodes), return_inverse=True)
    w_even = np.zeros(abs_nodes.size, dtype=np.result_type(fn.wspec, float))
    w_odd = np.zeros_like(w_even)
    np.add.at(w_even, where, fn.wspec)
    np.add.at(w_odd, where, np.sign(fn.nodes) * fn.wspec)
    distinct, rows = np.unique(np.abs(y), return_inverse=True)
    j_even, j_odd = j_norm_pair(a, np.outer(distinct, abs_nodes))
    return _real_matvec(j_even, w_even)[rows], _real_matvec(j_odd, 1j * abs_nodes * w_odd / (2.0 * (a + 1.0)))[rows]


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


def _read(fn, x):
    """Even part and odd quotient at x as the proxy of ``fn`` reads them,
    from its real columns."""
    values, split = fn._proxy(x, fn._samples), fn._w_even.itemsize // 8
    return values[:, :split].view(fn._w_even.dtype)[:, 0], values[:, split:].view(complex)[:, 0]


def _panels(fn, x):
    """The proxy panels the points x fall in."""
    proxy = fn._proxy
    return tuple(np.unique(np.minimum((np.abs(x) / proxy.width + 0.5).astype(int), proxy.n_panels - 1)).tolist())


def _pipeline_fns(plan, witness_factory, alpha):
    """The witnesses (m = 0, 1) and a multiplier image, as the pipelines synthesize them."""
    fns = [SpectralFunction.from_spectrum(plan, witness_factory(alpha, m).spectrum) for m in (0, 1)]
    return [*fns, apply_multiplier_fn(plan, witness_factory(alpha, 0).values, MultiplierSpec(1.0, 1.0))]


class TestSynthesisProxy:
    """Calls within the synthesis radius read a piecewise-Chebyshev proxy:
    every call of an object on its plan's nodes, and a multiplier image's
    calls once they outgrow a full build.  The rest sum directly.  A read
    fills the panels it touches first."""

    @pytest.fixture
    def fills(self, monkeypatch):
        """(object, panels) of every proxy fill, in order."""
        count = []
        original = SpectralFunction._samples

        def counted(fn, panels):
            count.append((fn, tuple(panels.tolist())))
            return original(fn, panels)

        monkeypatch.setattr(SpectralFunction, "_samples", counted)
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
            assert len(fn._proxy.samples) == fn._proxy.n_panels

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
        assert len(fn._proxy.samples) == fn._proxy.n_panels

    def test_small_call_is_the_direct_sum(self, witness_plan_factory, witness_factory, fills):
        """A multiplier image fills its proxy from its own j_norm_pair calls
        on the proxy's sample points, by the ski-rental rule against a full
        build: a first call below that build's cost is a direct sum, and the
        call that brings the object's direct sums over one build reads the
        proxy, filling only the panels it touches."""
        plan = witness_plan_factory(0.5)
        fn, fresh = (apply_multiplier_fn(plan, witness_factory(0.5, 1).values, MultiplierSpec(1.0, 1.0)) for _ in range(2))
        fills.clear()  # the multiplier's own spectrum is read from an analysis proxy: count only fn's
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, fn._proxy.size - 10)
        even, odd_q = _exact_parts(fn, x)
        for got, want in zip(fn.parts(x), (even, odd_q)):
            assert np.array_equal(got, want)
        assert np.array_equal(fresh(x), even + x * odd_q)  # the value, from a same image's own first sum
        assert fills == []
        beyond = np.linspace(1.01, 2.0, 20) * plan.synthesis_radius  # no proxy reaches here: not counted
        last = np.linspace(-3.0, 3.0, 10)  # together with x, exactly one build
        for y in (beyond, last):
            assert np.array_equal(fn.parts(y)[0], _exact_parts(fn, y)[0])
        assert fills == []
        one = np.array([0.5])
        assert np.array_equal(fn.parts(one)[0], _read(fn, one)[0])
        assert fills == [(fn, (0,))]
        for got, want in zip(fn.parts(x), _read(fn, x)):
            assert np.array_equal(got, want)
        assert fills == [(fn, (0,)), (fn, tuple(range(1, fn._proxy.n_panels)))]

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

    @pytest.mark.parametrize("within", [40, 700], ids=["direct-within", "read-within"])
    def test_mixed_call_is_its_two_sides(self, witness_plan_factory, witness_factory, fills, within):
        """A call with points on both sides of the radius sums those beyond it
        directly and takes those within as a call of their own, by the
        ski-rental rule: bit for bit the calls of two fresh images, one on its
        points within the radius and one on the rest, in the call's order."""
        plan = witness_plan_factory(0.5)
        mixed, near, far = (
            apply_multiplier_fn(plan, witness_factory(0.5, 1).values, MultiplierSpec(1.0, 1.0)) for _ in range(3)
        )
        fills.clear()
        radius = plan.synthesis_radius
        beyond = np.linspace(1.01, 1.5, 25) * radius
        x = np.random.default_rng(within).permutation(np.concatenate([np.linspace(-radius, radius, within), beyond, -beyond]))
        inside = np.abs(x) <= radius
        for got, a, b in zip(mixed.parts(x), near.parts(x[inside]), far.parts(x[~inside])):
            assert np.array_equal(got[inside], a) and np.array_equal(got[~inside], b)
        reads = within > mixed._proxy.size  # 570 on the witness plans
        assert [fn for fn, _ in fills] == ([mixed, near] if reads else [])

    def test_small_call_on_plan_nodes_reads_the_proxy(self, witness_plan_factory, witness_factory, fills):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.array([-3.0, 0.25, 7.5])
        even = fn.even_part(x)
        assert fills == [(fn, (0, 1, 2))]
        assert np.array_equal(even, _read(fn, x)[0])
        assert np.array_equal(fn.odd_quotient(x), _read(fn, x)[1])
        assert np.max(np.abs(even - _exact_parts(fn, x)[0])) <= 1e-13 * np.max(np.abs(even))

    @pytest.mark.parametrize("spectrum", ["complex", "real"])
    def test_both_parts_in_one_read(self, witness_plan_factory, witness_factory, spectrum):
        """The value and ``parts`` read both parts at once; those reads equal
        the even part and the odd quotient read one at a time, bit for bit,
        by an object that read other points in between.  A real spectrum has
        a real even part, one column of samples instead of two."""
        plan = witness_plan_factory(0.5)
        values = witness_factory(0.5, 1).spectrum * (1.0 + (0.3j if spectrum == "complex" else 0.0) * plan.lambda_nodes)
        both, single = (SpectralFunction.from_spectrum(plan, values) for _ in range(2))
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, 301)
        value, (even, odd_q) = both(x), both.parts(x)
        assert np.array_equal(single.even_part(x), even)
        for scale in (0.9, 0.8):  # other points in between
            single.even_part(scale * x)
        assert np.array_equal(single.odd_quotient(x), odd_q)
        assert np.array_equal(value, even + x * odd_q)
        assert even.dtype == (complex if spectrum == "complex" else float) and odd_q.dtype == complex

    def test_dual_sonine_grid_reads_once(self, witness_plan_factory, witness_factory, monkeypatch):
        """The pipelines' dual Sonine image reads a witness through one
        ``_parts`` call on every point of its Weyl integral: 12 doubling
        panels of 40 points and 192 heads of 32 on the witness plan."""
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        sizes = []
        original = SpectralFunction._parts

        def counted(self, x):
            sizes.append(x.size)
            return original(self, x)

        monkeypatch.setattr(SpectralFunction, "_parts", counted)
        dual_sonine_grid(SoninePair.of(0.5, 1.5), fn, plan.x_nodes, u_max=plan.half_width**2)
        assert sizes == [6624]

    def test_point_on_a_node_returns_its_sample(self, witness_plan_factory, witness_factory):
        """A point whose panel coordinate is a Chebyshev node exactly returns
        that node's stored sum, with no division by zero and no inf times 0:
        warnings are errors here."""
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 0).spectrum * (1.0 + 0.3j * plan.lambda_nodes))
        proxy = fn._proxy
        y = 0.5 * proxy.nodes * proxy.width  # on panel 0, whose coordinate is t = 2 |x| / width
        on = (y > 0.0) & (2.0 * (np.abs(y) / proxy.width) == proxy.nodes)
        assert np.count_nonzero(on) >= 5
        x = np.concatenate([y[on], -y[on], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            even, odd_q = fn._parts(x)
            columns = proxy(x, fn._samples)
        stored = proxy.samples[0][on, :-1]
        for half in (columns[: on.sum()], columns[on.sum() : -1]):
            assert np.array_equal(half, stored)
        assert np.array_equal(even[: on.sum()], stored[:, :2].copy().view(complex)[:, 0])
        assert np.array_equal(odd_q[: on.sum()], stored[:, 2:].copy().view(complex)[:, 0])
        assert np.all(np.isfinite(columns))

    def test_fills_only_the_touched_panels(self, witness_plan_factory, witness_factory, monkeypatch):
        """A multiplier image read on |x| <= 10 evaluates the kernel only at
        the sample points of the panels it touches (4 of 15 on the witness
        plan: 4 x 38 points times 168 nodes), and a wider read later fills
        only the rest."""
        plan = witness_plan_factory(0.5)
        fn = apply_multiplier_fn(plan, witness_factory(0.5, 1).values, MultiplierSpec(1.0, 1.0))
        proxy = fn._proxy
        shapes = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            shapes.append(np.shape(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        near = np.linspace(-10.0, 10.0, proxy.size + 1)  # more than one full build: reads at once
        fn.even_part(near)
        assert _panels(fn, near) == (0, 1, 2, 3)
        assert shapes == [(4 * proxy.n, fn._abs_nodes.size)] == [(152, 168)]
        wide = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, 50)
        fn.odd_quotient(wide)
        assert _panels(fn, wide) == tuple(range(proxy.n_panels))
        assert shapes[1:] == [((proxy.n_panels - 4) * proxy.n, 168)]
        assert sorted(proxy.samples) == list(range(proxy.n_panels))

    @pytest.mark.parametrize("route", ["table", "kernel"])
    def test_panel_samples_equal_a_one_panel_fill(self, witness_plan_factory, witness_factory, route):
        """Each panel takes a product of its own, so its samples equal those
        of a fill of that panel alone bit for bit: for a complex spectrum on
        the plan's lambda-nodes (rows of the synthesis table) and for a
        multiplier image (its own j_norm_pair call)."""
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 1)

        def make():
            if route == "table":
                return SpectralFunction.from_spectrum(plan, w.spectrum * (1.0 + 0.3j * plan.lambda_nodes))
            return apply_multiplier_fn(plan, w.values, MultiplierSpec(1.0, 1.0))

        whole, alone = make(), make()
        whole(np.linspace(0.0, whole._proxy.radius, whole._proxy.size + 1))  # every panel in one fill
        proxy = alone._proxy
        for k in range(proxy.n_panels):
            alone(np.full(proxy.size + 1, k * proxy.width))  # panel k alone
            assert sorted(proxy.samples) == list(range(k + 1))
        for k in range(proxy.n_panels):
            assert np.array_equal(whole._proxy.samples[k], proxy.samples[k]), k

    def test_reads_leave_scipy_fft_unloaded(self):
        """Proxies store samples and fit no coefficients: a plan build and
        reads of a ``from_spectrum`` object, a ``forward_fn`` object and a
        multiplier image load no FFT module."""
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from dunkl.transform import MultiplierSpec, SpectralFunction, apply_multiplier_fn, build_plan, forward_fn",
            "plan = build_plan(0.5)",
            "f = np.exp(-plan.x_nodes**2)",
            "fns = (SpectralFunction.from_spectrum(plan, np.exp(-plan.lambda_nodes**2 / 4)), forward_fn(plan, f),",
            "       apply_multiplier_fn(plan, f, MultiplierSpec(1.0)))",
            "for fn in fns:",
            "    fn(np.linspace(-fn._proxy.radius, fn._proxy.radius, 2 * fn._proxy.size))",
            "    assert len(fn._proxy.samples) == fn._proxy.n_panels",
            "sys.exit('scipy.fft' in sys.modules)",
        ])
        assert subprocess.run([sys.executable, "-c", code], timeout=600).returncode == 0

    def test_points_beyond_radius_sum_directly(self, witness_plan_factory, witness_factory, fills):
        """Points beyond the radius are summed directly, by themselves; the
        call's other points read the proxy of an object on its plan's nodes."""
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 0).spectrum)
        x = np.linspace(0.0, 1.01 * plan.synthesis_radius, 7)
        beyond = x > plan.synthesis_radius
        for got, direct, read in zip(fn.parts(x), _exact_parts(fn, x[beyond]), _read(fn, x[~beyond])):
            assert np.array_equal(got[beyond], direct) and np.array_equal(got[~beyond], read)
        assert fills == [(fn, _panels(fn, x[~beyond]))]

    def test_built_once_per_object(self, witness_plan_factory, witness_factory, fills):
        plan = witness_plan_factory(0.5)
        fn = SpectralFunction.from_spectrum(plan, witness_factory(0.5, 1).spectrum)
        x = np.linspace(-plan.synthesis_radius, plan.synthesis_radius, 25)
        even, odd_q = _exact_parts(fn, x)
        peak = np.max(np.abs(even + x * odd_q))
        for _ in range(2):
            assert np.max(np.abs(fn.even_part(x) - even)) <= 1e-13 * peak
            assert np.max(np.abs(fn.odd_quotient(x) - odd_q)) <= 1e-13 * peak
            assert np.max(np.abs(fn(x) - (even + x * odd_q))) <= 1e-13 * peak
        assert fills == [(fn, _panels(fn, x))]

    def test_planless_object_never_builds(self, witness_plan_factory, witness_factory, fills):
        plan = witness_plan_factory(0.5)
        w = witness_factory(0.5, 0)
        fn = SpectralFunction(plan.order, plan.lambda_nodes, plan.c_alpha * plan.lambda_weights * w.spectrum)
        x = np.linspace(0.0, 20.0, 1300)
        even, _ = _exact_parts(fn, x)
        assert np.array_equal(fn.even_part(x), even)
        assert fills == []


class TestSynthesisTables:
    """Objects on a plan's own lambda-nodes (synthesis) or x-nodes (the
    transform of x-samples, ``forward_fn``) share one table of kernel values
    at the proxy's sample points per plan and side, filled panel by panel the
    first time a call asks for the panel."""

    def test_one_kernel_call_per_fill(self, witness_factory, monkeypatch):
        """Five objects per side on a fresh plan read the same points: the
        first read fills the panels they touch, both shifts from one
        j_norm_pair call, and the other reads evaluate nothing.  A wider read
        then fills only the panels still empty, so an untouched panel is never
        evaluated until a read asks for it."""
        plan = witness_plan(0.5)  # fresh: its tables are not filled yet
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
            proxy = fns[0]._proxy
            touched = _panels(fns[0], x)
            assert (proxy.size, nu.size) == shape and len(touched) < proxy.n_panels
            calls.clear()
            for fn in fns:
                fn(x)
            assert calls == [(len(touched) * proxy.n, nu.size)]
            for fn in fns:
                # each touched panel holds the object's own exact-kernel sums at its points, bit for bit
                proxy = fn._proxy
                panels = np.array(touched)
                assert list(proxy.samples) == panels.tolist()
                for k, points in zip(panels, proxy.sample_points(panels)):
                    even, odd = original(0.5, np.outer(points, np.unique(np.abs(fn.nodes))))
                    own = [_real_matvec(even, fn._w_even), _real_matvec(odd, fn._w_quotient)]
                    own = np.hstack([v.view(float).reshape(v.size, -1) for v in own])
                    assert np.array_equal(proxy.samples[k], np.concatenate([own, np.ones((proxy.n, 1))], axis=1))
            calls.clear()
            wide = np.linspace(-radius, radius, 41)
            for fn in fns:
                fn(wide)
            assert calls == [((proxy.n_panels - len(touched)) * proxy.n, nu.size)]

    @pytest.mark.parametrize("kind", ("default", "witness"))
    def test_panel_rows_equal_a_whole_build(self, kind):
        """The rows of any panels, filled a few at a time on a fresh plan and
        in any order, equal the same rows of a whole build (one j_norm_pair
        call on every sample point) bit for bit, on both sides and at both
        shifts."""
        plan = build_plan(0.5) if kind == "default" else witness_plan(0.5)
        for table, (radius, nu) in ((plan.jnorm_table, plan.table_grids["synthesis"]),
                                     (plan.analysis_table, plan.table_grids["analysis"])):
            proxy = dunkl.transform._ChebProxy(radius, float(nu[-1]))
            whole = j_norm_pair(0.5, np.outer(proxy.sample_points(), nu))
            whole = [v.reshape(proxy.n_panels, proxy.n, nu.size) for v in whole]
            for panels in ([1], [proxy.n_panels - 1, 0], [0, 2, 1], list(range(proxy.n_panels))[::-1]):
                for shift in (0, 1):
                    assert np.array_equal(table(shift, np.array(panels)), whole[shift][panels].reshape(-1, nu.size))
            for shift in (0, 1):
                assert np.array_equal(table(shift), whole[shift].reshape(-1, nu.size))

    def test_whole_call_fills_only_the_empty_panels(self, monkeypatch):
        """A call for some panels evaluates their sample points alone, once
        for both shifts; a later whole-table call evaluates only the panels
        still empty, and a call for filled panels evaluates nothing."""
        plan = witness_plan(0.5)
        calls = []
        original = dunkl.transform.j_norm_pair

        def counting(alpha, u):
            calls.append(np.array(u))
            return original(alpha, u)

        monkeypatch.setattr(dunkl.transform, "j_norm_pair", counting)
        for table, (radius, nu) in ((plan.jnorm_table, plan.table_grids["synthesis"]),
                                     (plan.analysis_table, plan.table_grids["analysis"])):
            proxy = dunkl.transform._ChebProxy(radius, float(nu[-1]))
            points = proxy.sample_points()
            calls.clear()
            table(1, np.array([2, 0]))
            table(0, np.array([0, 2]))
            assert len(calls) == 1 and np.array_equal(calls[0], np.outer(points[[0, 2]], nu))
            calls.clear()
            table(0)
            rest = [k for k in range(proxy.n_panels) if k not in (0, 2)]
            assert len(calls) == 1 and np.array_equal(calls[0], np.outer(points[rest], nu))
            calls.clear()
            table(1)
            table(0, np.array([3]))
            assert calls == []

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
    points beyond sum directly, and the unfolded outer product is the
    reference."""

    @pytest.mark.parametrize("kind", ("default", "witness"))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bins_within_exact_route(self, plan_factory, witness_plan_factory, witness_factory, alpha, kind):
        """Against the unfolded outer-product sum, the image is within the
        bound of ``test_panel_errors_within_table_route``, whose direct route
        here is the image's own folded sum (which ``forward_at`` takes too)."""
        plan = plan_factory(alpha) if kind == "default" else witness_plan_factory(alpha)
        x = plan.x_nodes
        inputs = [np.exp(-(x**2)) * (1.0 + 0.3 * x), x * np.exp(-(x**2) / 4.0)]
        if kind == "witness":
            inputs += [witness_factory(alpha, m).values.values for m in (0, 1)]
        y = np.linspace(0.0, plan.lambda_max, 2001)
        kernel = _outer_forward(plan, y)
        for f in inputs:
            fn = forward_fn(plan, f)
            want = kernel @ (plan.x_weights * f)
            even, odd_q = _exact_parts(fn, y)
            scale = np.abs(kernel) @ np.abs(plan.x_weights * f)
            _assert_bins_within_direct(y, plan.lambda_max, want, scale, even + y * odd_q, fn(y), alpha)
            assert len(fn._proxy.samples) == fn._proxy.n_panels

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
