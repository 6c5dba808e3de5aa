"""Singular-weight rules, tail integration, and regularized pairings."""

import collections
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dunkl import sonine
from dunkl.fractional import frac_power_kernel
from dunkl.functions import PolyFunction, PolyGaussian, WrappedFunction, gaussian, monomial_gaussian
from dunkl.quadrature import (
    MAX_DOUBLINGS,
    TailNonConvergence,
    _panel_kernel,
    _real_matvec,
    doubling_tail,
    homogeneous_pairing,
    integrate_semi_infinite,
    jacobi_rule,
    legendre_panels,
    legendre_rule,
    radial_rule,
    riemann_liouville_integral,
    theta_rule,
    weyl_integral,
)
from dunkl.sonine import SoninePair, dual_sonine_apply

# property tests repeat exactly: fixed example count, derandomized draws
_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def _legendre_panels_reference(edges, n):
    """The per-panel form that the panel integrals each wrote out inline:
    a fresh Legendre rule, mapped one panel at a time."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(n)
    panel_u = np.asarray([a + (b - a) * 0.5 * (gl_x + 1.0) for a, b in zip(edges[:-1], edges[1:])])
    panel_w = np.asarray([gl_w * 0.5 * (b - a) for a, b in zip(edges[:-1], edges[1:])])
    return panel_u, panel_w


def _weyl_reference(h, mu, s_values, u_max, head_nodes=32, panel_nodes=40, first_edge=1.0):
    """Per-s loop form of ``weyl_integral``: the same rules, heads and
    truncation, summed one s, one row of h and one panel at a time."""
    s_values = np.asarray(s_values, dtype=float)
    edges = [0.0, float(first_edge)]
    while edges[-1] < u_max:
        edges.append(min(edges[-1] * 2.0, float(u_max)))
    edges = np.asarray(edges)
    n_edges = edges.size
    head = jacobi_rule(0.0, mu - 1.0, head_nodes)
    gl_x, gl_w = np.polynomial.legendre.leggauss(panel_nodes)
    panel_u = np.asarray([a + (b - a) * 0.5 * (gl_x + 1.0) for a, b in zip(edges[:-1], edges[1:])])
    panel_w = np.asarray([gl_w * 0.5 * (b - a) for a, b in zip(edges[:-1], edges[1:])])
    h_panel = [np.asarray(row).reshape(panel_u.shape) for row in h(panel_u.ravel())]
    head_end_idx = np.minimum(np.searchsorted(edges, s_values, side="right") + 1, n_edges - 1)
    head_span = edges[head_end_idx] - s_values
    u_heads = s_values[:, None] + head_span[:, None] * head.nodes[None, :]
    h_heads = [np.asarray(row).reshape(u_heads.shape) for row in h(u_heads.ravel())]
    out = np.zeros((len(h_panel), s_values.size), dtype=np.result_type(*[v.dtype for v in h_panel], float))
    for si, s in enumerate(s_values):
        for fi in range(len(h_panel)):
            out[fi, si] += head_span[si] ** mu * np.sum(head.weights * h_heads[fi][si])
        for k in range(int(head_end_idx[si]), n_edges - 1):
            kernel = panel_w[k] * (panel_u[k] - s) ** (mu - 1.0)
            for fi in range(len(h_panel)):
                out[fi, si] += np.sum(kernel * h_panel[fi][k])
    return out


def _riemann_liouville_reference(h, left_exponents, mu, s_values, panel_width=0.75, head_nodes=24, panel_nodes=24):
    """Per-s loop form of ``riemann_liouville_integral``: the same rules,
    heads and panels, summed one s, one row of h and one panel at a time."""
    s_values = np.asarray(s_values, dtype=float)
    y_max = math.sqrt(float(np.max(s_values)))
    n_panels = max(int(math.ceil(y_max / panel_width)), 2)
    edges = np.linspace(0.0, y_max, n_panels + 1) ** 2
    gl_x, gl_w = np.polynomial.legendre.leggauss(panel_nodes)
    head = jacobi_rule(0.0, mu - 1.0, head_nodes)
    panel_u = np.asarray([edges[k] + (edges[k + 1] - edges[k]) * 0.5 * (gl_x + 1.0) for k in range(n_panels)])
    panel_w = np.asarray([gl_w * 0.5 * (edges[k + 1] - edges[k]) for k in range(n_panels)])
    h_panel = [np.asarray(row).reshape(panel_u.shape) for row in h(panel_u.ravel())]
    first = []
    for fi, b_exp in enumerate(left_exponents):
        rule0 = jacobi_rule(0.0, b_exp, panel_nodes)
        u0 = rule0.nodes * edges[1]
        first.append((u0, rule0.weights * edges[1] ** (b_exp + 1.0), np.asarray(h(u0)[fi])))
    j_idx = np.minimum(np.searchsorted(edges, s_values, side="right") - 1, n_panels - 1)
    out = np.zeros((len(left_exponents), s_values.size), dtype=np.result_type(*[v.dtype for v in h_panel], float))
    for si, s in enumerate(s_values):
        j = int(j_idx[si])
        for fi, b_exp in enumerate(left_exponents):
            if j < 2:
                rule = jacobi_rule(mu - 1.0, b_exp, head_nodes)
                out[fi, si] = np.sum(rule.weights * h(s * rule.nodes)[fi]) * s ** (mu + b_exp)
                continue
            lo = edges[j - 1]
            u_head = s - (s - lo) * head.nodes
            out[fi, si] = np.sum(head.weights * h(u_head)[fi] * u_head**b_exp) * (s - lo) ** mu
            u0, w0, h0 = first[fi]
            out[fi, si] += np.sum(w0 * (s - u0) ** (mu - 1.0) * h0)
            for k in range(1, j - 1):
                kernel = panel_w[k] * (s - panel_u[k]) ** (mu - 1.0)
                out[fi, si] += np.sum(kernel * panel_u[k] ** b_exp * h_panel[fi][k])
    return out


def beta_fn(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _beta_moments(a_exp, b_exp, count):
    """B(a+1, b+k+1) for k < count, the moments of (1-s)^a s^b on [0, 1],
    by the ratio of consecutive moments in 30-digit arithmetic."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a_exp), mpmath.mpf(b_exp)
        moment, out = mpmath.beta(a + 1, b + 1), []
        for k in range(count):
            out.append(float(moment))
            moment *= (b + 1 + k) / (a + b + 2 + k)
    return np.array(out)


#: the plan-size rules of a default ``dunkl verify --suites all`` run: exponent
#: 2 alpha + 1, plus a multiplier's sigma, at the default plans' 256 half-nodes
#: and the witness plans' 192 (x) and 168 (lambda)
_PLAN_RULES = (
    [(0.0, b, 256) for b in (0.5, 1.0, 1.4, 1.5, 2.0, 2.5, 3.0, 3.4, 4.0, 4.5, 5.0, 6.0, 8.0)]
    + [(0.0, b, 192) for b in (1.0, 2.0, 4.0, 5.0)]
    + [(0.0, b, 168) for b in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0)]
)
#: the exponent nearest -1 that a float can hold
_NEXT_TO_MINUS_ONE = math.nextafter(-1.0, 0.0)


class TestJacobiRule:
    def test_legendre_case(self):
        rule = jacobi_rule(0.0, 0.0, 16)
        assert np.sum(rule.weights) == pytest.approx(1.0, rel=1e-14)
        assert np.sum(rule.weights * rule.nodes**7) == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_square_root_singularity(self):
        rule = jacobi_rule(-0.5, 0.0, 8)
        assert np.sum(rule.weights) == pytest.approx(2.0, rel=1e-13)

    def test_beta_moment(self):
        rule = jacobi_rule(0.3, 0.7, 12)
        assert np.sum(rule.weights) == pytest.approx(beta_fn(1.3, 1.7), rel=1e-13)

    @pytest.mark.parametrize("a_exp,b_exp,n", [(-0.4, 0.6, 24), (1.5, -0.25, 32), (0.0, 2.0, 16)])
    def test_gamma_ratio_moments(self, a_exp, b_exp, n):
        rule = jacobi_rule(a_exp, b_exp, n)
        for k in range(0, 2 * n, max(1, n // 4)):
            want = math.exp(
                math.lgamma(b_exp + k + 1) + math.lgamma(a_exp + 1) - math.lgamma(a_exp + b_exp + k + 2)
            )
            got = np.sum(rule.weights * rule.nodes**k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rejects_nonintegrable(self):
        with pytest.raises(ValueError):
            jacobi_rule(-1.0, 0.0, 8)
        with pytest.raises(ValueError):
            jacobi_rule(0.0, -1.2, 8)

    def test_weights_positive_nodes_sorted(self):
        rule = jacobi_rule(-0.3, 1.2, 40)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize(
        "a_exp,b_exp,n",
        _PLAN_RULES + [(a, b, 64) for a in (0.0, -0.9) for b in (-0.999, -0.99, -0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)],
    )
    def test_moments_to_full_precision(self, a_exp, b_exp, n):
        """Every moment the rule integrates exactly, s^k for k < 2n, is within
        1e-13 of B(a+1, b+k+1): on the plans' rules and, at 64 nodes, with
        exponents down to -0.999, whose end roots lie within 1e-6 of the end."""
        rule = jacobi_rule(a_exp, b_exp, n)
        got = np.sum(rule.weights[:, None] * rule.nodes[:, None] ** np.arange(2 * n), axis=0)
        assert np.max(np.abs(got / _beta_moments(a_exp, b_exp, 2 * n) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 64, 256])
    @pytest.mark.parametrize(
        "a_exp,b_exp",
        [(0.0, -1.0 + 1e-15), (0.0, _NEXT_TO_MINUS_ONE), (_NEXT_TO_MINUS_ONE, 0.5), (_NEXT_TO_MINUS_ONE, _NEXT_TO_MINUS_ONE)],
    )
    def test_exponents_next_to_minus_one(self, a_exp, b_exp, n):
        """An end root closer to the end than floats resolve still gives nodes
        strictly inside (0, 1), increasing, and positive weights of the exact mass."""
        rule = jacobi_rule(a_exp, b_exp, n)
        assert 0.0 < rule.nodes[0] and rule.nodes[-1] < 1.0 and np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(_beta_moments(a_exp, b_exp, 1)[0], rel=1e-14)


class TestThetaRule:
    def test_alpha_zero_measure(self):
        rule = theta_rule(0.0, 32)
        assert np.sum(rule.weights) == pytest.approx(math.pi, rel=1e-13)

    def test_alpha_half(self):
        rule = theta_rule(0.5, 32)
        assert np.sum(rule.weights * np.ones_like(rule.nodes)) == pytest.approx(2.0, rel=1e-13)

    def test_odd_about_midpoint(self):
        for a in (0.0, 0.7, 2.0):
            rule = theta_rule(a, 48)
            assert abs(np.sum(rule.weights * np.cos(rule.nodes))) < 1e-14 * np.sum(rule.weights)

    def test_total_mass_beta(self):
        for a in (-0.4, 0.3, 1.5):
            rule = theta_rule(a, 48)
            want = 2.0 ** (2 * a) * beta_fn(a + 0.5, a + 0.5)
            assert np.sum(rule.weights) == pytest.approx(want, rel=1e-12)

    def test_same_read_only_rule_comes_back(self):
        from dunkl.quadrature import _theta_rule

        rule = theta_rule(0.6)
        assert theta_rule(0.6, 64) is rule
        assert theta_rule(np.float64(0.6), np.int64(64)) is rule
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        fresh = _theta_rule.__wrapped__(0.6, 64)
        assert fresh is not rule
        assert np.array_equal(fresh.nodes, rule.nodes)
        assert np.array_equal(fresh.weights, rule.weights)


class TestSemiInfinite:
    def test_gamma_half(self):
        got = integrate_semi_infinite(lambda v: np.exp(-v), -0.5, split=1.0)
        assert got == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    def test_plain_exponential(self):
        got = integrate_semi_infinite(lambda v: np.exp(-v), 0.0)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_substitution(self):
        got = integrate_semi_infinite(lambda v: np.exp(-(v**2)), 0.3)
        assert got == pytest.approx(math.gamma(0.65) / 2.0, rel=1e-11)

    def test_array_split_is_the_scalar_calls(self):
        splits = np.array([0.5, 1.0, 3.25, 10.0])
        for g in (lambda v: np.exp(-v), lambda v: np.exp(-(v**2)) * (1.0 + 0.5j * v)):
            want = [integrate_semi_infinite(g, -0.3, split=s) for s in splits]
            got = integrate_semi_infinite(g, -0.3, split=splits)
            assert got.shape == splits.shape and np.array_equal(got, want)

    def test_tail_nonconvergence(self):
        # a constant never decays: every doubling panel adds half the total
        with pytest.raises(TailNonConvergence, match=f"after {MAX_DOUBLINGS} doublings"):
            integrate_semi_infinite(lambda v: np.ones_like(v), 0.0)

    @pytest.mark.filterwarnings("error")
    @_PROPERTY
    @given(s=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True))
    @example(s=_NEXT_TO_MINUS_ONE)
    def test_gamma_function(self, s):
        got = integrate_semi_infinite(lambda v: np.exp(-v), s)
        # the Jacobi head keeps full precision up to an exponent next to -1:
        # 4.1e-15 at most over 5 000 s in (-1, 3)
        assert got == pytest.approx(math.gamma(s + 1.0), rel=1e-13)


class TestLegendrePanels:
    @pytest.mark.parametrize(
        "edges,n",
        [
            ((0.75 * np.arange(9)) ** 2, 24),  # riemann_liouville_integral's panels
            (np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 400.0]), 40),  # weyl_integral's
            (np.array([0.185, 0.2775, 0.32375, 0.346875]), 24),  # Riesz-kernel refinement
            (np.array([3.0, 6.0]), 48),  # one doubling panel
        ],
    )
    def test_equals_inline_formula(self, edges, n):
        got_u, got_w = legendre_panels(edges, n)
        want_u, want_w = _legendre_panels_reference(edges, n)
        assert got_u.shape == (edges.size - 1, n)
        assert np.array_equal(got_u, want_u) and np.array_equal(got_w, want_w)

    def test_base_rule_is_shared_and_read_only(self):
        rule = legendre_rule(24)
        assert legendre_rule(24) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_one_rule_build_per_size(self, monkeypatch):
        calls = collections.Counter()
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls[n] += 1
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        legendre_rule.cache_clear()
        pair = SoninePair.of(0.5, 1.5)
        for _ in range(3):
            frac_power_kernel(0.5, -0.3, gaussian(), 1.0)
            dual_sonine_apply(pair, gaussian(), 0.7)
            homogeneous_pairing(-0.5, gaussian())
        assert set(calls) == {24, 48}
        assert max(calls.values()) == 1

    @_PROPERTY
    @given(data=st.data(), n=st.integers(min_value=1, max_value=12))
    def test_exact_on_polynomials(self, data, n):
        edges = sorted(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6, unique=True)))
        poly = np.polynomial.Polynomial(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)))
        u, w = legendre_panels(edges, n)
        got = np.sum(w * poly(u))
        antiderivative = poly.integ()
        want = antiderivative(edges[-1]) - antiderivative(edges[0])
        scale = np.sum(np.abs(w * poly(u))) + abs(antiderivative(edges[-1])) + abs(antiderivative(edges[0]))
        assert abs(got - want) <= 1e-14 * scale + 1e-300


class TestDoublingTail:
    def test_exponential(self):
        got = doubling_tail(lambda v, w: w * np.exp(-v), 1.0, 0.0, 1e-12)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_stops_after_the_first_panel_at_the_earliest(self):
        panels = []
        doubling_tail(lambda v, w: panels.append(v) or np.zeros_like(v), 1.0, 1.0, 1e-12)
        assert len(panels) == 2 and panels[1][0] > 2.0

    def test_raises_without_decay(self):
        with pytest.raises(TailNonConvergence):
            doubling_tail(lambda v, w: w * v**-0.5, 1.0, 0.0, 1e-12)

    @pytest.mark.parametrize(
        "summand",
        [lambda v, w: w * np.exp(-v) * np.cos(v), lambda v, w: w * v**-3.0],  # v^-3: each panel adds 1/4 of the last
        ids=["damped", "power"],
    )
    def test_array_entries_are_their_scalar_calls(self, summand):
        # each entry stops at its own doubling and keeps its own total, bit for bit
        lo = np.array([[0.25, 1.0, 6.0], [2.0, 11.0, 30.0]])
        total = np.array([[0.5, 0.0, 1e-3], [2.0, -1e-5, 0.0]])

        def alone(b, t):
            panels = []
            return doubling_tail(lambda v, w: panels.append(v) or summand(v, w), b, t, 1e-12), len(panels)

        calls = [alone(b, t) for b, t in zip(lo.ravel(), total.ravel())]
        assert len({n for _, n in calls}) > 1  # the entries stop at different doublings
        got = doubling_tail(summand, lo, total, 1e-12)
        assert got.shape == lo.shape and np.array_equal(got.ravel(), [value for value, _ in calls])

    def test_array_raises_when_one_entry_never_stops(self):
        # the second entry's panels each add half its total
        summand = lambda v, w: w * np.stack([np.exp(-v[0]), v[1] ** -0.5])
        with pytest.raises(TailNonConvergence, match=f"after {MAX_DOUBLINGS} doublings"):
            doubling_tail(summand, np.array([1.0, 1.0]), np.zeros(2), 1e-12)


class TestRadialRule:
    def test_weighted_gaussian_moments(self):
        for a in (0.0, 0.5, 1.5):
            rule = radial_rule(a, 14.0, 96)
            got = np.sum(rule.weights * np.exp(-rule.nodes**2))
            assert got == pytest.approx(math.gamma(a + 1.0) / 2.0, rel=1e-12)


class TestHomogeneousPairing:
    def test_gaussian_plain(self):
        res = homogeneous_pairing(0.0, gaussian())
        assert not res.pole_flag
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_pole_residue(self):
        res = homogeneous_pairing(-1.0, gaussian())
        assert res.pole_flag
        assert res.residue_estimate == pytest.approx(2.0, rel=1e-13)

    def test_higher_pole_residue(self):
        # residue at -3 is 2 phi''(0)/2! = phi''(0) = -2 for the Gaussian
        res = homogeneous_pairing(-3.0, gaussian())
        assert res.pole_flag
        assert res.residue_estimate == pytest.approx(-2.0, rel=1e-13)

    def test_mellin_continuation(self):
        # int |x|^lam e^{-x^2} dx = Gamma((lam+1)/2) continued below -1
        for lam in (-2.0, -2.5, -1.7):
            res = homogeneous_pairing(lam, gaussian())
            assert res.value == pytest.approx(math.gamma((lam + 1.0) / 2.0), rel=1e-11)

    def test_taylor_order_independence(self):
        vals = [homogeneous_pairing(-2.3, gaussian(), taylor_order=k).value for k in (4, 8, 12, 16)]
        assert max(vals) - min(vals) <= 1e-10

    def test_naive_agreement_above_minus_one(self):
        from scipy.integrate import quad

        for lam in (-0.5, 0.7):
            want, _ = quad(lambda x: abs(x) ** lam * math.exp(-x * x), -9, 9, points=[0.0], limit=200)
            got = homogeneous_pairing(lam, gaussian()).value
            assert got == pytest.approx(want, abs=1e-9)

    def test_odd_function_vanishes(self):
        res = homogeneous_pairing(0.6, monomial_gaussian(1))
        assert abs(res.value) < 1e-14

    @pytest.mark.parametrize("lam", (-2.55, -1.3, 0.7, 2.0))
    @pytest.mark.parametrize("phi", (gaussian(), PolyGaussian(PolyFunction.monomial(4), 0.5)), ids=("gaussian", "x4-gaussian"))
    def test_even_part_matches_mirrored_mean(self, phi, lam):
        # a WrappedFunction's even part is (phi(x) + phi(-x))/2
        mirrored = WrappedFunction(phi, taylor=phi.taylor_coeff)
        want = homogeneous_pairing(lam, mirrored).value
        assert homogeneous_pairing(lam, phi).value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("lam", (0.6, -11.5))
    def test_bare_callable_without_taylor_data_raises(self, lam):
        with pytest.raises(ValueError, match="taylor_coeff"):
            homogeneous_pairing(lam, lambda x: np.exp(-x**2))


class TestWeylIntegral:
    def test_exponential_closed_form(self):
        # int_s^inf (u-s)^(mu-1) e^(-u) du = Gamma(mu) e^(-s)
        for mu in (0.5, 1.0, 2.0):
            svals = np.array([0.1, 1.0, 4.0, 9.0])
            got = weyl_integral(lambda u: [np.exp(-u)], mu, svals, u_max=256.0)[0]
            want = math.gamma(mu) * np.exp(-svals)
            assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            weyl_integral(lambda u: [np.exp(-u)], 1.0, np.array([300.0]), u_max=256.0)


class TestRiemannLiouville:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.0, 0.5, 1.5])
    def test_power_closed_form(self, mu, b):
        svals = np.array([0.09, 0.35, 1.7, 9.0, 144.0])
        got = riemann_liouville_integral(lambda u: [np.ones_like(u)], [b], mu, svals)[0]
        want = svals ** (mu + b) * beta_fn(mu, b + 1.0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_one_exponent_per_row(self):
        two_rows = lambda u: [np.ones_like(u), u]
        with pytest.raises(ValueError, match="one left exponent per row"):
            riemann_liouville_integral(two_rows, [0.5], 1.0, np.array([0.5, 4.0]))
        with pytest.raises(ValueError, match="one left exponent per row"):
            riemann_liouville_integral(two_rows, [0.5, 1.0, 1.5], 1.0, np.array([0.5, 4.0]))
        with pytest.raises(ValueError, match="one left exponent per row"):  # h is still called, on no points
            riemann_liouville_integral(two_rows, [0.5], 1.0, np.array([]))
        assert riemann_liouville_integral(two_rows, [0.5, 1.0], 1.0, np.array([])).shape == (2, 0)

    def test_oscillatory_integrand(self):
        from scipy.integrate import quad

        mu, b = 0.75, 0.5
        h = lambda u: np.cos(3.0 * np.sqrt(u))
        for s in (2.0, 120.0):
            got = riemann_liouville_integral(lambda u: [h(u)], [b], mu, np.array([s]))[0][0]
            want, _ = quad(
                lambda u: (s - u) ** (mu - 1.0) * u**b * math.cos(3.0 * math.sqrt(u)),
                0.0,
                s,
                limit=800,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert got == pytest.approx(want, rel=2e-10, abs=1e-11)


class TestJacobiRuleMemo:
    def test_same_read_only_rule_comes_back(self):
        from dunkl.quadrature import _jacobi_rule

        rule = jacobi_rule(0.5, 1.25, 40)
        assert jacobi_rule(0.5, 1.25, 40) is rule
        assert jacobi_rule(np.float64(0.5), 1.25, np.int64(40)) is rule
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        fresh = _jacobi_rule.__wrapped__(0.5, 1.25, 40)
        assert fresh is not rule
        assert np.array_equal(fresh.nodes, rule.nodes)
        assert np.array_equal(fresh.weights, rule.weights)
        assert fresh.kind == rule.kind


def _poly_gaussian_parts():
    """u -> the two rows of a real and a complex integrand at y = sqrt(u)."""
    f = PolyGaussian(np.array([0.7, -0.4, 1.1, 0.25, -0.05]), rate=0.6)
    return lambda u: (f.even_part(np.sqrt(u)), (1.0 - 0.5j) * f.odd_quotient(np.sqrt(u)))


class TestVectorizedAgainstLoops:
    """The panel-masked integrals against their per-s loop forms."""

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-300)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.5, 2.0])
    def test_weyl(self, mu):
        # s = 0, s inside the first two panels, s on the edges 1, 2, 4, 64
        s = np.array([0.0, 0.2, 0.99, 1.0, 1.5, 2.0, 3.7, 4.0, 10.0, 64.0, 100.0, 300.0])
        h = _poly_gaussian_parts()
        self._close(weyl_integral(h, mu, s, u_max=512.0), _weyl_reference(h, mu, s, 512.0))

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_riemann_liouville(self, mu):
        # y_max = 6 gives 8 panels with edges (0.75 k)^2: s inside the first
        # two panels, on the edges k = 2, 3, 5, 8, and between edges
        edges = (0.75 * np.arange(9)) ** 2
        s = np.array([0.05, 0.4, edges[1], 1.0, edges[2], 2.0, edges[3], 7.1, edges[5], 20.0, edges[8]])
        h = _poly_gaussian_parts()
        got = riemann_liouville_integral(h, [0.5, 1.5], mu, s)
        self._close(got, _riemann_liouville_reference(h, [0.5, 1.5], mu, s))


def _counted(h):
    """h wrapped to count its calls and the points they see."""
    count = collections.Counter()

    def call(u):
        count["calls"] += 1
        count["points"] += np.size(u)
        return h(u)

    return count, call


class TestOneCallPerIntegrand:
    """h is called once per call, on the points of all its rows at once:
    panels, every head and, for Riemann-Liouville, each exponent's first
    panel and small-s rule.  A synthesized integrand then meets one large
    call, which reads both of its parts at once and pays for its proxy at
    once, not many small ones."""

    def test_weyl(self):
        count, h = _counted(_poly_gaussian_parts())
        s = np.array([0.0, 0.2, 1.5, 4.0, 64.0, 300.0, 4.0, 0.2])
        got = weyl_integral(h, 1.5, s, u_max=512.0)
        # 10 doubling panels of 40 points up to 512, and 6 distinct heads of 32
        assert count == {"calls": 1, "points": 10 * 40 + 6 * 32}
        assert np.array_equal(got, weyl_integral(_poly_gaussian_parts(), 1.5, s, u_max=512.0))

    @pytest.mark.parametrize("s", [np.array([0.05, 0.4, 2.0, 7.1, 20.0]), np.array([7.1, 20.0]), np.array([0.4])])
    def test_riemann_liouville(self, s):
        # s inside the first two panels, beyond them, and both; every s twice
        n_panels = max(math.ceil(math.sqrt(s.max()) / 0.75), 2)
        edges = np.linspace(0.0, math.sqrt(s.max()), n_panels + 1) ** 2
        n_small = s.size if n_panels == 2 else np.count_nonzero(s < edges[2])
        count, h = _counted(_poly_gaussian_parts())
        got = riemann_liouville_integral(h, [0.5, 1.5], 0.75, np.tile(s, 2))
        # 24 points each: the shared panels and one head per distinct s beyond
        # the first two panels, and per exponent its first panel and the
        # small-s rule of every distinct s within them
        assert count == {"calls": 1, "points": 24 * (n_panels + s.size - n_small + 2 * (1 + n_small))}
        assert np.array_equal(got, riemann_liouville_integral(_poly_gaussian_parts(), [0.5, 1.5], 0.75, np.tile(s, 2)))

    def test_witness_plan_dual_sonine_grid(self, monkeypatch, witness_plan_factory):
        # 384 mirrored x-nodes are 192 distinct s = x^2: 12 doubling panels
        # of 40 points up to u_max = 1600, and 192 heads of 32
        plan = witness_plan_factory(0.5)
        counts = []

        def counted_weyl(h, *args, **kwargs):
            count, call = _counted(h)
            counts.append(count)
            return weyl_integral(call, *args, **kwargs)

        monkeypatch.setattr(sonine, "weyl_integral", counted_weyl)
        sonine.dual_sonine_grid(SoninePair.of(0.5, 1.5), gaussian(), plan.x_nodes, u_max=plan.half_width**2)
        assert counts == [{"calls": 1, "points": 6624}]


class TestDistinctS:
    """Each distinct s is integrated once: a call on unsorted s with repeats
    is, entry by entry, the call on the sorted distinct set gathered back."""

    S = np.array([64.0, 0.2, 4.0, 0.4, 0.2, 300.0, 4.0, 1.5, 64.0, 7.1])

    @classmethod
    def _gathered(cls, integral):
        distinct = np.array(sorted(set(cls.S.tolist())))
        got = integral(cls.S)
        assert got.shape == (2, cls.S.size)
        return got, integral(distinct)[:, np.searchsorted(distinct, cls.S)]

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.5])
    def test_weyl(self, mu):
        got, want = self._gathered(lambda s: weyl_integral(_poly_gaussian_parts(), mu, s, u_max=512.0))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.5])
    def test_riemann_liouville(self, mu):
        got, want = self._gathered(lambda s: riemann_liouville_integral(_poly_gaussian_parts(), [0.5, 1.5], mu, s))
        assert np.array_equal(got, want)


def _panel_kernel_where(live, du, panel_w, mu):
    """The masked two-``np.where`` form of ``_panel_kernel``, which raised
    every entry to the power mu - 1, live or not."""
    live = live[:, :, None]
    kernel = np.where(live, panel_w * np.where(live, du, 1.0) ** (mu - 1.0), 0.0)
    return kernel.reshape(du.shape[0], du.shape[1] * du.shape[2])


class TestPanelKernel:
    """192 s, 12 panels of 40 nodes: the Weyl tail's live panels start at a
    head end, the Riemann-Liouville ones stop before it, where u - s < 0."""

    @staticmethod
    def _case(kind):
        edges = np.concatenate([[0.0], 2.0 ** np.arange(11), [1600.0]])
        panel_u, panel_w = legendre_panels(edges, 40)
        s = np.linspace(0.0, 1500.0, 192)
        head_end = np.minimum(np.searchsorted(edges, s, side="right") + 1, edges.size - 1)
        k = np.arange(12)[None, :]
        if kind == "weyl":
            return k >= head_end[:, None], panel_u[None] - s[:, None, None], panel_w
        return (k >= 1) & (k < head_end[:, None] - 3), s[:, None, None] - panel_u[None], panel_w

    @pytest.mark.parametrize("kind", ["weyl", "riemann-liouville"])
    @pytest.mark.parametrize("mu", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5])
    def test_equals_the_masked_where_form(self, kind, mu):
        live, du, panel_w = self._case(kind)
        assert np.array_equal(_panel_kernel(live, du, panel_w, mu), _panel_kernel_where(live, du, panel_w, mu))

    @pytest.mark.parametrize("mu", [0.25, 0.75, 1.5])
    def test_no_warning_off_the_live_panels(self, mu):
        live, du, panel_w = self._case("riemann-liouville")
        assert np.any(du[~live] < 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = _panel_kernel(live, du, panel_w, mu)
        assert np.all(np.isfinite(kernel))


class TestRealMatvec:
    """A real table times a complex vector or matrix is one real product of
    its real and imaginary columns, with the shape of table @ w."""

    @pytest.mark.parametrize("shape", ((7,), (7, 1), (7, 3)))
    def test_matches_complex_product(self, shape):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((4, 7))
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _real_matvec(table, w)
        assert got.shape == (table @ w).shape and got.dtype == complex
        bound = 1e-14 * (np.abs(table) @ np.abs(w))
        assert np.all(np.abs(got.real - table @ w.real) <= bound) and np.all(np.abs(got.imag - table @ w.imag) <= bound)
        assert np.array_equal(_real_matvec(table, w.real), table @ w.real)
