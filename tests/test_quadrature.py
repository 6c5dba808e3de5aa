"""Singular-weight rules, tail integration, and regularized pairings."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkl.fractional import frac_power_kernel
from dunkl.functions import PolyFunction, PolyGaussian, WrappedFunction, gaussian, monomial_gaussian
from dunkl.quadrature import (
    MAX_DOUBLINGS,
    TailNonConvergence,
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


def _weyl_reference(h_fns, mu, s_values, u_max, head_nodes=32, panel_nodes=40, first_edge=1.0):
    """Per-s loop form of ``weyl_integral``: the same rules, heads and
    truncation, summed one s and one panel at a time."""
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
    h_panel = [np.asarray(h(panel_u.ravel())).reshape(panel_u.shape) for h in h_fns]
    head_end_idx = np.minimum(np.searchsorted(edges, s_values, side="right") + 1, n_edges - 1)
    head_span = edges[head_end_idx] - s_values
    u_heads = s_values[:, None] + head_span[:, None] * head.nodes[None, :]
    h_heads = [np.asarray(h(u_heads.ravel())).reshape(u_heads.shape) for h in h_fns]
    out = np.zeros((len(h_fns), s_values.size), dtype=np.result_type(*[v.dtype for v in h_panel], float))
    for si, s in enumerate(s_values):
        for fi in range(len(h_fns)):
            out[fi, si] += head_span[si] ** mu * np.sum(head.weights * h_heads[fi][si])
        for k in range(int(head_end_idx[si]), n_edges - 1):
            kernel = panel_w[k] * (panel_u[k] - s) ** (mu - 1.0)
            for fi in range(len(h_fns)):
                out[fi, si] += np.sum(kernel * h_panel[fi][k])
    return out


def _riemann_liouville_reference(h_fns, left_exponents, mu, s_values, panel_width=0.75, head_nodes=24, panel_nodes=24):
    """Per-s loop form of ``riemann_liouville_integral``: the same rules,
    heads and panels, summed one s and one panel at a time."""
    s_values = np.asarray(s_values, dtype=float)
    y_max = math.sqrt(float(np.max(s_values)))
    n_panels = max(int(math.ceil(y_max / panel_width)), 2)
    edges = np.linspace(0.0, y_max, n_panels + 1) ** 2
    gl_x, gl_w = np.polynomial.legendre.leggauss(panel_nodes)
    head = jacobi_rule(0.0, mu - 1.0, head_nodes)
    panel_u = np.asarray([edges[k] + (edges[k + 1] - edges[k]) * 0.5 * (gl_x + 1.0) for k in range(n_panels)])
    panel_w = np.asarray([gl_w * 0.5 * (edges[k + 1] - edges[k]) for k in range(n_panels)])
    h_panel = [np.asarray(h(panel_u.ravel())).reshape(panel_u.shape) for h in h_fns]
    first = []
    for h, b_exp in zip(h_fns, left_exponents):
        rule0 = jacobi_rule(0.0, b_exp, panel_nodes)
        u0 = rule0.nodes * edges[1]
        first.append((u0, rule0.weights * edges[1] ** (b_exp + 1.0), np.asarray(h(u0))))
    j_idx = np.minimum(np.searchsorted(edges, s_values, side="right") - 1, n_panels - 1)
    out = np.zeros((len(h_fns), s_values.size), dtype=np.result_type(*[v.dtype for v in h_panel], float))
    for si, s in enumerate(s_values):
        j = int(j_idx[si])
        for fi, (h, b_exp) in enumerate(zip(h_fns, left_exponents)):
            if j < 2:
                rule = jacobi_rule(mu - 1.0, b_exp, head_nodes)
                out[fi, si] = np.sum(rule.weights * h(s * rule.nodes)) * s ** (mu + b_exp)
                continue
            lo = edges[j - 1]
            u_head = s - (s - lo) * head.nodes
            out[fi, si] = np.sum(head.weights * h(u_head) * u_head**b_exp) * (s - lo) ** mu
            u0, w0, h0 = first[fi]
            out[fi, si] += np.sum(w0 * (s - u0) ** (mu - 1.0) * h0)
            for k in range(1, j - 1):
                kernel = panel_w[k] * (s - panel_u[k]) ** (mu - 1.0)
                out[fi, si] += np.sum(kernel * panel_u[k] ** b_exp * h_panel[fi][k])
    return out


def beta_fn(x, y):
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


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

    def test_tail_nonconvergence(self):
        # a constant never decays: every doubling panel adds half the total
        with pytest.raises(TailNonConvergence, match=f"after {MAX_DOUBLINGS} doublings"):
            integrate_semi_infinite(lambda v: np.ones_like(v), 0.0)

    @_PROPERTY
    @given(s=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True))
    def test_gamma_function(self, s):
        got = integrate_semi_infinite(lambda v: np.exp(-v), s)
        # the Gauss-Jacobi head loses digits as its exponent nears -1: its
        # moments are off by 8e-10 at exponent -0.99 and 64 nodes
        assert got == pytest.approx(math.gamma(s + 1.0), rel=1e-12 if s >= -0.5 else 1e-10)


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
            got = weyl_integral([lambda u: np.exp(-u)], mu, svals, u_max=256.0)[0]
            want = math.gamma(mu) * np.exp(-svals)
            assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            weyl_integral([lambda u: np.exp(-u)], 1.0, np.array([300.0]), u_max=256.0)


class TestRiemannLiouville:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.0, 0.5, 1.5])
    def test_power_closed_form(self, mu, b):
        svals = np.array([0.09, 0.35, 1.7, 9.0, 144.0])
        got = riemann_liouville_integral([lambda u: np.ones_like(u)], [b], mu, svals)[0]
        want = svals ** (mu + b) * beta_fn(mu, b + 1.0)
        assert np.max(np.abs(got / want - 1.0)) < 1e-12

    def test_oscillatory_integrand(self):
        from scipy.integrate import quad

        mu, b = 0.75, 0.5
        h = lambda u: np.cos(3.0 * np.sqrt(u))
        for s in (2.0, 120.0):
            got = riemann_liouville_integral([h], [b], mu, np.array([s]))[0][0]
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
    f = PolyGaussian(np.array([0.7, -0.4, 1.1, 0.25, -0.05]), rate=0.6)
    return [lambda u: f.even_part(np.sqrt(u)), lambda u: (1.0 - 0.5j) * f.odd_quotient(np.sqrt(u))]


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
        h_fns = _poly_gaussian_parts()
        self._close(weyl_integral(h_fns, mu, s, u_max=512.0), _weyl_reference(h_fns, mu, s, 512.0))

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_riemann_liouville(self, mu):
        # y_max = 6 gives 8 panels with edges (0.75 k)^2: s inside the first
        # two panels, on the edges k = 2, 3, 5, 8, and between edges
        edges = (0.75 * np.arange(9)) ** 2
        s = np.array([0.05, 0.4, edges[1], 1.0, edges[2], 2.0, edges[3], 7.1, edges[5], 20.0, edges[8]])
        h_fns = _poly_gaussian_parts()
        got = riemann_liouville_integral(h_fns, [0.5, 1.5], mu, s)
        self._close(got, _riemann_liouville_reference(h_fns, [0.5, 1.5], mu, s))
