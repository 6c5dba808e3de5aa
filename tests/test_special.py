"""Gamma-ratio constants, coefficient sequences and the normalized Bessel
evaluators."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from dunkl import special
from dunkl.special import (
    OrderParam,
    a_const,
    a_sonine,
    b_coeff,
    bessel_mod_array,
    c_const,
    j_norm,
    j_norm_pair,
    log_b_coeff,
)
from dunkl.special import _hankel_pair, _miller_pair, _series_pair
from dunkl.quadrature import jacobi_rule
from dunkl.transform import kernel_unitary

ALPHAS = (-0.4, 0.0, 0.5, 1.0, 2.7)


class TestOrderParam:
    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            OrderParam(-0.5)
        with pytest.raises(ValueError):
            OrderParam(-1.0)

    def test_valid(self):
        assert OrderParam(-0.49).alpha == -0.49


class TestBCoeff:
    def test_first_values(self):
        assert b_coeff(0, 0.7) == pytest.approx(1.0, rel=1e-15)
        for a in ALPHAS:
            assert b_coeff(1, a) == pytest.approx(2.0 * (a + 1.0), rel=1e-14)
        assert b_coeff(2, 0.5) == pytest.approx(6.0, rel=1e-14)
        assert b_coeff(1, 0.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_both_recurrences(self, alpha):
        # the odd recurrence b_{2n+1}(a) = 2(a+1) b_{2n}(a+1) against the
        # explicit Gamma-ratio evaluation, simultaneously for n <= 50
        for n in range(51):
            explicit = b_coeff(2 * n + 1, alpha)
            recurred = 2.0 * (alpha + 1.0) * b_coeff(2 * n, alpha + 1.0)
            assert explicit == pytest.approx(recurred, rel=1e-12)
            gamma_ratio = (
                2.0 ** (2 * n)
                * math.exp(math.lgamma(n + 1) + math.lgamma(n + alpha + 1) - math.lgamma(alpha + 1))
            )
            assert b_coeff(2 * n, alpha) == pytest.approx(gamma_ratio, rel=1e-12)

    def test_log_space_no_overflow(self):
        assert np.isfinite(log_b_coeff(200, 0.5))

    def test_negative_index(self):
        with pytest.raises(ValueError):
            b_coeff(-1, 0.5)


class TestAConst:
    def test_half(self):
        assert a_const(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_zero(self):
        assert a_const(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_large_alpha_growth(self):
        # Stirling ratio: Gamma(a+1)/Gamma(a+1/2) = sqrt(a + 1/4) (1 + O(1/a^2))
        for a in (50.0, 200.0):
            assert a_const(a) == pytest.approx(math.sqrt((a + 0.25) / math.pi), rel=1e-4)
        assert a_const(200.0) > a_const(50.0) > a_const(2.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalization(self, alpha):
        # a_const * int_-1^1 (1-t^2)^(a-1/2) (1+t) dt = 1, forced by the
        # kernel normalization at the origin; quadrature via s = t^2
        rule = jacobi_rule(alpha - 0.5, -0.5, 64)
        total = a_const(alpha) * np.sum(rule.weights)  # even part of (1+t) is 1
        assert total == pytest.approx(1.0, abs=1e-10)


class TestASonine:
    def test_adjacent(self):
        for a in (0.0, 0.3, 1.7):
            assert a_sonine(a, a + 1.0) == pytest.approx(a + 1.0, rel=1e-14)

    def test_zero_one(self):
        assert a_sonine(0.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_pair(self):
        assert a_sonine(0.5, 2.5) == pytest.approx(3.75, rel=1e-14)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            a_sonine(1.0, 1.0)
        with pytest.raises(ValueError):
            a_sonine(1.0, 0.5)

    def test_zeroth_moment_inverse(self):
        # a_sonine(a,b) * I_0(a,b) = 1 with I_0 = Gamma(b-a)Gamma(a+1)/Gamma(b+1)
        for (a, b) in ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)):
            i0 = math.exp(math.lgamma(b - a) + math.lgamma(a + 1) - math.lgamma(b + 1))
            assert a_sonine(a, b) * i0 == pytest.approx(1.0, rel=1e-14)


class TestCConst:
    def test_values(self):
        assert c_const(0.0) == pytest.approx(0.25, rel=1e-15)
        assert c_const(1.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_classical_limit_value(self):
        # documentation-level check: the formula at a -> -1/2 tends to 1/(2 pi)
        assert c_const(-0.499999) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-4)


class TestBesselMod:
    def test_at_zero(self):
        for a in ALPHAS:
            assert bessel_mod_array(a, 0.0) == pytest.approx(1.0)

    def test_classical_i0(self):
        # order 0 at z=2 equals I_0(2)
        from scipy.special import iv

        assert complex(bessel_mod_array(0.0, 2.0)).real == pytest.approx(float(iv(0, 2.0)), rel=1e-13)

    def test_half_order_closed_form(self):
        # order 1/2 reduces to sinh(z)/z, also on the oscillatory axis
        for z in (0.3, 1.7, 4.0, 2j, 40j, 59j, 10 + 50j):
            got = bessel_mod_array(0.5, z)
            want = np.sinh(z) / z
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_radius_guard(self):
        # no radius: it raises only past |Re z| = log(max double) = 709.78, where the value overflows
        z = np.array([61.0, 709.7, -709.7 + 1e3j, 1e4j])
        np.testing.assert_allclose(bessel_mod_array(0.5, z), np.sinh(z) / z, rtol=1e-13)
        for z in (709.8, -709.8 + 1j):
            with pytest.raises(ValueError, match="709.78"):
                bessel_mod_array(0.5, z)

    @pytest.mark.parametrize(
        "z", (complex(math.nan, 0.0), complex(0.0, math.nan), complex(1.0, math.nan), complex(0.0, math.inf)),
        ids=("nan", "nan-i", "1+nan-i", "inf-i"),
    )
    def test_non_finite_rejected(self, z):
        # a nan or infinite part raises, at a scalar or inside an array, instead of returning nan
        for arg in (z, np.array([0.3, z, 2.0])):
            with pytest.raises(ValueError, match="nan or infinite"):
                bessel_mod_array(0.5, arg)


# j_norm_pair's band edges (series below 0.35, Miller's recurrence below 20,
# Hankel's expansion beyond, in sub-bands split at 40 and 80) and one ulp below each
_EDGES = tuple(v for edge in (0.35, 20.0, 40.0, 80.0) for v in (edge, np.nextafter(edge, 0.0)))
_GRID = np.concatenate([np.linspace(0.0, 600.0, 601), np.linspace(0.0, 30.0, 201), _EDGES])


def _envelope(nu, u):
    """min(1, Gamma(nu+1) (2/u)^nu sqrt(2/(pi u))): the size of j_nu(u)."""
    log_size = math.lgamma(nu + 1.0) + (nu + 0.5) * np.log(2.0 / np.maximum(u, 1e-300)) - 0.5 * math.log(math.pi)
    return np.exp(np.minimum(log_size, 0.0))


@functools.lru_cache(maxsize=None)
def _mpmath_j(nu):
    import mpmath

    mpmath.mp.dps = 30
    return np.array([float(mpmath.hyp0f1(nu + 1, -(mpmath.mpf(v) ** 2) / 4)) for v in _GRID])


class TestJNormPair:
    @pytest.mark.parametrize("alpha", (-0.45, -0.25, 0.0, 0.5, 1.5, 2.7, 4.5, 5.5, 12.0))
    def test_against_mpmath(self, alpha):
        # alpha = 12 takes jv beyond u = 20, where Hankel's smallest term
        # stays above the truncation bound
        first, second = j_norm_pair(alpha, _GRID)
        for nu, got in ((alpha, j_norm(alpha, _GRID)), (alpha, first), (alpha + 1.0, second)):
            assert np.max(np.abs(got - _mpmath_j(nu)) / _envelope(nu, _GRID)) <= 1e-14

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        nu=st.floats(-0.45, 8.0),
        u=st.lists(
            st.one_of(
                st.floats(0.0, 600.0),
                st.floats(0.3, 0.4),
                st.floats(19.9, 20.1),
                st.floats(39.9, 40.1),
                st.floats(79.9, 80.1),
                st.sampled_from(_EDGES),
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_order_recurrence_across_bands(self, nu, u):
        # j_nu - j_{nu+1} = -u^2 j_{nu+2} / (4 (nu+1)(nu+2)), with the three
        # orders from two calls whose points straddle the band edges
        u = np.array(u)
        first, second = j_norm_pair(nu, u)
        third = j_norm_pair(nu + 2.0, u)[0]
        residual = first - second + u * u * third / (4.0 * (nu + 1.0) * (nu + 2.0))
        assert np.max(np.abs(residual) / _envelope(nu, u)) <= 1e-14
        assert np.array_equal(j_norm(nu, u), first)

    @pytest.mark.parametrize("alpha", (-0.45, 0.0, 1.5, 12.0))
    def test_each_band_is_its_evaluator_alone(self, alpha):
        # every band is evaluated on its own points only, by its evaluator
        # with the term counts that its edges fix
        bands = (
            (0.0, 0.35, lambda v: _series_pair(alpha, v)),
            (0.35, 20.0, lambda v: _miller_pair(alpha, v)),
            (20.0, 40.0, lambda v: _hankel_pair(alpha, v, 20.0)),
            (40.0, 80.0, lambda v: _hankel_pair(alpha, v, 40.0)),
            (80.0, math.inf, lambda v: _hankel_pair(alpha, v, 80.0)),
        )
        first, second = j_norm_pair(alpha, _GRID)
        for lo, hi, pair in bands:
            on = (lo <= _GRID) & (_GRID < hi)
            want_first, want_second = pair(_GRID[on])
            assert np.array_equal(first[on], want_first) and np.array_equal(second[on], want_second), (lo, hi)

    @pytest.mark.parametrize("alpha", (-0.45, 0.0, 0.5, 1.5, 12.0))
    def test_each_value_is_its_one_point_call(self, alpha):
        # term counts are fixed per band, so a value depends on alpha and its
        # own u alone, bit for bit, whatever else its call holds
        rng = np.random.default_rng(26)
        u = np.concatenate([
            rng.uniform(0.0, 600.0, 200),
            *(edge + rng.uniform(-0.5, 0.5, 20) for edge in (0.35, 20.0, 40.0, 80.0)),
            -rng.uniform(0.0, 100.0, 20),
            _EDGES,
            [0.0, np.inf, np.nan],
        ])
        rng.shuffle(u)
        first, second = j_norm_pair(alpha, u)
        for k, v in enumerate(u):
            one = j_norm_pair(alpha, np.array([v]))
            assert first[k].tobytes() == one[0].tobytes() and second[k].tobytes() == one[1].tobytes(), v

    @pytest.mark.parametrize("alpha", (-0.4, 0.0, 1.5, 2.7))
    def test_blocks_equal_calls_on_subsets(self, alpha):
        # every band holds two blocks and a remainder: each value equals that
        # of a call on its band alone, on one block-sized slice, or on a random
        # subset, bit for bit
        rng = np.random.default_rng(37)
        edges = (0.0, 0.35, 20.0, 40.0, 80.0, 400.0)
        n = 2 * special._BLOCK + 123
        u = rng.permutation(np.concatenate([rng.uniform(lo, hi, n) for lo, hi in zip(edges, edges[1:])]))
        whole = np.array(j_norm_pair(alpha, u))
        subsets = [(lo <= u) & (u < hi) for lo, hi in zip(edges, edges[1:])]
        subsets += [slice(n, n + special._BLOCK), rng.random(u.size) < 0.3]
        for subset in subsets:
            assert np.array_equal(np.array(j_norm_pair(alpha, u[subset])), whole[:, subset])

    def test_nan_leaves_the_top_band_on_hankel(self, monkeypatch):
        # term counts are fixed by the band edges: one nan neither sends the
        # band to jv nor moves the other points
        u = np.linspace(80.0, 470.0, 4000, endpoint=False)
        want = j_norm_pair(0.0, u)
        calls = []
        monkeypatch.setattr(special, "jv", lambda *args: calls.append(args) or jv(*args))
        got = j_norm_pair(0.0, np.append(u, np.nan))
        assert calls == []
        for g, w in zip(got, want):
            assert np.isnan(g[-1]) and np.array_equal(g[:-1], w)


class TestScalarInput:
    """A real scalar gives 0-d results, bit for bit those of a one-element call."""

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("u", (0.0, 0.2, -3.0, 25.0, 100.0))
    def test_scalar_equals_one_element_call(self, alpha, u):
        one = np.array([u])
        results = [*zip(j_norm_pair(alpha, u), j_norm_pair(alpha, one)), (j_norm(alpha, u), j_norm(alpha, one))]
        for got, want in results:
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == want.tobytes()
        for sign in (-1, 1):
            assert np.asarray(kernel_unitary(alpha, u, sign)).tobytes() == kernel_unitary(alpha, one, sign).tobytes()
