"""Witness construction and the Sonine inversion pipelines.

The full three-pair sweep lives in the acceptance module; here one pair
exercises every pipeline order plus the membership diagnostics.
"""

import numpy as np
import pytest

from dunkl import lizorkin
from dunkl.functions import GridFunction
from dunkl.lizorkin import (
    INVERSION_ORDERS,
    inversion_check,
    k_operator,
    make_witness,
    multiplier_commutation_check,
    plancherel_dual_check,
    witness_profile,
)
from dunkl.sonine import SoninePair
from dunkl.report import pair_errs
from dunkl.special import c_const

PAIR = (0.5, 1.5)


@pytest.fixture(scope="module")
def setup(witness_plan_factory, witness_factory):
    a, b = PAIR
    return {
        "pair": SoninePair.of(a, b),
        "plan_a": witness_plan_factory(a),
        "plan_b": witness_plan_factory(b),
        "wa": witness_factory(a, 0),
        "wb": witness_factory(b, 0),
        "wa1": witness_factory(a, 1),
        "wb1": witness_factory(b, 1),
    }


class TestWitnessProfile:
    def test_zero_at_origin(self):
        vals = witness_profile(np.array([0.0, 1e-8, 0.5]), 0)
        assert vals[0] == 0.0
        assert vals[1] == 0.0  # underflows to exact zero: flat at the origin

    def test_parity_parameter(self):
        lam = np.array([-1.5, 1.5])
        even = witness_profile(lam, 0)
        odd = witness_profile(lam, 1)
        assert even[0] == even[1]
        assert odd[0] == -odd[1]

    def test_normalized(self):
        lam = np.linspace(-8, 8, 401)
        assert np.max(np.abs(witness_profile(lam, 0))) == pytest.approx(1.0)

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            witness_profile(np.array([1.0]), 2)

    def test_order_other_than_the_plans_rejected(self, setup):
        # the witness's order is the plan's: a different alpha is an error, not ignored
        with pytest.raises(ValueError, match="plan of order 0.5"):
            make_witness(1.5, setup["plan_a"])


class TestWitnessMembership:
    @pytest.mark.parametrize("m", [0, 1])
    def test_weighted_moments_vanish(self, setup, witness_factory, m):
        for alpha in PAIR:
            w = witness_factory(alpha, m)
            for k in range(6):
                assert w.moment_relative(k) <= 1e-8, f"alpha={alpha}, k={k}"

    def test_even_witness_is_even_real(self, setup):
        w = setup["wb"]
        vals = w.values.values
        assert np.max(np.abs(np.imag(vals))) <= 1e-12 * np.max(np.abs(vals))
        sym = np.abs(vals - vals[::-1])
        assert np.max(sym) <= 1e-10 * np.max(np.abs(vals))

    def test_odd_witness_parity(self, setup):
        w = setup["wb1"]
        vals = w.values.values
        asym = np.abs(vals + vals[::-1])
        assert np.max(asym) <= 1e-10 * np.max(np.abs(vals))

    def test_spectral_flatness(self, setup):
        # every derivative of the profile vanishes at 0; numerically the
        # profile is already exact zero below the smallest grid node
        assert setup["wb"].spectral_flatness() == 0.0

    def test_synthesis_matches_grid(self, setup):
        w = setup["wb"]
        vals = w.fn(w.plan.x_nodes)
        assert np.max(np.abs(vals - w.values.values)) <= 1e-11 * np.max(np.abs(w.values.values))


class TestKOperator:
    def test_half_power_squares_to_full(self, setup):
        pair, plan_a, plan_b, w = setup["pair"], setup["plan_a"], setup["plan_b"], setup["wa"]
        half = k_operator("alpha-half", pair, plan_a, plan_b, w)
        half_grid = GridFunction(plan_a.x_nodes, half(plan_a.x_nodes), "schwartz")
        twice = k_operator("alpha-half", pair, plan_a, plan_b, half_grid)
        full = k_operator("alpha-full", pair, plan_a, plan_b, w)
        got = twice(plan_a.x_nodes)
        want = full(plan_a.x_nodes)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_scale_is_c_ratio(self, setup):
        pair = setup["pair"]
        ratio = c_const(pair.beta) / c_const(pair.alpha)
        from dunkl.lizorkin import _k_params

        which, spec = _k_params("alpha-full", pair)
        assert which == "alpha" and spec.scale == pytest.approx(ratio)
        which, spec = _k_params("alpha-half", pair)
        assert spec.scale == pytest.approx(np.sqrt(ratio))
        assert spec.exponent == pytest.approx(pair.mu)

    def test_wrong_index_flagged(self, setup):
        with pytest.warns(UserWarning, match="witness"):
            k_operator("beta-full", setup["pair"], setup["plan_a"], setup["plan_b"], setup["wa"])

    def test_unknown_kind(self, setup):
        with pytest.raises(ValueError):
            k_operator("gamma-full", setup["pair"], setup["plan_a"], setup["plan_b"], setup["wa"])


class TestInversions:
    @pytest.mark.parametrize("order", INVERSION_ORDERS)
    @pytest.mark.parametrize("m", [0, 1])
    def test_reconstruction(self, setup, order, m):
        wit = {
            ("s-k1-ts", 0): "wb", ("k2-s-ts", 0): "wb",
            ("ts-k2-s", 0): "wa", ("k1-ts-s", 0): "wa",
            ("s-k1-ts", 1): "wb1", ("k2-s-ts", 1): "wb1",
            ("ts-k2-s", 1): "wa1", ("k1-ts-s", 1): "wa1",
        }[(order, m)]
        _, rel_err, _ = inversion_check(setup["pair"], setup["plan_a"], setup["plan_b"], setup[wit], order)
        assert rel_err <= 1e-3, f"{order} m={m}: {rel_err}"

    def test_zero_witness_maps_to_zero(self, setup):
        pair, plan_a, plan_b = setup["pair"], setup["plan_a"], setup["plan_b"]
        from dunkl.sonine import dual_sonine_grid
        from dunkl.transform import SpectralFunction

        zero = SpectralFunction(plan_b.order, plan_b.lambda_nodes, np.zeros_like(plan_b.lambda_nodes))
        vals = dual_sonine_grid(pair, zero, plan_a.x_nodes[:8] + 0.1, u_max=plan_b.half_width**2)
        assert np.max(np.abs(vals)) == 0.0

    def test_unknown_order_rejected(self, setup):
        with pytest.raises(ValueError):
            inversion_check(setup["pair"], setup["plan_a"], setup["plan_b"], setup["wb"], "bogus")


class TestCommutationAndPlancherel:
    def test_commutation(self, setup):
        _, rel_err, _ = multiplier_commutation_check(setup["pair"], setup["plan_a"], setup["plan_b"], setup["wb"])
        assert rel_err <= 1e-4

    def test_plancherel_dual(self, setup):
        lhs, rhs = plancherel_dual_check(setup["pair"], setup["plan_a"], setup["plan_b"], setup["wb"])
        assert pair_errs(lhs, rhs)[1] <= 1e-3

    def test_scaling_linearity(self, setup):
        # doubling the witness multiplies both Plancherel sides by exactly 4
        pair, plan_a, plan_b = setup["pair"], setup["plan_a"], setup["plan_b"]
        w = setup["wb"]
        doubled = make_witness(pair.beta, plan_b, m=0, scale=2.0)
        lhs1, rhs1 = plancherel_dual_check(pair, plan_a, plan_b, w)
        lhs2, rhs2 = plancherel_dual_check(pair, plan_a, plan_b, doubled)
        assert lhs2 == pytest.approx(4.0 * lhs1, rel=1e-12)
        assert rhs2 == pytest.approx(4.0 * rhs1, rel=1e-10)

    def test_dual_sonine_image_built_once_per_witness(self, setup, witness_plan_factory, monkeypatch):
        # no other test applies the pair (0, 1.5) to this shared fixture
        # witness, so the image is not stored on it yet
        pair, plan_a, plan_b = SoninePair.of(0.0, PAIR[1]), witness_plan_factory(0.0), setup["plan_b"]
        wit = setup["wb"]
        original = lizorkin.dual_sonine_grid
        calls = []

        def counting(pair_, f, *args, **kwargs):
            calls.append(f is wit.fn)
            return original(pair_, f, *args, **kwargs)

        monkeypatch.setattr(lizorkin, "dual_sonine_grid", counting)
        results = [
            multiplier_commutation_check(pair, plan_a, plan_b, wit),
            plancherel_dual_check(pair, plan_a, plan_b, wit),
        ]
        assert sum(calls) == 1
        fresh = make_witness(pair.beta, plan_b, m=0)
        want = [
            multiplier_commutation_check(pair, plan_a, plan_b, fresh),
            plancherel_dual_check(pair, plan_a, plan_b, fresh),
        ]
        assert results == want

    def test_sonine_image_built_once_per_witness(self, setup, witness_plan_factory, witness_factory, monkeypatch):
        # no other test applies the pair (0, 1.5) to the order-0 session
        # witness, so its Sonine image is not stored on it yet
        pair, plan_a, plan_b = SoninePair.of(0.0, PAIR[1]), witness_plan_factory(0.0), setup["plan_b"]
        wit = witness_factory(0.0, 0)
        original = lizorkin.sonine_grid
        calls = []

        def counting(pair_, f, *args, **kwargs):
            calls.append(f is wit.fn)
            return original(pair_, f, *args, **kwargs)

        monkeypatch.setattr(lizorkin, "sonine_grid", counting)
        rel_errs = [inversion_check(pair, plan_a, plan_b, wit, order)[1] for order in ("ts-k2-s", "k1-ts-s")]
        assert sum(calls) == 1
        assert all(rel_err <= 1e-3 for rel_err in rel_errs)
