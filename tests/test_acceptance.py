"""Acceptance criteria for the package, one test per criterion.

Each test pins the tolerance it must meet, runs at default desk-scale grids,
and prints a PASS line with the achieved error.  Criterion runtimes are
asserted where the target specifies one.
"""

import math
import time
import warnings

import numpy as np

from dunkl.cli import main as cli_main
from dunkl.core import (
    dual_intertwiner_v,
    dual_intertwiner_v_grid,
    dunkl_kernel,
    dunkl_operator,
    intertwiner_v,
)
from dunkl.fractional import frac_power_kernel, power_weight_identity
from dunkl.functions import KernelFunction, PolyFunction, PolyGaussian, gaussian, monomial_gaussian
from dunkl.lizorkin import (
    INVERSION_ORDERS,
    inversion_check,
    make_witness,
    multiplier_commutation_check,
    plancherel_dual_check,
    witness_plan,
)
from dunkl.quadrature import homogeneous_pairing, radial_rule
from dunkl.sonine import (
    SoninePair,
    dual_sonine_apply,
    dual_sonine_grid,
    intertwining_check,
    sonine_apply,
    sonine_via_intertwiners,
)
from dunkl.special import b_coeff
from dunkl.transform import MultiplierSpec, apply_multiplier_fn, forward, forward_at, plancherel_check

DEFAULT_ALPHAS = (-0.25, 0.0, 0.5, 1.5)
DEFAULT_PAIRS = tuple((a, a + d) for a in DEFAULT_ALPHAS for d in (0.5, 1.0, 2.0))
PIPELINE_PAIRS = ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0))


def report_line(num, label, achieved, tol, ok):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:>2}: {label}: worst {achieved:.3e} (tolerance {tol:.0e})")


def test_criterion_01_kernel_consistency():
    tol = 1e-10
    start = time.perf_counter()
    worst = 0.0
    z_set = (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 10j, -10j, 3 + 4j)
    for a in (-0.4, 0.0, 0.5, 1.5, 2.7):
        for z in z_set:
            vals = [dunkl_kernel(a, z, m) for m in ("series", "bochner", "bessel")]
            scale = max(abs(v) for v in vals)
            worst = max(worst, max(abs(v - w) for v in vals for w in vals) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 1.0
    report_line(1, f"kernel series/integral/bessel agreement ({elapsed:.2f}s)", worst, tol, ok)
    assert worst <= tol
    assert elapsed < 1.0


def test_criterion_02_sonine_product_formula():
    tol = 1e-8
    start = time.perf_counter()
    worst = 0.0
    for (a, b) in DEFAULT_PAIRS:
        pair = SoninePair.of(a, b)
        for lam in (1.0, 2j):
            ka, kb = KernelFunction(a, lam), KernelFunction(b, lam)
            for x in (0.3, 1.0, 2.5):
                got = sonine_apply(pair, ka, x)
                want = kb(x)
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 5.0
    report_line(2, f"sonine product formula, {len(DEFAULT_PAIRS)} pairs ({elapsed:.2f}s)", worst, tol, ok)
    assert worst <= tol
    assert elapsed < 5.0


def test_criterion_03_monomial_oracle():
    tol_quad, tol_routes = 1e-10, 1e-12
    worst_quad, worst_routes = 0.0, 0.0
    rng = np.random.default_rng(101)
    for (a, b) in ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0), (-0.25, 0.75), (1.5, 3.5)):
        pair = SoninePair.of(a, b)
        x = 1.3
        for n in range(21):
            want = b_coeff(n, a) / b_coeff(n, b) * x**n
            got = sonine_apply(pair, PolyFunction.monomial(n), x)
            worst_quad = max(worst_quad, abs(got - want) / abs(want))
        p = PolyFunction(rng.standard_normal(21))
        direct = sonine_apply(pair, p)
        routed = sonine_via_intertwiners(pair, p)
        worst_routes = max(
            worst_routes, float(np.max(np.abs(direct.coeffs - routed.coeffs)) / np.max(np.abs(direct.coeffs)))
        )
    ok = worst_quad <= tol_quad and worst_routes <= tol_routes
    report_line(3, "monomial eigenvalue law (quadrature)", worst_quad, tol_quad, ok)
    report_line(3, "direct vs composed-intertwiner route", worst_routes, tol_routes, ok)
    assert worst_quad <= tol_quad
    assert worst_routes <= tol_routes


def test_criterion_04_transmutation_and_intertwining():
    tol_exact, tol_smooth = 1e-12, 1e-6
    rng = np.random.default_rng(7)
    worst_exact = 0.0
    for a in DEFAULT_ALPHAS:
        p = PolyFunction(rng.standard_normal(21))
        lhs = dunkl_operator(a, intertwiner_v(a, p))
        rhs = intertwiner_v(a, p.derivative())
        width = max(len(lhs.coeffs), len(rhs.coeffs))
        lc, rc = np.zeros(width), np.zeros(width)
        lc[: len(lhs.coeffs)] = lhs.coeffs
        rc[: len(rhs.coeffs)] = rhs.coeffs
        worst_exact = max(worst_exact, float(np.max(np.abs(lc - rc)) / np.max(np.abs(rc))))
    for (a, b) in ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)):
        rep = intertwining_check(SoninePair.of(a, b), PolyFunction(rng.standard_normal(13)))
        worst_exact = max(worst_exact, rep.max_rel_err)

    worst_smooth = 0.0
    a = 0.8
    f = monomial_gaussian(1)
    lf = dunkl_operator(a, f)
    h = 1e-3
    for x in (-1.2, 0.4, 1.9):
        lhs = dual_intertwiner_v(a, lf, x)
        tv = lambda u: dual_intertwiner_v(a, f, u)
        rhs = (8 * (tv(x + h) - tv(x - h)) - (tv(x + 2 * h) - tv(x - 2 * h))) / (12 * h)
        worst_smooth = max(worst_smooth, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    rep = intertwining_check(SoninePair.of(0.5, 1.5), gaussian())
    worst_smooth = max(worst_smooth, rep.max_rel_err)
    ok = worst_exact <= tol_exact and worst_smooth <= tol_smooth
    report_line(4, "transmutation + intertwining, polynomials", worst_exact, tol_exact, ok)
    report_line(4, "transmutation + intertwining, gaussian-type", worst_smooth, tol_smooth, ok)
    assert worst_exact <= tol_exact
    assert worst_smooth <= tol_smooth


def test_criterion_05_duality_pairings():
    tol = 1e-7
    worst = 0.0
    for a in (0.0, 0.5, 1.5):
        f, g = PolyFunction.monomial(2), gaussian()
        vf = intertwiner_v(a, f)
        rule = radial_rule(a, 14.0, 128)
        lhs = np.sum(rule.weights * (vf(rule.nodes) + vf(-rule.nodes)) * np.exp(-rule.nodes**2))
        gl_x, gl_w = np.polynomial.legendre.leggauss(200)
        nodes, weights = 14.0 * gl_x, 14.0 * gl_w
        rhs = np.sum(weights * nodes**2 * dual_intertwiner_v_grid(a, g, nodes, u_max=400.0))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    for (a, b) in ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)):
        pair = SoninePair.of(a, b)
        sf = sonine_apply(pair, PolyFunction.monomial(2))
        rule_b = radial_rule(b, 14.0, 128)
        lhs = np.sum(rule_b.weights * (sf(rule_b.nodes) + sf(-rule_b.nodes)) * np.exp(-rule_b.nodes**2))
        rule_a = radial_rule(a, 14.0, 128)
        tsg = dual_sonine_grid(pair, gaussian(), rule_a.nodes, u_max=400.0)
        rhs = np.sum(rule_a.weights * 2.0 * rule_a.nodes**2 * tsg)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    ok = worst <= tol
    report_line(5, "two-sided duality pairings", worst, tol, ok)
    assert worst <= tol


def test_criterion_06_transform_oracles(plan_factory):
    worst_gauss, worst_deriv, worst_planch = 0.0, 0.0, 0.0
    for a in DEFAULT_ALPHAS:
        plan = plan_factory(a)
        mask = np.abs(plan.lambda_nodes) <= 8.0
        spec = forward(plan, plan.sample(lambda x: np.exp(-(x**2)))).values
        want = math.gamma(a + 1.0) * np.exp(-plan.lambda_nodes[mask] ** 2 / 4.0)
        worst_gauss = max(worst_gauss, float(np.max(np.abs(spec[mask] - want))))

        f = monomial_gaussian(1)
        spec_f = forward(plan, plan.sample(f)).values
        spec_lf = forward(plan, plan.sample(dunkl_operator(a, f))).values
        want_vals = 1j * plan.lambda_nodes[mask] * spec_f[mask]
        worst_deriv = max(
            worst_deriv, float(np.max(np.abs(spec_lf[mask] - want_vals)) / np.max(np.abs(want_vals)))
        )
        rep = plancherel_check(plan, plan.sample(lambda x: (1 + x) * np.exp(-(x**2))))
        worst_planch = max(worst_planch, rep.max_rel_err)

    plan0 = plan_factory(0.0)
    rep0 = plancherel_check(plan0, plan0.sample(lambda x: np.exp(-(x**2))))
    half_err = max(abs(rep0.params["lhs"] - 0.5), abs(rep0.params["rhs"] - 0.5))
    ok = worst_gauss <= 1e-9 and worst_deriv <= 1e-7 and worst_planch <= 1e-8 and half_err <= 1e-9
    report_line(6, "gaussian transform sup-norm", worst_gauss, 1e-9, ok)
    report_line(6, "derivative identity", worst_deriv, 1e-7, ok)
    report_line(6, "weighted Plancherel", worst_planch, 1e-8, ok)
    report_line(6, "alpha=0 closed-form value 1/2", half_err, 1e-9, ok)
    assert worst_gauss <= 1e-9
    assert worst_deriv <= 1e-7
    assert worst_planch <= 1e-8
    assert half_err <= 1e-9


def test_criterion_07_decomposition(plan_factory):
    tol = 1e-6
    worst_decomp, worst_gauss = 0.0, 0.0
    for (a, b) in ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0)):
        pair = SoninePair.of(a, b)
        plan_a, plan_b = plan_factory(a), plan_factory(b)
        for g in (gaussian(), monomial_gaussian(1)):
            mask = np.abs(plan_b.lambda_nodes) <= 8.0
            lam_pts = plan_b.lambda_nodes[mask]
            beta_side = forward_at(plan_b, plan_b.sample(g).values, lam_pts)
            ts_vals = dual_sonine_grid(pair, g, plan_a.x_nodes, u_max=500.0)
            alpha_side = forward_at(plan_a, ts_vals, lam_pts)
            worst_decomp = max(
                worst_decomp, float(np.max(np.abs(alpha_side - beta_side)) / np.max(np.abs(beta_side)))
            )
        ratio = math.gamma(b + 1.0) / math.gamma(a + 1.0)
        for x in (0.0, 1.1, 2.0):
            got = dual_sonine_apply(pair, gaussian(), x)
            want = ratio * math.exp(-x * x)
            worst_gauss = max(worst_gauss, abs(got - want) / want)
    ok = worst_decomp <= tol and worst_gauss <= tol
    report_line(7, "beta-transform decomposition", worst_decomp, tol, ok)
    report_line(7, "dual-sonine gaussian closed form", worst_gauss, tol, ok)
    assert worst_decomp <= tol
    assert worst_gauss <= tol


def test_criterion_08_distributional_layer(plan_factory):
    phi = gaussian()
    eps = 1e-4
    plus = eps * homogeneous_pairing(-1.0 + eps, phi).value
    minus = -eps * homogeneous_pairing(-1.0 - eps, phi).value
    residue_err = abs(0.5 * (plus + minus) - 2.0)

    worst_identity = 0.0
    for a in (0.0, 0.5, 1.5):
        plan = plan_factory(a)
        strip = -(2.0 * a + 2.0)
        for lam in (0.35 * strip, 0.6 * strip, 0.85 * strip):
            rep = power_weight_identity(a, lam, phi, plan)
            worst_identity = max(worst_identity, rep.max_rel_err)

    probe = PolyGaussian(PolyFunction.monomial(4), 0.5)
    degenerate = 0.0
    for a in (0.5, 1.5):
        rep = power_weight_identity(a, 2.0, probe, plan_factory(a))
        degenerate = max(degenerate, abs(rep.params["lhs"]), abs(rep.params["rhs"]))
    ok = residue_err <= 1e-6 and worst_identity <= 1e-6 and degenerate <= 1e-8
    report_line(8, "pole residue by numeric extraction", residue_err, 1e-6, ok)
    report_line(8, "weighted-power transform identity", worst_identity, 1e-6, ok)
    report_line(8, "degenerate zero-constant case", degenerate, 1e-8, ok)
    assert residue_err <= 1e-6
    assert worst_identity <= 1e-6
    assert degenerate <= 1e-8


def test_criterion_09_fractional_cross_route(plan_factory):
    tol = 1e-4
    start = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.5):
        plan = plan_factory(a)
        f_grid = plan.sample(lambda x: np.exp(-(x**2)))
        for lam in (-0.3, -0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mult = apply_multiplier_fn(plan, f_grid, MultiplierSpec(2.0 * lam, 1.0))
            for x in (0.0, 1.0, 2.2):
                km = float(np.real(mult(np.array([x]))[0]))
                kk = frac_power_kernel(a, lam, gaussian(), x)
                worst = max(worst, abs(km - kk) / abs(km))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 30.0
    report_line(9, f"fractional kernel vs multiplier route ({elapsed:.1f}s)", worst, tol, ok)
    assert worst <= tol
    assert elapsed < 30.0


def test_criterion_10_pipelines():
    start = time.perf_counter()
    worst_comm, worst_inv, worst_pl = 0.0, 0.0, 0.0
    for (a, b) in PIPELINE_PAIRS:
        pair = SoninePair.of(a, b)
        plan_a, plan_b = witness_plan(a), witness_plan(b)
        for m in (0, 1):
            wb = make_witness(b, plan_b, m=m)
            wa = make_witness(a, plan_a, m=m)
            for order in INVERSION_ORDERS:
                wit = wb if order in ("s-k1-ts", "k2-s-ts") else wa
                rep = inversion_check(pair, plan_a, plan_b, wit, order)
                worst_inv = max(worst_inv, rep.max_rel_err)
            if m == 0:
                rep = multiplier_commutation_check(pair, plan_a, plan_b, wb)
                worst_comm = max(worst_comm, rep.max_rel_err)
                rep = plancherel_dual_check(pair, plan_a, plan_b, wb)
                worst_pl = max(worst_pl, rep.max_rel_err)
    elapsed = time.perf_counter() - start
    ok = worst_comm <= 1e-4 and worst_inv <= 1e-3 and worst_pl <= 1e-3 and elapsed < 60.0
    report_line(10, f"multiplier commutation ({elapsed:.1f}s total)", worst_comm, 1e-4, ok)
    report_line(10, "witness reconstructions, 4 pipelines x 2 parities", worst_inv, 1e-3, ok)
    report_line(10, "dual-transform Plancherel", worst_pl, 1e-3, ok)
    assert worst_comm <= 1e-4
    assert worst_inv <= 1e-3
    assert worst_pl <= 1e-3
    assert elapsed < 60.0


def test_criterion_11_cli_contract(tmp_path, verify_all_run):
    code1, out1 = verify_all_run
    out2 = tmp_path / "r2.json"
    code2 = cli_main(["verify", "--suites", "all", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    bad = cli_main(["verify", "--alpha", "1.0", "--beta", "0.5", "--suites", "sonine-product"])
    ok = code1 == 0 and code2 == 0 and identical and bad == 2
    status = "PASS" if ok else "FAIL"
    print(
        f"{status} criterion 11: verify --suites all exit={code1}, "
        f"byte-identical reruns={identical}, beta<=alpha exit={bad}"
    )
    assert code1 == 0
    assert code2 == 0
    assert identical
    assert bad == 2
