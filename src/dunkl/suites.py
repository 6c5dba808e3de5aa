"""Named verification suites driven by the CLI.

Each suite runs one family of identities over a parameter sweep and returns
one report per identity per parameter point, each made by ``report.run_check``
from a function that computes the errors.  Light suites sweep the
default order grid; the pipeline suites run on the three-pair set that
covers the singular, flat and smooth regimes of the Sonine weight exponent.
``run_suites`` runs them serially on one RunContext and records in each
report's parameters the pass tolerance that its name selects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import core, fractional, lizorkin, sonine, transform
from .functions import KernelFunction, PolyFunction, PolyGaussian, gaussian, monomial_gaussian
from .quadrature import jacobi_rule, radial_rule
from .report import max_errs, run_check
from .sonine import SoninePair
from .special import b_coeff

__all__ = ["RunConfig", "RunContext", "SUITES", "DEFAULT_TOLERANCES", "run_suites", "suite_names"]

DEFAULT_ALPHAS = (-0.25, 0.0, 0.5, 1.5)
DEFAULT_BETA_OFFSETS = (0.5, 1.0, 2.0)
PIPELINE_PAIRS = ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0))

DEFAULT_TOLERANCES = {
    "kernel-consistency": 1e-10,
    "transmutation-exact": 1e-12,
    "transmutation-smooth": 1e-6,
    "duality": 1e-7,
    "sonine-product": 1e-8,
    "sonine-monomial": 1e-10,
    "sonine-routes": 1e-12,
    "translation-product": 1e-8,
    "convolution": 1e-6,
    "transform-oracles": 1e-9,
    "transform-derivative": 1e-7,
    "plancherel-classic": 1e-8,
    "decomposition": 1e-6,
    "power-weight-transform": 1e-6,
    "power-weight-degenerate": 1e-8,
    "fractional-cross-route": 1e-4,
    "multiplier-commutation": 1e-4,
    "inversion": 1e-3,
    "plancherel-dual": 1e-3,
}


@dataclass
class RunConfig:
    """Verification run parameters; CLI flags override config-file keys."""

    alpha: Optional[float] = None
    beta: Optional[float] = None
    half_width: float = 12.0
    n_x: int = 512
    lambda_max: float = 16.0
    n_lambda: int = 512
    tolerances: dict = field(default_factory=dict)
    suites: tuple = ("all",)
    out_path: Optional[str] = None
    out_format: str = "json"
    include_timing: bool = False

    def tol(self, name: str) -> float:
        """Tolerance for a report name: every ``inversion-*`` pipeline reads
        the key ``inversion``, any other name its own key."""
        key = "inversion" if name.startswith("inversion-") else name
        if key not in DEFAULT_TOLERANCES:
            raise KeyError(f"report {name!r} has no tolerance key")
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def order_sweep(self) -> tuple:
        if self.alpha is not None:
            return (float(self.alpha),)
        return DEFAULT_ALPHAS

    def pair_sweep(self) -> tuple:
        if self.alpha is not None and self.beta is not None:
            return ((float(self.alpha), float(self.beta)),)
        if self.alpha is not None:
            return tuple((float(self.alpha), float(self.alpha) + d) for d in DEFAULT_BETA_OFFSETS)
        return tuple(
            (a, a + d) for a in DEFAULT_ALPHAS for d in DEFAULT_BETA_OFFSETS
        )

    def pipeline_pairs(self) -> tuple:
        if self.alpha is not None and self.beta is not None:
            return ((float(self.alpha), float(self.beta)),)
        return PIPELINE_PAIRS


class RunContext:
    """What one run builds once and its suites share: transform plans,
    witness plans and witnesses, memoized by value.  A witness keeps its own
    Sonine and dual-Sonine images (LizorkinWitness.image)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._memo: dict = {}

    def _once(self, key: tuple, build: Callable):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def plan(self, alpha: float) -> transform.TransformPlan:
        c = self.config
        return self._once(
            ("plan", round(float(alpha), 12)),
            lambda: transform.build_plan(
                alpha, half_width=c.half_width, n_x=c.n_x, lambda_max=c.lambda_max, n_lambda=c.n_lambda
            ),
        )

    def witness_plan(self, alpha: float) -> transform.TransformPlan:
        return self._once(("witness-plan", round(float(alpha), 12)), lambda: lizorkin.witness_plan(alpha))

    def witness(self, alpha: float, m: int) -> lizorkin.LizorkinWitness:
        return self._once(
            ("witness", round(float(alpha), 12), m),
            lambda: lizorkin.make_witness(alpha, self.witness_plan(alpha), m=m),
        )

    def pipeline(self, a: float, b: float) -> tuple:
        """Sonine pair and both witness plans, the leading arguments of the
        lizorkin checks."""
        return SoninePair.of(a, b), self.witness_plan(a), self.witness_plan(b)


def _sides(params: dict, lhs, rhs) -> tuple[float, float]:
    """Record both sides of a pairing identity in ``params``; return their
    errors."""
    params.update(lhs=float(np.real(lhs)), rhs=float(np.real(rhs)))
    return max_errs(rhs, lhs)


_KERNEL_ARGS = (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 10j, -10j, 3 + 4j)


def _kernel_spread(a: float) -> tuple[float, float]:
    worst = 0.0
    for z in _KERNEL_ARGS:
        vals = [core.dunkl_kernel(a, z, mode) for mode in ("series", "bochner", "bessel")]
        scale = max(abs(v) for v in vals)
        spread = max(abs(v - w) for v in vals for w in vals)
        worst = max(worst, spread / scale)
    return worst, worst


def suite_kernel_consistency(config: RunConfig, ctx: RunContext) -> list:
    grid = f"{len(_KERNEL_ARGS)} arguments, 3 evaluation modes"
    return [run_check("kernel-consistency", {"alpha": a}, grid, _kernel_spread, a) for a in (-0.4, 0.0, 0.5, 1.5, 2.7)]


def _transmutation_exact(a: float, coeffs: np.ndarray) -> tuple[float, float]:
    p = PolyFunction(coeffs)
    lhs = core.dunkl_operator(a, core.intertwiner_v(a, p))
    rhs = core.intertwiner_v(a, p.derivative())
    width = max(len(lhs.coeffs), len(rhs.coeffs))
    lc = np.zeros(width)
    rc = np.zeros(width)
    lc[: len(lhs.coeffs)] = lhs.coeffs
    rc[: len(rhs.coeffs)] = rhs.coeffs
    return max_errs(rc, lc)


def _transmutation_smooth(a: float, grid: np.ndarray) -> tuple[float, float]:
    """Dual relation on a Schwartz function, on a grid."""
    f = monomial_gaussian(1)
    lhs_vals = np.asarray([core.dual_intertwiner_v(a, core.dunkl_operator(a, f), float(x)) for x in grid])
    h = 1e-3
    tv = lambda u: core.dual_intertwiner_v(a, f, float(u))
    rhs_vals = np.asarray([(8 * (tv(x + h) - tv(x - h)) - (tv(x + 2 * h) - tv(x - 2 * h))) / (12 * h) for x in grid])
    return max_errs(rhs_vals, lhs_vals)


def suite_transmutation(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    rng = np.random.default_rng(7)
    grid = np.linspace(-2.0, 2.0, 9)
    for a in config.order_sweep():
        coeffs = rng.standard_normal(21)
        reports.append(
            run_check("transmutation-exact", {"alpha": a, "degree": 20}, "polynomial coefficients",
                      _transmutation_exact, a, coeffs)
        )
        reports.append(
            run_check("transmutation-smooth", {"alpha": a, "input": "x*exp(-x^2)"}, f"{grid.size}-point grid",
                      _transmutation_smooth, a, grid)
        )
    return reports


def _sonine_duality(a: float, b: float, params: dict) -> tuple[float, float]:
    pair = SoninePair.of(a, b)
    f = PolyFunction.monomial(2)
    g = gaussian()
    sf = sonine.sonine_apply(pair, f)
    rule_b = radial_rule(b, 14.0, 128)
    lhs = np.sum(rule_b.weights * (sf(rule_b.nodes) * g(rule_b.nodes) + sf(-rule_b.nodes) * g(-rule_b.nodes)))
    base = jacobi_rule(0.0, 2.0 * a + 1.0, 128)  # radial_rule(a, 14.0, 128), which rejects the classical a = -1/2
    nodes, weights = base.nodes * 14.0, base.weights * 14.0 ** (2.0 * a + 2.0)
    tsg = sonine.dual_sonine_grid(pair, g, nodes, u_max=400.0)
    tsg_neg = sonine.dual_sonine_grid(pair, g, -nodes, u_max=400.0)
    return _sides(params, lhs, np.sum(weights * (f(nodes) * tsg + f(-nodes) * tsg_neg)))


def suite_duality(config: RunConfig, ctx: RunContext) -> list:
    """Weighted duality pairings of the Sonine pairs, the intertwiner V_alpha = S_{-1/2,alpha} first."""
    grid = "independent weighted quadratures"
    reports = []
    for a in config.order_sweep():
        params = {"alpha": a, "pair": "x^2, exp(-x^2)"}
        reports.append(run_check("duality", params, grid, _sonine_duality, -0.5, a, params))
    for (a, b) in config.pair_sweep():
        params = {"alpha": a, "beta": b, "pair": "x^2, exp(-x^2)"}
        reports.append(run_check("duality", params, grid, _sonine_duality, a, b, params))
    return reports


def _sonine_product_spread(a: float, b: float) -> tuple[float, float]:
    pair = SoninePair.of(a, b)
    worst = 0.0
    for lam in (1.0, 2j):
        ka = KernelFunction(a, lam)
        kb = KernelFunction(b, lam)
        for x in (0.3, 1.0, 2.5):
            got = sonine.sonine_apply(pair, ka, x)
            want = kb(x)
            worst = max(worst, abs(got - want) / abs(want))
    return worst, worst


def suite_sonine_product(config: RunConfig, ctx: RunContext) -> list:
    grid = "lam in {1, 2i}, x in {0.3, 1, 2.5}"
    return [
        run_check("sonine-product", {"alpha": a, "beta": b}, grid, _sonine_product_spread, a, b)
        for (a, b) in config.pair_sweep()
    ]


def _sonine_monomial_spread(a: float, b: float) -> tuple[float, float]:
    pair = SoninePair.of(a, b)
    worst = 0.0
    for n in range(0, 21):
        want = b_coeff(n, a) / b_coeff(n, b)
        got = sonine.sonine_apply(pair, PolyFunction.monomial(n), 1.3) / 1.3**n
        worst = max(worst, abs(got - want) / abs(want))
    return worst, worst


def _sonine_route_spread(a: float, b: float) -> tuple[float, float]:
    pair = SoninePair.of(a, b)
    p = PolyFunction(np.random.default_rng(11).standard_normal(21))
    direct = sonine.sonine_apply(pair, p)
    routed = sonine.sonine_via_intertwiners(pair, p)
    err = float(np.max(np.abs(direct.coeffs - routed.coeffs)) / np.max(np.abs(direct.coeffs)))
    return err, err


def suite_sonine_monomial(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    for (a, b) in config.pair_sweep():
        routes = run_check("sonine-routes", {"alpha": a, "beta": b}, "random degree-20 polynomial", _sonine_route_spread, a, b)
        params = {"alpha": a, "beta": b, "route_err": routes.max_rel_err}
        reports.append(run_check("sonine-monomial", params, "monomials n <= 20", _sonine_monomial_spread, a, b))
        reports.append(routes)
    return reports


def _translation_spread(a: float) -> tuple[float, float]:
    worst = 0.0
    for lam in (1.2, 1.5j):
        kf = KernelFunction(a, lam)
        for (x, y) in ((0.7, -1.1), (0.0, 0.9), (1.3, 1.3), (-0.4, 2.0)):
            got = core.translation(a, kf, x, y)
            want = kf(x) * kf(y)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    return worst, worst


def suite_translation_product(config: RunConfig, ctx: RunContext) -> list:
    grid = "kernel eigenfunctions, 4 point pairs, 2 frequencies"
    return [run_check("translation-product", {"alpha": a}, grid, _translation_spread, a) for a in config.order_sweep()]


def _convolution_spread(a: float) -> tuple[float, float]:
    f = gaussian()
    g = PolyGaussian(PolyFunction(np.array([1.0, 0.5])), 1.0)
    worst = 0.0
    for x in (0.0, 0.8, -1.5):
        fg = core.convolution(a, f, g, x)
        gf = core.convolution(a, g, f, x)
        worst = max(worst, abs(fg - gf) / max(abs(fg), 1e-300))
    closed = math.gamma(a + 1.0) * 2.0 ** (-(a + 1.0)) * np.exp(-0.8**2 / 2.0)
    got = core.convolution(a, f, f, 0.8)
    worst = max(worst, abs(got - closed) / closed)
    return worst, worst


def suite_convolution(config: RunConfig, ctx: RunContext) -> list:
    grid = "commutativity at 3 points + gaussian closed form"
    return [run_check("convolution", {"alpha": a}, grid, _convolution_spread, a) for a in config.order_sweep()]


def _gaussian_oracle(a: float, plan: transform.TransformPlan, mask: np.ndarray) -> tuple[float, float]:
    spec = transform.forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
    want = math.gamma(a + 1.0) * np.exp(-plan.lambda_nodes[mask] ** 2 / 4.0)
    sup = float(np.max(np.abs(spec.values[mask] - want)))
    return sup, sup


def _transform_derivative(a: float, plan: transform.TransformPlan, mask: np.ndarray) -> tuple[float, float]:
    f = monomial_gaussian(1)
    lf = core.dunkl_operator(a, f)
    spec_f = transform.forward(plan, plan.sample(f))
    spec_lf = transform.forward(plan, plan.sample(lf))
    return max_errs(1j * plan.lambda_nodes[mask] * spec_f.values[mask], spec_lf.values[mask])


def suite_transform_oracles(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    for a in config.order_sweep():
        plan = ctx.plan(a)
        mask = np.abs(plan.lambda_nodes) <= 8.0
        n = int(mask.sum())
        reports.append(
            run_check("transform-oracles", {"alpha": a, "oracle": "gaussian"}, f"sup over |lambda| <= 8 ({n} nodes)",
                      _gaussian_oracle, a, plan, mask)
        )
        reports.append(
            run_check("transform-derivative", {"alpha": a, "input": "x*exp(-x^2)"}, f"|lambda| <= 8 ({n} nodes)",
                      _transform_derivative, a, plan, mask)
        )
    return reports


def suite_plancherel_classic(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    for a in config.order_sweep():
        plan = ctx.plan(a)
        for fname, f in (("exp(-x^2)", lambda x: np.exp(-(x**2))), ("x*exp(-x^2)", lambda x: x * np.exp(-(x**2)))):
            params = {"alpha": a, "input": fname}
            reports.append(
                run_check("plancherel-classic", params, None, transform.plancherel_errs, plan, plan.sample(f), params)
            )
    return reports


def _decomposition_errs(pair: SoninePair, plan_a, plan_b, g, mask: np.ndarray) -> tuple[float, float]:
    # the points are beta-plan nodes, so the beta side is read off its grid transform
    beta_side = transform.forward(plan_b, plan_b.sample(g)).values[mask]
    ts_vals = sonine.dual_sonine_grid(pair, g, plan_a.x_nodes, u_max=500.0)
    return max_errs(beta_side, transform.forward_fn(plan_a, ts_vals)(plan_b.lambda_nodes[mask]))


def suite_decomposition(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    for (a, b) in config.pair_sweep():
        pair = SoninePair.of(a, b)
        plan_a = ctx.plan(a)
        plan_b = ctx.plan(b)
        mask = np.abs(plan_b.lambda_nodes) <= 8.0
        for gname, g in (("exp(-x^2)", gaussian()), ("x*exp(-x^2)", monomial_gaussian(1))):
            reports.append(
                run_check("decomposition", {"alpha": a, "beta": b, "input": gname}, f"|lambda| <= 8 ({int(mask.sum())} nodes)",
                          _decomposition_errs, pair, plan_a, plan_b, g, mask)
            )
    return reports


def suite_power_weight(config: RunConfig, ctx: RunContext) -> list:
    reports = []
    for a in config.order_sweep():
        plan = ctx.plan(a)
        strip = -(2.0 * a + 2.0)
        for lam in (0.35 * strip, 0.6 * strip, 0.85 * strip):
            reports.append(fractional.power_weight_identity(a, lam, gaussian(), plan))
        # zero-constant case: even probe with vanishing matching residue;
        # the slow decay keeps its spectrum narrow, so the high-power pairing
        # weight never amplifies transform-tail noise
        probe = PolyGaussian(PolyFunction.monomial(4), 0.5)
        params = {"alpha": a, "lam": 2.0}
        reports.append(
            run_check("power-weight-degenerate", params, None, fractional.power_weight_errs, a, 2.0, probe, plan, params)
        )
    return reports


def _cross_route_spread(a: float, plan: transform.TransformPlan, lam: float) -> tuple[float, float]:
    f_grid = plan.sample(lambda x: np.exp(-(x**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mult = transform.apply_multiplier_fn(plan, f_grid, transform.MultiplierSpec(2.0 * lam, 1.0))
    worst = 0.0
    for x in (0.0, 1.0, 2.2):
        km = float(np.real(mult(np.asarray([x]))[0]))
        kk = fractional.frac_power_kernel(a, lam, gaussian(), x)
        worst = max(worst, abs(km - kk) / abs(km))
    return worst, worst


def suite_fractional_cross_route(config: RunConfig, ctx: RunContext) -> list:
    return [
        run_check("fractional-cross-route", {"alpha": a, "lam": lam}, "x in {0, 1, 2.2}", _cross_route_spread, a, ctx.plan(a), lam)
        for a in (0.5, 1.5)
        for lam in (-0.3, -0.5)
    ]


def suite_inversion(config: RunConfig, ctx: RunContext, order: str) -> list:
    # s-k1-ts and k2-s-ts reconstruct a beta-witness, the other two an alpha-witness
    at_beta = order in ("s-k1-ts", "k2-s-ts")
    return [
        lizorkin.inversion_check(*ctx.pipeline(a, b), ctx.witness(b if at_beta else a, m), order)
        for (a, b) in config.pipeline_pairs()
        for m in (0, 1)
    ]


def suite_multiplier_commutation(config: RunConfig, ctx: RunContext) -> list:
    return [
        lizorkin.multiplier_commutation_check(*ctx.pipeline(a, b), ctx.witness(b, 0))
        for (a, b) in config.pipeline_pairs()
    ]


def suite_plancherel_dual(config: RunConfig, ctx: RunContext) -> list:
    return [
        lizorkin.plancherel_dual_check(*ctx.pipeline(a, b), ctx.witness(b, 0))
        for (a, b) in config.pipeline_pairs()
    ]


SUITES: dict[str, Callable] = {
    "kernel-consistency": suite_kernel_consistency,
    "transmutation": suite_transmutation,
    "duality": suite_duality,
    "sonine-product": suite_sonine_product,
    "sonine-monomial": suite_sonine_monomial,
    "translation-product": suite_translation_product,
    "convolution": suite_convolution,
    "transform-oracles": suite_transform_oracles,
    "plancherel-classic": suite_plancherel_classic,
    "decomposition": suite_decomposition,
    "power-weight-transform": suite_power_weight,
    "fractional-cross-route": suite_fractional_cross_route,
    "inversion-s-k1-ts": lambda c, ctx: suite_inversion(c, ctx, "s-k1-ts"),
    "inversion-ts-k2-s": lambda c, ctx: suite_inversion(c, ctx, "ts-k2-s"),
    "inversion-k1-ts-s": lambda c, ctx: suite_inversion(c, ctx, "k1-ts-s"),
    "inversion-k2-s-ts": lambda c, ctx: suite_inversion(c, ctx, "k2-s-ts"),
    "multiplier-commutation": suite_multiplier_commutation,
    "plancherel-dual": suite_plancherel_dual,
}


def suite_names() -> list:
    return list(SUITES)


def run_suites(config: RunConfig) -> list:
    """Run the suites ``config`` names serially in registry order ('all'
    expands to every registered suite), all on one RunContext, and set each
    report's ``tol`` parameter from its name."""
    requested = set()
    for n in config.suites:
        if n == "all":
            requested.update(SUITES)
        elif n in SUITES:
            requested.add(n)
        else:
            raise KeyError(f"unknown suite {n!r}; available: {', '.join(SUITES)}")
    ctx = RunContext(config)
    reports = [r for n in SUITES if n in requested for r in SUITES[n](config, ctx)]
    for r in reports:
        r.params["tol"] = config.tol(r.name)
    return reports
