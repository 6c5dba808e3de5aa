"""Named verification suites driven by the CLI, as one table.

Each suite in ``SUITES`` is a sweep, the parameter points it runs at (the
default orders, the order pairs, the witness-pipeline pairs or a fixed
list), and the identity rows it checks at each point.  A row is a report
name, parameters added to the point's, a grid summary, and an errors
function of the run context and the point's parameters.  The errors come
from the library, which computes them or the two sides of an identity;
``Suite.__call__`` is the one loop that hands each row to
``report.run_check``.  ``run_suites`` runs the requested suites serially on
one RunContext and records in each report's parameters the pass tolerance
that its name selects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core, fractional, lizorkin, sonine, transform
from .functions import KernelFunction, PolyFunction, PolyGaussian, gaussian, monomial_gaussian
from .quadrature import jacobi_rule, radial_rule
from .report import max_errs, pair_errs, run_check, worst_errs
from .sonine import SoninePair, classical_pair
from .special import b_coeff

__all__ = ["RunConfig", "RunContext", "Row", "Suite", "SUITES", "DEFAULT_TOLERANCES", "run_suites"]

DEFAULT_ALPHAS = (-0.25, 0.0, 0.5, 1.5)
DEFAULT_BETA_OFFSETS = (0.5, 1.0, 2.0)
PIPELINE_PAIRS = ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0))
#: the build_plan sizes a run may set; one left None takes build_plan's default
PLAN_SIZES = ("half_width", "n_x", "lambda_max", "n_lambda")

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
    half_width: Optional[float] = None
    n_x: Optional[int] = None
    lambda_max: Optional[float] = None
    n_lambda: Optional[int] = None
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

    # the sweeps: parameter points of the suites
    def orders(self) -> list:
        alphas = DEFAULT_ALPHAS if self.alpha is None else (float(self.alpha),)
        return [{"alpha": a} for a in alphas]

    def pairs(self) -> list:
        if self.alpha is not None and self.beta is not None:
            pairs = ((float(self.alpha), float(self.beta)),)
        elif self.alpha is not None:
            pairs = tuple((float(self.alpha), float(self.alpha) + d) for d in DEFAULT_BETA_OFFSETS)
        else:
            pairs = tuple((a, a + d) for a in DEFAULT_ALPHAS for d in DEFAULT_BETA_OFFSETS)
        return [{"alpha": a, "beta": b} for a, b in pairs]

    def pipelines(self, *ms: int) -> list:
        """The witness-pipeline pairs, each with every witness parity in ``ms``."""
        explicit = self.alpha is not None and self.beta is not None
        pairs = ((float(self.alpha), float(self.beta)),) if explicit else PIPELINE_PAIRS
        return [{"alpha": a, "beta": b, "m": m} for a, b in pairs for m in ms]


def plan_sizes(source) -> dict:
    """The PLAN_SIZES that ``source``, a RunConfig or parsed flags, sets."""
    return {k: getattr(source, k) for k in PLAN_SIZES if getattr(source, k) is not None}


class RunContext:
    """What one run builds once and its suites share: transform plans,
    witness plans, witnesses and seeded random streams, memoized by value.
    A witness keeps its own Sonine and dual-Sonine images
    (LizorkinWitness.image)."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._memo: dict = {}

    def _once(self, key: tuple, build: Callable):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def plan(self, alpha: float) -> transform.TransformPlan:
        sizes = plan_sizes(self.config)
        return self._once(("plan", round(float(alpha), 12)), lambda: transform.build_plan(alpha, **sizes))

    def witness_plan(self, alpha: float) -> transform.TransformPlan:
        return self._once(("witness-plan", round(float(alpha), 12)), lambda: lizorkin.witness_plan(alpha))

    def witness(self, alpha: float, m: int) -> lizorkin.LizorkinWitness:
        return self._once(
            ("witness", round(float(alpha), 12), m),
            lambda: lizorkin.make_witness(alpha, self.witness_plan(alpha), m=m),
        )

    def rng(self, seed: int) -> np.random.Generator:
        """One seeded stream per run, drawn from in sweep order."""
        return self._once(("rng", seed), lambda: np.random.default_rng(seed))

    def pipeline(self, a: float, b: float) -> tuple:
        """Sonine pair and both witness plans, the leading arguments of the
        lizorkin checks."""
        return SoninePair.of(a, b), self.witness_plan(a), self.witness_plan(b)


class Row(NamedTuple):
    """One identity checked at each point of a suite's sweep.  ``errors(ctx,
    params)`` returns (max_abs_err, max_rel_err), plus the grid summary
    where that depends on the point (``grid`` is then None); it may record
    results, such as both sides of a scalar identity, in ``params``."""

    name: str
    grid: Optional[str]
    errors: Callable
    params: dict = {}


class Suite(NamedTuple):
    """A sweep, ``config -> [point params]``, and the rows run at each
    point.  Calling it runs every check, point by point and row by row, and
    returns the reports in that order."""

    sweep: Callable
    rows: tuple

    def __call__(self, config: RunConfig, ctx: RunContext) -> list:
        reports = []
        for point in self.sweep(config):
            for row in self.rows:
                params = {**point, **row.params}
                reports.append(run_check(row.name, params, row.grid, row.errors, ctx, params))
        return reports


def _sides(params: dict, lhs, rhs, errs: Callable = pair_errs) -> tuple[float, float]:
    """Record both sides of a scalar identity in ``params``; return
    ``errs(lhs, rhs)``."""
    params.update(lhs=float(np.real(lhs)), rhs=float(np.real(rhs)))
    return errs(lhs, rhs)


_KERNEL_ARGS = (0.1, -0.1, 1.0, -1.0, 5.0, -5.0, 10j, -10j, 3 + 4j)


def _kernel_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    def spread(z) -> float:
        vals = [core.dunkl_kernel(p["alpha"], z, mode) for mode in ("series", "bochner", "bessel")]
        return np.max([abs(v - w) for v in vals for w in vals]) / np.max([abs(v) for v in vals])

    return worst_errs([spread(z) for z in _KERNEL_ARGS])


def _transmutation_exact(ctx: RunContext, p: dict) -> tuple[float, float]:
    """Lambda_alpha V_alpha p = V_alpha p': the intertwining relation of the pair (-1/2, alpha)."""
    poly = PolyFunction(ctx.rng(7).standard_normal(p["degree"] + 1))
    return sonine.intertwining_check(classical_pair(p["alpha"]), poly)


_SMOOTH_GRID = np.linspace(-2.0, 2.0, 9)


def _transmutation_smooth(ctx: RunContext, p: dict) -> tuple[float, float]:
    """Dual relation on a Schwartz function, on a grid."""
    a = p["alpha"]
    f = monomial_gaussian(1)
    lhs_vals = core.dual_intertwiner_v(a, core.dunkl_operator(a, f), _SMOOTH_GRID)
    rhs_vals = sonine._fd_derivative(lambda u: core.dual_intertwiner_v(a, f, u), _SMOOTH_GRID, 1e-3)
    return max_errs(rhs_vals, lhs_vals)


def _sonine_duality(ctx: RunContext, p: dict) -> tuple[float, float]:
    """Weighted duality pairing of the pair (alpha, beta), or at an order
    point of the intertwiner V_alpha = S_{-1/2,alpha}."""
    a, b = (p["alpha"], p["beta"]) if "beta" in p else (-0.5, p["alpha"])
    pair = SoninePair.of(a, b)
    f = PolyFunction.monomial(2)
    g = gaussian()
    sf = sonine.sonine_apply(pair, f)
    rule_b = radial_rule(b, 14.0, 128)
    lhs = np.sum(rule_b.weights * (sf(rule_b.nodes) * g(rule_b.nodes) + sf(-rule_b.nodes) * g(-rule_b.nodes)))
    base = jacobi_rule(0.0, 2.0 * a + 1.0, 128)  # radial_rule(a, 14.0, 128), which rejects the classical a = -1/2
    nodes, weights = base.nodes * 14.0, base.weights * 14.0 ** (2.0 * a + 2.0)
    tsg, tsg_neg = np.split(sonine.dual_sonine_grid(pair, g, np.concatenate([nodes, -nodes]), u_max=400.0), 2)
    rhs = np.sum(weights * (f(nodes) * tsg + f(-nodes) * tsg_neg))
    return _sides(p, lhs, rhs, lambda lhs, rhs: max_errs(rhs, lhs))


def _sonine_product_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    pair, xs = SoninePair.of(p["alpha"], p["beta"]), np.array([0.3, 1.0, 2.5])
    sides = [(sonine.sonine_apply(pair, KernelFunction(p["alpha"], lam), xs), KernelFunction(p["beta"], lam)(xs))
             for lam in (1.0, 2j)]
    # Python's abs per element: np.abs over the arrays rounds some ratios differently
    return worst_errs([abs(g - w) / abs(w) for got, want in sides for g, w in zip(got, want)])


def _sonine_route_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    """Direct diagonal against the composition route, once per pair: the
    monomial row before it records the error too."""

    def spread() -> tuple[float, float]:
        pair = SoninePair.of(p["alpha"], p["beta"])
        poly = PolyFunction(np.random.default_rng(11).standard_normal(21))
        direct = sonine.sonine_apply(pair, poly)
        routed = sonine.sonine_via_intertwiners(pair, poly)
        err = float(np.max(np.abs(direct.coeffs - routed.coeffs)) / np.max(np.abs(direct.coeffs)))
        return err, err

    return ctx._once(("sonine-routes", p["alpha"], p["beta"]), spread)


def _sonine_monomial_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    """Monomial law; the params carry the error of the route check that
    follows, so each report shows both."""
    p["route_err"] = _sonine_route_spread(ctx, p)[1]
    pair = SoninePair.of(p["alpha"], p["beta"])
    wants = [b_coeff(n, p["alpha"]) / b_coeff(n, p["beta"]) for n in range(0, 21)]
    gots = [sonine.sonine_apply(pair, PolyFunction.monomial(n), 1.3) / 1.3**n for n in range(0, 21)]
    return worst_errs([abs(got - want) / abs(want) for got, want in zip(gots, wants)])


def _translation_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    def err(lam: complex, x: float, y: float) -> float:
        kf = KernelFunction(p["alpha"], lam)
        got = core.translation(p["alpha"], kf, x, y)
        want = kf(x) * kf(y)
        return abs(got - want) / max(abs(want), 1e-300)

    points = ((0.7, -1.1), (0.0, 0.9), (1.3, 1.3), (-0.4, 2.0))
    return worst_errs([err(lam, x, y) for lam in (1.2, 1.5j) for (x, y) in points])


def _convolution_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    a = p["alpha"]
    f = gaussian()
    g = PolyGaussian(PolyFunction(np.array([1.0, 0.5])), 1.0)
    errs = []
    for x in (0.0, 0.8, -1.5):
        fg = core.convolution(a, f, g, x)
        gf = core.convolution(a, g, f, x)
        errs.append(abs(fg - gf) / max(abs(fg), 1e-300))
    closed = math.gamma(a + 1.0) * 2.0 ** (-(a + 1.0)) * np.exp(-0.8**2 / 2.0)
    errs.append(abs(core.convolution(a, f, f, 0.8) - closed) / closed)
    return worst_errs(errs)


def _gaussian_oracle(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    plan = ctx.plan(p["alpha"])
    mask = np.abs(plan.lambda_nodes) <= 8.0
    spec = transform.forward(plan, plan.sample(lambda x: np.exp(-(x**2))))
    want = math.gamma(p["alpha"] + 1.0) * np.exp(-plan.lambda_nodes[mask] ** 2 / 4.0)
    sup = float(np.max(np.abs(spec.values[mask] - want)))
    return sup, sup, f"sup over |lambda| <= 8 ({int(mask.sum())} nodes)"


def _transform_derivative(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    plan = ctx.plan(p["alpha"])
    mask = np.abs(plan.lambda_nodes) <= 8.0
    f = monomial_gaussian(1)
    lf = core.dunkl_operator(p["alpha"], f)
    spec_f = transform.forward(plan, plan.sample(f))
    spec_lf = transform.forward(plan, plan.sample(lf))
    errs = max_errs(1j * plan.lambda_nodes[mask] * spec_f.values[mask], spec_lf.values[mask])
    return (*errs, f"|lambda| <= 8 ({int(mask.sum())} nodes)")


_PLANCHEREL_INPUTS = {"exp(-x^2)": lambda x: np.exp(-(x**2)), "x*exp(-x^2)": lambda x: x * np.exp(-(x**2))}


def _plancherel(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    plan = ctx.plan(p["alpha"])
    lhs, rhs = transform.plancherel_sides(plan, plan.sample(_PLANCHEREL_INPUTS[p["input"]]))
    return (*_sides(p, lhs, rhs), f"x-rule {plan.x_nodes.size} nodes, lambda-rule {plan.lambda_nodes.size} nodes")


def _decomposition_errs(pair: SoninePair, plan_a, plan_b, g, mask: np.ndarray) -> tuple[float, float]:
    # the points are beta-plan nodes, so the beta side is read off its grid transform
    beta_side = transform.forward(plan_b, plan_b.sample(g)).values[mask]
    ts_vals = sonine.dual_sonine_grid(pair, g, plan_a.x_nodes, u_max=500.0)
    return max_errs(beta_side, transform.forward_fn(plan_a, ts_vals)(plan_b.lambda_nodes[mask]))


_SMOOTH_INPUTS = {"exp(-x^2)": gaussian, "x*exp(-x^2)": lambda: monomial_gaussian(1)}


def _decomposition(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    plan_b = ctx.plan(p["beta"])
    mask = np.abs(plan_b.lambda_nodes) <= 8.0
    pair = SoninePair.of(p["alpha"], p["beta"])
    errs = _decomposition_errs(pair, ctx.plan(p["alpha"]), plan_b, _SMOOTH_INPUTS[p["input"]](), mask)
    return (*errs, f"|lambda| <= 8 ({int(mask.sum())} nodes)")


def _power_weight(ctx: RunContext, p: dict, fraction: Optional[float] = None) -> tuple[float, float, str]:
    """The pairing identity for the weighted power: on a Gaussian at lam =
    fraction times the strip edge -(2 alpha + 2), or without a fraction at
    the row's lam on the degenerate probe.  That probe is even with
    vanishing matching residue, and its slow decay keeps its spectrum
    narrow, so the high-power pairing weight never amplifies transform-tail
    noise.  In the degenerate case both sides vanish, and the error is the
    left side's absolute size."""
    if fraction is None:
        phi = PolyGaussian(PolyFunction.monomial(4), 0.5)
    else:
        phi = gaussian()
        p["lam"] = fraction * -(2.0 * p["alpha"] + 2.0)
    plan = ctx.plan(p["alpha"])
    lhs, rhs, degenerate = fractional.power_weight_identity(p["alpha"], p["lam"], phi, plan)
    p["degenerate"] = degenerate
    errs = _sides(p, lhs, rhs, (lambda lhs, rhs: (abs(lhs), abs(lhs))) if degenerate else pair_errs)
    return (*errs, f"pairing taylor_order={fractional.TAYLOR_ORDER}, plan x-rule {plan.x_nodes.size}")


def _cross_route_spread(ctx: RunContext, p: dict) -> tuple[float, float]:
    plan = ctx.plan(p["alpha"])
    f_grid = plan.sample(lambda x: np.exp(-(x**2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mult = transform.apply_multiplier_fn(plan, f_grid, transform.MultiplierSpec(2.0 * p["lam"], 1.0))

    def err(x: float) -> float:
        km = float(np.real(mult(np.asarray([x]))[0]))
        return abs(km - fractional.frac_power_kernel(p["alpha"], p["lam"], gaussian(), x)) / abs(km)

    return worst_errs([err(x) for x in (0.0, 1.0, 2.2)])


# The pipeline rows call the lizorkin checks through the module, so that a
# wrapper bound there sees every call.
def _inversion(ctx: RunContext, p: dict, order: str) -> tuple[float, float, str]:
    # s-k1-ts and k2-s-ts reconstruct a beta-witness, the other two an alpha-witness
    a, b = p["alpha"], p["beta"]
    witness = ctx.witness(b if order in ("s-k1-ts", "k2-s-ts") else a, p["m"])
    return lizorkin.inversion_check(*ctx.pipeline(a, b), witness, order)


def _commutation(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    witness = ctx.witness(p["beta"], p["m"])
    return lizorkin.multiplier_commutation_check(*ctx.pipeline(p["alpha"], p["beta"]), witness)


def _plancherel_dual(ctx: RunContext, p: dict) -> tuple[float, float, str]:
    pair, plan_a, plan_b = ctx.pipeline(p["alpha"], p["beta"])
    lhs, rhs = lizorkin.plancherel_dual_check(pair, plan_a, plan_b, ctx.witness(p["beta"], p["m"]))
    return (*_sides(p, lhs, rhs), f"x-rules {plan_a.x_nodes.size}/{plan_b.x_nodes.size}")


_XG = {"input": "x*exp(-x^2)"}

SUITES: dict[str, Suite] = {
    "kernel-consistency": Suite(lambda config: [{"alpha": a} for a in (-0.4, 0.0, 0.5, 1.5, 2.7)], (
        Row("kernel-consistency", f"{len(_KERNEL_ARGS)} arguments, 3 evaluation modes", _kernel_spread),
    )),
    "transmutation": Suite(RunConfig.orders, (
        Row("transmutation-exact", "polynomial coefficients", _transmutation_exact, {"degree": 20}),
        Row("transmutation-smooth", f"{_SMOOTH_GRID.size}-point grid", _transmutation_smooth, _XG),
    )),
    # the intertwiner V_alpha = S_{-1/2,alpha} at each order first, then the pairs
    "duality": Suite(lambda config: config.orders() + config.pairs(), (
        Row("duality", "independent weighted quadratures", _sonine_duality, {"pair": "x^2, exp(-x^2)"}),
    )),
    "sonine-product": Suite(RunConfig.pairs, (
        Row("sonine-product", "lam in {1, 2i}, x in {0.3, 1, 2.5}", _sonine_product_spread),
    )),
    "sonine-monomial": Suite(RunConfig.pairs, (
        Row("sonine-monomial", "monomials n <= 20", _sonine_monomial_spread),
        Row("sonine-routes", "random degree-20 polynomial", _sonine_route_spread),
    )),
    "translation-product": Suite(RunConfig.orders, (
        Row("translation-product", "kernel eigenfunctions, 4 point pairs, 2 frequencies", _translation_spread),
    )),
    "convolution": Suite(RunConfig.orders, (
        Row("convolution", "commutativity at 3 points + gaussian closed form", _convolution_spread),
    )),
    "transform-oracles": Suite(RunConfig.orders, (
        Row("transform-oracles", None, _gaussian_oracle, {"oracle": "gaussian"}),
        Row("transform-derivative", None, _transform_derivative, _XG),
    )),
    "plancherel-classic": Suite(RunConfig.orders, tuple(
        Row("plancherel-classic", None, _plancherel, {"input": name}) for name in _PLANCHEREL_INPUTS
    )),
    "decomposition": Suite(RunConfig.pairs, tuple(
        Row("decomposition", None, _decomposition, {"input": name}) for name in _SMOOTH_INPUTS
    )),
    "power-weight-transform": Suite(RunConfig.orders, (
        *(Row("power-weight-transform", None, partial(_power_weight, fraction=f)) for f in (0.35, 0.6, 0.85)),
        Row("power-weight-degenerate", None, _power_weight, {"lam": 2.0}),
    )),
    "fractional-cross-route": Suite(lambda config: [{"alpha": a, "lam": lam} for a in (0.5, 1.5) for lam in (-0.3, -0.5)], (
        Row("fractional-cross-route", "x in {0, 1, 2.2}", _cross_route_spread),
    )),
    **{
        f"inversion-{order}": Suite(lambda config: config.pipelines(0, 1), (
            Row(f"inversion-{order}", None, partial(_inversion, order=order), {"flat": lizorkin.DEFAULT_FLAT}),
        ))
        for order in lizorkin.INVERSION_ORDERS
    },
    "multiplier-commutation": Suite(lambda config: config.pipelines(0), (
        Row("multiplier-commutation", None, _commutation),
    )),
    "plancherel-dual": Suite(lambda config: config.pipelines(0), (
        Row("plancherel-dual", None, _plancherel_dual),
    )),
}

#: a module name for the duality suite, which the benchmark's tracer test binds
suite_duality = SUITES["duality"]


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
            raise ValueError(f"unknown suite {n!r}; available: {', '.join(SUITES)}")
    ctx = RunContext(config)
    reports = [r for n in SUITES if n in requested for r in SUITES[n](config, ctx)]
    for r in reports:
        r.params["tol"] = config.tol(r.name)
    return reports
