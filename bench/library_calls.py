"""The library-calls workload: one client in a closed loop making short
calls into dunkl's public API on plans and witnesses built in set-up.

Every round makes the same 100 calls in the same order; only their seeded
arguments change.  Each of the 15 seeded operations is called once at each
light-suite order (the multiplier only where a suite applies one), and once
per argument family where the workload names several (the kernel routes on
real, complex and imaginary z; the three synthesis methods): 83 seeded
calls.  Then come 17 fixed
oscillatory-axis kernel probes that fail on every run (see README).  The calls of a round run back to
back, and their results are checked afterwards against references computed
with mpmath or closed forms, each at the tolerance of the suite that covers
the same route.  The call percentiles are taken over the seeded calls only.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import references as ref
from verify_workloads import BETA_OFFSETS, ORDERS, TOLERANCES

#: Enough seeded calls that at least ten lie beyond the 99th percentile.
MIN_CALLS = 1000

#: Half-size of the multiplier's spectral rule.  The plan's default (256)
#: makes each call take about 0.3 s; 32 reaches the same error (1e-11 of
#: the peak) in about 40 ms.
MULTIPLIER_N_HALF = 32

#: Fixed probes on the imaginary axis, beyond the radius where the kernel
#: series cancels catastrophically (|z| of about 17).
PROBE_AUTO = (20j, 59j)
PROBE_BESSEL = 40j
PROBE_KERNEL_POINTS = np.array([20.0, 30.0, 40.0, 59.0])
#: The compact-integral route loses relative accuracy on this axis at 1.5.
PROBE_BOCHNER = (1.5, 40j)

#: Orders at which ``forward`` runs on a witness instead of a Gaussian.
WITNESS_ORDERS = (0.0, 0.5)
#: The suite orders at which a suite applies a multiplier (no suite does so
#: at -0.25).
MULTIPLIER_ORDERS = (0.0, 0.5, 1.5)
#: Families of kernel arguments: real, complex and imaginary z.
Z_FAMILIES = ("real", "complex", "imaginary")

# intervals the seeded points are drawn from, where the peak scales are taken
_BAND = np.linspace(-8.0, 8.0, 1601)
_SPAN = np.linspace(-4.0, 4.0, 1601)
_MULT_SPAN = np.linspace(0.0, 2.5, 26)


@dataclass
class Op:
    """One call, its reference, and the scale its error is taken against:
    by default the largest reference value among the call's points, or, for
    calls sampling a function over an interval, the function's peak there,
    as in the suites' checks (points all in a Gaussian's tail would
    otherwise turn rounding error into a large relative error)."""

    kind: str
    call: Callable[[], object]
    reference: Callable[[], object]
    tol: float
    probe: bool = False
    scale: Optional[Callable[[], float]] = None


@dataclass
class Setup:
    plans: dict
    witnesses: dict  # (alpha, m) -> LizorkinWitness, alpha in WITNESS_ORDERS


def build_setup(dunkl) -> Setup:
    """Plans at the light-suite orders with their synthesis tables, and the
    witnesses (m = 0, 1) at the orders of the (0, 0.5) pipeline pair."""
    transform, lizorkin = dunkl.transform, dunkl.lizorkin
    plans = {a: transform.build_plan(a) for a in ORDERS}
    for plan in plans.values():
        plan.jnorm_table(0)
        plan.jnorm_table(1)
    witnesses = {}
    for a in WITNESS_ORDERS:
        wplan = lizorkin.witness_plan(a)
        witnesses.update({(a, m): lizorkin.make_witness(a, wplan, m=m) for m in (0, 1)})
    warnings.filterwarnings("ignore", message="negative multiplier exponent")
    return Setup(plans=plans, witnesses=witnesses)


def _kernel_arg(rng, family: str) -> complex:
    """An argument of the given family, |z| <= 60 with |Im z| <= 10, where
    every route is accurate to the kernel tolerance."""
    if family == "real":
        return complex(rng.uniform(-60.0, 60.0))
    im = rng.uniform(-10.0, 10.0)
    if family == "complex":
        return complex(rng.uniform(-1.0, 1.0) * np.sqrt(3600.0 - im * im), im)
    return complex(0.0, im)


def _lam(rng, bound: float) -> complex:
    """A real or imaginary spectral parameter, |lam| <= bound."""
    return complex(rng.uniform(-bound, bound)) * (1j if rng.integers(2) else 1.0)


def _gauss(r: float, odd: bool):
    return (lambda x: x * np.exp(-r * x * x)) if odd else (lambda x: np.exp(-r * x * x))


def _spectrum(a: float, r: float, odd: bool, lams) -> np.ndarray:
    return (ref.odd_gaussian_transform if odd else ref.gaussian_transform)(a, r, lams)


def _witness_profile(lams, m: int, flat: float) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    out = np.zeros_like(lams)
    nz = lams != 0.0
    out[nz] = lams[nz] ** m * np.exp(-lams[nz] ** 2 - flat / lams[nz] ** 2)
    return out / np.max(np.abs(out))


def make_round(dunkl, setup: Setup, rng) -> list:
    """The seeded calls (see the module docstring), then the fixed probes."""
    core, functions, sonine, transform = dunkl.core, dunkl.functions, dunkl.sonine, dunkl.transform
    gaussian, KernelFunction, SoninePair = functions.gaussian, functions.KernelFunction, sonine.SoninePair
    tol = TOLERANCES
    ops = []

    def add(kind, call, reference, tol_key, probe=False, scale=None):
        ops.append(Op(kind, call, reference, tol[tol_key], probe, scale))

    def pair_at(a):
        b = a + BETA_OFFSETS[int(rng.integers(len(BETA_OFFSETS)))]
        return b, SoninePair.of(a, b)

    # kernel routes
    for a in ORDERS:
        for family in Z_FAMILIES:
            z = _kernel_arg(rng, family)
            add("dunkl_kernel.auto", lambda a=a, z=z: core.dunkl_kernel(a, z), lambda a=a, z=z: ref.kernel(a, z),
                "kernel-consistency")
    for a in ORDERS:
        for family in Z_FAMILIES:
            z = _kernel_arg(rng, family)
            add("dunkl_kernel.bochner", lambda a=a, z=z: core.dunkl_kernel(a, z, "bochner"),
            lambda a=a, z=z: ref.kernel(a, z), "kernel-consistency")
    for a in ORDERS:
        lam, x = _lam(rng, 3.0), rng.uniform(-3.0, 3.0, int(rng.integers(4, 65)))
        add("KernelFunction", lambda a=a, lam=lam, x=x: KernelFunction(a, lam)(x),
            lambda a=a, lam=lam, x=x: [ref.kernel(a, lam * v) for v in x], "kernel-consistency")

    # transform plans: even and odd Gaussians, whose transforms are closed
    # forms, and at the pipeline orders the witnesses
    for a in ORDERS:
        if a in WITNESS_ORDERS:
            w = setup.witnesses[(a, int(rng.integers(2)))]
            add("forward", lambda w=w: transform.forward(w.plan, w.values).values,
                lambda w=w: _witness_profile(w.plan.lambda_nodes, w.m, w.flat), "transform-oracles")
            continue
        plan, r, odd = setup.plans[a], rng.uniform(0.5, 2.0), bool(rng.integers(2))
        band = np.abs(plan.lambda_nodes) <= 8.0
        add("forward", lambda plan=plan, f=_gauss(r, odd), band=band: transform.forward(plan, plan.sample(f)).values[band],
            lambda a=a, r=r, odd=odd, lams=plan.lambda_nodes[band]: _spectrum(a, r, odd, lams), "transform-oracles")
    for a in ORDERS:
        plan, r, odd = setup.plans[a], rng.uniform(0.5, 2.0), bool(rng.integers(2))
        spectrum = _spectrum(a, r, odd, plan.lambda_nodes)
        add("inverse", lambda plan=plan, s=spectrum: transform.inverse(plan, s).values,
            lambda plan=plan, f=_gauss(r, odd): f(plan.x_nodes), "transform-oracles")
    for a in ORDERS:
        plan, r, odd = setup.plans[a], rng.uniform(0.5, 2.0), bool(rng.integers(2))
        lams = rng.uniform(-8.0, 8.0, int(rng.integers(4, 33)))
        samples = _gauss(r, odd)(plan.x_nodes)
        add("forward_at", lambda plan=plan, s=samples, lams=lams: transform.forward_at(plan, s, lams),
            lambda a=a, r=r, odd=odd, lams=lams: _spectrum(a, r, odd, lams), "transform-oracles",
            scale=lambda a=a, r=r, odd=odd: np.max(np.abs(_spectrum(a, r, odd, _BAND))))

    # synthesis on fresh SpectralFunction objects of c0 exp(-r x^2) + c1 x exp(-r x^2)
    for method in ("__call__", "even_part", "odd_quotient"):
        for a in ORDERS:
            plan, r = setup.plans[a], rng.uniform(0.5, 2.0)
            c0, c1 = rng.uniform(0.5, 1.5, 2)
            spectrum = c0 * _spectrum(a, r, False, plan.lambda_nodes) + c1 * _spectrum(a, r, True, plan.lambda_nodes)
            x = rng.uniform(-4.0, 4.0, int(rng.integers(4, 301)))
            want = {"__call__": lambda v, c0=c0, c1=c1, r=r: (c0 + c1 * v) * np.exp(-r * v * v),
                    "even_part": lambda v, c0=c0, r=r: c0 * np.exp(-r * v * v),
                    "odd_quotient": lambda v, c1=c1, r=r: c1 * np.exp(-r * v * v)}[method]
            add(f"SpectralFunction.{method}",
                lambda plan=plan, s=spectrum, x=x, m=method:
                    getattr(transform.SpectralFunction.from_spectrum(plan, s), m)(x),
                lambda want=want, x=x: want(x), "transform-oracles",
                scale=lambda want=want: np.max(np.abs(want(_SPAN))))

    # spectral multipliers at the exponents of the fractional and commutation
    # suites, on a MULTIPLIER_N_HALF rule
    for a in MULTIPLIER_ORDERS:
        plan, r = setup.plans[a], rng.uniform(0.5, 2.0)
        sigma = rng.uniform(-1.0, -0.6) if rng.uniform() < 0.5 else rng.uniform(1.0, 4.0)
        x = np.sort(rng.uniform(0.0, 2.5, 3))
        f = _gauss(r, False)(plan.x_nodes)
        add("apply_multiplier_fn",
            lambda plan=plan, f=f, sigma=sigma, x=x: transform.apply_multiplier_fn(
                plan, f, transform.MultiplierSpec(sigma, 1.0), n_half=MULTIPLIER_N_HALF)(x),
            lambda a=a, r=r, sigma=sigma, x=x: [ref.multiplier_gaussian(a, sigma, r, v) for v in x],
            "fractional-cross-route" if sigma < 0 else "multiplier-commutation",
            scale=lambda a=a, r=r, sigma=sigma: max(abs(ref.multiplier_gaussian(a, sigma, r, v)) for v in _MULT_SPAN))

    # Sonine transforms from each order to a seeded beta of the light suites
    for a in ORDERS:
        b, pair = pair_at(a)
        x = rng.uniform(-3.0, 3.0)
        if rng.integers(2):
            lam = _lam(rng, 3.0)
            add("sonine_apply", lambda pair=pair, f=KernelFunction(a, lam), x=x: sonine.sonine_apply(pair, f, x),
                lambda b=b, lam=lam, x=x: ref.kernel(b, lam * x), "sonine-product")
        else:
            r = rng.uniform(0.5, 2.0)
            add("sonine_apply", lambda pair=pair, r=r, x=x: sonine.sonine_apply(pair, gaussian(r), x),
                lambda a=a, b=b, r=r, x=x: ref.sonine_gaussian(a, b, r, x), "sonine-product")
    for a in ORDERS:
        b, pair = pair_at(a)
        r, x = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        add("dual_sonine_apply", lambda pair=pair, r=r, x=x: sonine.dual_sonine_apply(pair, gaussian(r), x),
            lambda a=a, b=b, r=r, x=x: ref.dual_sonine_gaussian(a, b, r, x), "duality")
    for a in ORDERS:
        b, pair = pair_at(a)
        r, xs = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0, int(rng.integers(8, 33)))
        add("sonine_grid", lambda pair=pair, r=r, xs=xs: sonine.sonine_grid(pair, gaussian(r), xs),
            lambda a=a, b=b, r=r, xs=xs: [ref.sonine_gaussian(a, b, r, v) for v in xs], "sonine-product",
            scale=lambda a=a, b=b, r=r: ref.sonine_gaussian(a, b, r, 0.0))
    for a in ORDERS:
        b, pair = pair_at(a)
        r, xs = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0, int(rng.integers(8, 33)))
        add("dual_sonine_grid", lambda pair=pair, r=r, xs=xs: sonine.dual_sonine_grid(pair, gaussian(r), xs),
            lambda a=a, b=b, r=r, xs=xs: [ref.dual_sonine_gaussian(a, b, r, v) for v in xs], "duality",
            scale=lambda a=a, b=b, r=r: ref.dual_sonine_gaussian(a, b, r, 0.0))

    # translation and the intertwiners
    for a in ORDERS:
        lam, (x, y) = _lam(rng, 2.5), rng.uniform(-2.0, 2.0, 2)
        add("translation", lambda a=a, lam=lam, x=x, y=y: core.translation(a, KernelFunction(a, lam), x, y),
            lambda a=a, lam=lam, x=x, y=y: ref.kernel(a, lam * x) * ref.kernel(a, lam * y), "translation-product")
    for a in ORDERS:
        lam, x = _lam(rng, 3.0), rng.uniform(-3.0, 3.0)
        add("intertwiner_v", lambda a=a, lam=lam, x=x: core.intertwiner_v(a, lambda u: np.exp(lam * u), x),
            lambda a=a, lam=lam, x=x: ref.kernel(a, lam * x), "kernel-consistency")
    for a in ORDERS:
        r, x = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0)
        add("dual_intertwiner_v", lambda a=a, r=r, x=x: core.dual_intertwiner_v(a, gaussian(r), x),
            lambda a=a, r=r, x=x: ref.dual_intertwiner_gaussian(a, r, x), "transmutation-smooth")

    # the fixed oscillatory-axis probes
    for a in ORDERS:
        for z in PROBE_AUTO:
            add("probe.auto", lambda a=a, z=z: core.dunkl_kernel(a, z), lambda a=a, z=z: ref.kernel(a, z),
                "kernel-consistency", probe=True)
        add("probe.bessel", lambda a=a: core.dunkl_kernel(a, PROBE_BESSEL, "bessel"),
            lambda a=a: ref.kernel(a, PROBE_BESSEL), "kernel-consistency", probe=True)
        add("probe.KernelFunction", lambda a=a: KernelFunction(a, 1j)(PROBE_KERNEL_POINTS),
            lambda a=a: [ref.kernel(a, 1j * v) for v in PROBE_KERNEL_POINTS], "kernel-consistency", probe=True)
    a, z = PROBE_BOCHNER
    add("probe.bochner", lambda a=a, z=z: core.dunkl_kernel(a, z, "bochner"), lambda a=a, z=z: ref.kernel(a, z),
        "kernel-consistency", probe=True)
    return ops


def relative_error(got, want, scale: Optional[float] = None) -> float:
    """max |got - want| over ``scale``, by default max |want|."""
    got = np.atleast_1d(np.asarray(got))
    want = np.atleast_1d(np.asarray(want))
    if got.shape != want.shape:
        return float("inf")
    err = float(np.max(np.abs(got - want)) / (np.max(np.abs(want)) if scale is None else scale))
    return err if np.isfinite(err) else float("inf")


@dataclass
class Outcome:
    latencies_s: list
    round_s: list
    errors: list
    attempted: int
    failed: int
    unexpected: list
    check_s: float = 0.0


def run(dunkl, setup: Setup, seed: int, seconds: float) -> Outcome:
    """Whole rounds until ``seconds`` have passed and MIN_CALLS seeded
    calls are made."""
    out = Outcome([], [], [], 0, 0, [])
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or len(out.latencies_s) < MIN_CALLS:
        ops = make_round(dunkl, setup, np.random.default_rng([seed, k]))
        results, spent = [], 0.0
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a call that raises is a failed operation
                result = exc
            dt = time.perf_counter() - t0
            spent += dt
            if not op.probe:
                out.latencies_s.append(dt)
            results.append(result)
        out.round_s.append(spent)
        checking = time.perf_counter()
        for op, result in zip(ops, results):
            out.attempted += 1
            err = (float("inf") if isinstance(result, Exception)
                   else relative_error(result, op.reference(), op.scale() if op.scale else None))
            if err <= op.tol:
                out.errors.append(err)
                continue
            out.failed += 1
            if not op.probe:
                out.unexpected.append(f"round {k} {op.kind}: {result!r}" if isinstance(result, Exception)
                                      else f"round {k} {op.kind}: error {err:.3e} over {op.tol}")
        out.check_s += time.perf_counter() - checking
        k += 1
    return out
