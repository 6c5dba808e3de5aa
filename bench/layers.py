"""Which dunkl functions are timed, and the per-layer metrics made from them.

Layers are dunkl's modules.  ``functions``, ``cli`` and ``report`` get no
metric of their own: their cost lands in their callers' self time or in
``suites.other.s``.
"""

from __future__ import annotations

import numpy as np

from tracing import Target, Tracer, value_digest

#: Set-up work: the public builders, timed in every run (outermost calls only).
BUILDERS = frozenset({"transform.build_plan", "lizorkin.witness_plan", "lizorkin.make_witness", "transform.jnorm_table"})

SUITE_NAMES = (
    "kernel-consistency", "transmutation", "duality", "sonine-product", "sonine-monomial",
    "translation-product", "convolution", "transform-oracles", "plancherel-classic",
    "decomposition", "power-weight-transform", "fractional-cross-route",
    "inversion-s-k1-ts", "inversion-ts-k2-s", "inversion-k1-ts-s", "inversion-k2-s-ts",
    "multiplier-commutation", "plancherel-dual",
)


def _points_x_nodes(fn, x, *args, **kwargs):
    return int(np.asarray(x).size) * int(fn.nodes.size)


def _size_of_second(_, arr, *args, **kwargs):
    return int(np.asarray(arr).size)


def _s_values(pos):
    def count(*args, **kwargs):
        values = kwargs["s_values"] if "s_values" in kwargs else args[pos]
        return int(np.asarray(values).size)
    return count


def _args_digest(*args, **kwargs):
    return value_digest(args, kwargs)


def _jacobi_key(a_exp, b_exp, n=64):
    return (float(a_exp), float(b_exp), int(n))


BUILDER_TARGETS = (
    Target("dunkl.transform:build_plan", "transform.build_plan"),
    Target("dunkl.transform:TransformPlan.jnorm_table", "transform.jnorm_table"),
    Target("dunkl.lizorkin:witness_plan", "lizorkin.witness_plan"),
    Target("dunkl.lizorkin:make_witness", "lizorkin.make_witness"),
)

LAYER_TARGETS = (
    *(Target(f"dunkl.transform:SpectralFunction.{m}", "transform.synthesis", work=_points_x_nodes)
      for m in ("__call__", "even_part", "odd_quotient", "derivative")),
    Target("dunkl.transform:kernel_unitary", "transform.kernel_unitary", work=_size_of_second),
    Target("dunkl.transform:forward_at", "transform.forward_at"),
    Target("dunkl.transform:forward", "transform.forward"),
    Target("dunkl.transform:inverse", "transform.inverse"),
    Target("dunkl.transform:apply_multiplier_fn", "transform.apply_multiplier_fn"),
    Target("dunkl.quadrature:weyl_integral", "quadrature.weyl_integral", work=_s_values(2)),
    Target("dunkl.quadrature:riemann_liouville_integral", "quadrature.riemann_liouville_integral", work=_s_values(3)),
    Target("dunkl.quadrature:jacobi_rule", "quadrature.jacobi_rule", key=_jacobi_key),
    Target("dunkl.quadrature:homogeneous_pairing", "quadrature.homogeneous_pairing"),
    Target("dunkl.sonine:dual_sonine_grid", "sonine.dual_sonine_grid", key=_args_digest),
    Target("dunkl.sonine:sonine_grid", "sonine.sonine_grid", key=_args_digest),
    Target("dunkl.sonine:sonine_apply", "sonine.sonine_apply"),
    Target("dunkl.sonine:dual_sonine_apply", "sonine.dual_sonine_apply"),
    Target("dunkl.lizorkin:inversion_check", "lizorkin.inversion_check"),
    Target("dunkl.lizorkin:multiplier_commutation_check", "lizorkin.multiplier_commutation_check"),
    Target("dunkl.lizorkin:plancherel_dual_check", "lizorkin.plancherel_dual_check"),
    Target("dunkl.core:dunkl_kernel", "core.dunkl_kernel"),
    Target("dunkl.core:translation", "core.translation"),
    Target("dunkl.special:bessel_mod_array", "special.bessel_mod_array", work=_size_of_second),
    Target("dunkl.fractional:power_weight_identity", "fractional.power_weight_identity"),
    Target("dunkl.fractional:frac_power_kernel", "fractional.frac_power_kernel"),
    *(Target(f"dunkl.suites:SUITES[{name}]", f"suites.{name}") for name in SUITE_NAMES),
)

# (metric, unit, better, how it is read from the totals)
_S = ("s", "lower")
_COUNT = ("count", "lower")


METRICS = [
    ("transform.synthesis.s", *_S, ("transform.synthesis", "self_s")),
    ("transform.synthesis.evals", *_COUNT, ("transform.synthesis", "work")),
    ("transform.synthesis.ns_per_eval", "ns", "lower", ("transform.synthesis", "self_ns_per_work")),
    ("transform.jnorm_table.s", *_S, ("transform.jnorm_table", "s")),
    ("transform.build_plan.s", *_S, ("transform.build_plan", "s")),
    ("transform.build_plan.calls", *_COUNT, ("transform.build_plan", "calls")),
    ("transform.kernel_unitary.evals", *_COUNT, ("transform.kernel_unitary", "work")),
    ("transform.kernel_unitary.ns_per_eval", "ns", "lower", ("transform.kernel_unitary", "ns_per_work")),
    ("transform.forward_at.s", *_S, ("transform.forward_at", "s")),
    ("transform.forward.s", *_S, ("transform.forward", "s")),
    ("transform.inverse.s", *_S, ("transform.inverse", "s")),
    ("transform.apply_multiplier_fn.s", *_S, ("transform.apply_multiplier_fn", "s")),
    ("quadrature.weyl_integral.self_s", *_S, ("quadrature.weyl_integral", "self_s")),
    ("quadrature.weyl_integral.points", *_COUNT, ("quadrature.weyl_integral", "work")),
    ("quadrature.riemann_liouville_integral.self_s", *_S, ("quadrature.riemann_liouville_integral", "self_s")),
    ("quadrature.riemann_liouville_integral.points", *_COUNT, ("quadrature.riemann_liouville_integral", "work")),
    ("quadrature.jacobi_rule.s", *_S, ("quadrature.jacobi_rule", "s")),
    ("quadrature.jacobi_rule.calls", *_COUNT, ("quadrature.jacobi_rule", "calls")),
    ("quadrature.jacobi_rule.distinct_ratio", "ratio", "higher", ("quadrature.jacobi_rule", "distinct")),
    ("quadrature.homogeneous_pairing.self_s", *_S, ("quadrature.homogeneous_pairing", "self_s")),
    ("sonine.dual_sonine_grid.s", *_S, ("sonine.dual_sonine_grid", "s")),
    ("sonine.dual_sonine_grid.calls", *_COUNT, ("sonine.dual_sonine_grid", "calls")),
    ("sonine.dual_sonine_grid.distinct_ratio", "ratio", "higher", ("sonine.dual_sonine_grid", "distinct")),
    ("sonine.sonine_grid.s", *_S, ("sonine.sonine_grid", "s")),
    ("sonine.sonine_grid.calls", *_COUNT, ("sonine.sonine_grid", "calls")),
    ("sonine.sonine_grid.distinct_ratio", "ratio", "higher", ("sonine.sonine_grid", "distinct")),
    ("sonine.sonine_apply.s", *_S, ("sonine.sonine_apply", "s")),
    ("sonine.dual_sonine_apply.s", *_S, ("sonine.dual_sonine_apply", "s")),
    ("lizorkin.inversion_check.s", *_S, ("lizorkin.inversion_check", "s")),
    ("lizorkin.multiplier_commutation_check.s", *_S, ("lizorkin.multiplier_commutation_check", "s")),
    ("lizorkin.plancherel_dual_check.s", *_S, ("lizorkin.plancherel_dual_check", "s")),
    ("lizorkin.witness_build.s", *_S, (("lizorkin.witness_plan", "lizorkin.make_witness"), "s")),
    ("core.dunkl_kernel.s", *_S, ("core.dunkl_kernel", "s")),
    ("core.dunkl_kernel.calls", *_COUNT, ("core.dunkl_kernel", "calls")),
    ("core.translation.s", *_S, ("core.translation", "s")),
    ("core.translation.calls", *_COUNT, ("core.translation", "calls")),
    ("special.bessel_mod_array.evals", *_COUNT, ("special.bessel_mod_array", "work")),
    ("special.bessel_mod_array.ns_per_eval", "ns", "lower", ("special.bessel_mod_array", "ns_per_work")),
    ("fractional.power_weight_identity.s", *_S, ("fractional.power_weight_identity", "s")),
    ("fractional.frac_power_kernel.s", *_S, ("fractional.frac_power_kernel", "s")),
    *((f"suites.{name}.s", *_S, (f"suites.{name}", "s")) for name in SUITE_NAMES),
    ("suites.other.s", *_S, (None, "other")),
]


def per_layer_metrics(tracer: Tracer, run_seconds: float) -> dict:
    """Every per-layer metric from a traced run's spans.

    ``run_seconds`` is the traced run's time after import; ``suites.other.s``
    is what the suite spans leave of it.  A ratio over zero work reads 0.
    """
    totals = tracer.totals()
    empty = {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0}
    suites_s = sum(totals.get(f"suites.{n}", empty)["s"] for n in SUITE_NAMES)
    out = {}
    for metric, unit, _, (names, field) in METRICS:
        if field == "other":
            value = run_seconds - suites_s
        elif isinstance(names, tuple):
            value = sum(totals.get(n, empty)[field] for n in names)
        else:
            t = totals.get(names, empty)
            if field == "distinct":
                value = tracer.distinct_ratio(names)
            elif field == "ns_per_work":
                value = t["s"] * 1e9 / t["work"] if t["work"] else 0.0
            elif field == "self_ns_per_work":
                value = t["self_s"] * 1e9 / t["work"] if t["work"] else 0.0
            else:
                value = t[field]
        out[metric] = {"value": value, "unit": unit}
    return out
