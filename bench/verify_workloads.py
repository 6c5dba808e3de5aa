"""The two verify workloads: ``dunkl verify`` over a documented split of
the 18 suites, checked against the sweep, tolerances and closed forms
written down here rather than against a copy of earlier output."""

from __future__ import annotations

import json
import math
from pathlib import Path

PIPELINE_SUITES = (
    "inversion-s-k1-ts", "inversion-ts-k2-s", "inversion-k1-ts-s", "inversion-k2-s-ts",
    "multiplier-commutation", "plancherel-dual",
)
GRID_SUITES = (
    "kernel-consistency", "transmutation", "duality", "sonine-product", "sonine-monomial",
    "translation-product", "convolution", "transform-oracles", "plancherel-classic",
    "decomposition", "power-weight-transform", "fractional-cross-route",
)

#: The documented default tolerances, by tolerance key.
TOLERANCES = {
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

# The documented sweep: light suites on alpha in ORDERS with beta = alpha +
# BETA_OFFSETS, the witness pipelines on PIPELINE_PAIRS with m in {0, 1}.
ORDERS = (-0.25, 0.0, 0.5, 1.5)
BETA_OFFSETS = (0.5, 1.0, 2.0)
PAIRS = tuple((a, a + d) for a in ORDERS for d in BETA_OFFSETS)
PIPELINE_PAIRS = ((0.0, 0.5), (0.5, 1.5), (0.0, 2.0))
KERNEL_ORDERS = (-0.4, 0.0, 0.5, 1.5, 2.7)
FLAT = 64.0


def tolerance_key(name: str) -> str:
    return "inversion" if name.startswith("inversion-") else name


def _suite_sweep(suite: str) -> list:
    """(report name, identifying params) in run order for one suite."""
    xg = "x*exp(-x^2)"
    if suite == "kernel-consistency":
        return [(suite, {"alpha": a}) for a in KERNEL_ORDERS]
    if suite == "transmutation":
        return [row for a in ORDERS for row in (
            ("transmutation-exact", {"alpha": a, "degree": 20}),
            ("transmutation-smooth", {"alpha": a, "input": xg}))]
    if suite == "duality":
        pair = "x^2, exp(-x^2)"
        return ([("duality", {"alpha": a, "pair": pair}) for a in ORDERS]
                + [("duality", {"alpha": a, "beta": b, "pair": pair}) for a, b in PAIRS])
    if suite == "sonine-product":
        return [(suite, {"alpha": a, "beta": b}) for a, b in PAIRS]
    if suite == "sonine-monomial":
        return [row for a, b in PAIRS for row in (
            ("sonine-monomial", {"alpha": a, "beta": b}), ("sonine-routes", {"alpha": a, "beta": b}))]
    if suite in ("translation-product", "convolution"):
        return [(suite, {"alpha": a}) for a in ORDERS]
    if suite == "transform-oracles":
        return [row for a in ORDERS for row in (
            ("transform-oracles", {"alpha": a, "oracle": "gaussian"}),
            ("transform-derivative", {"alpha": a, "input": xg}))]
    if suite == "plancherel-classic":
        return [(suite, {"alpha": a, "input": i}) for a in ORDERS for i in ("exp(-x^2)", xg)]
    if suite == "decomposition":
        return [(suite, {"alpha": a, "beta": b, "input": i}) for a, b in PAIRS for i in ("exp(-x^2)", xg)]
    if suite == "power-weight-transform":
        rows = []
        for a in ORDERS:
            strip = -(2.0 * a + 2.0)
            rows += [("power-weight-transform", {"alpha": a, "lam": f * strip}) for f in (0.35, 0.6, 0.85)]
            rows.append(("power-weight-degenerate", {"alpha": a, "lam": 2.0}))
        return rows
    if suite == "fractional-cross-route":
        return [(suite, {"alpha": a, "lam": lam}) for a in (0.5, 1.5) for lam in (-0.3, -0.5)]
    if suite.startswith("inversion-"):
        return [(suite, {"alpha": a, "beta": b, "m": m, "flat": FLAT}) for a, b in PIPELINE_PAIRS for m in (0, 1)]
    if suite in ("multiplier-commutation", "plancherel-dual"):
        return [(suite, {"alpha": a, "beta": b, "m": 0}) for a, b in PIPELINE_PAIRS]
    raise KeyError(suite)


def expected_sweep(suites) -> list:
    return [row for suite in suites for row in _suite_sweep(suite)]


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    return a == b


def closed_form_lhs(name: str, params: dict):
    """The lhs a report carries where it has a closed form, else None:
    <V x^2, exp(-x^2)> = Gamma(a+1)/2, and the weighted norms
    ||exp(-x^2)||^2 = Gamma(a+1)/2^(a+1), ||x exp(-x^2)||^2 = Gamma(a+2)/2^(a+2)."""
    a = params["alpha"]
    if name == "duality" and "beta" not in params:
        return math.gamma(a + 1.0) / 2.0
    if name == "plancherel-classic":
        if params["input"] == "exp(-x^2)":
            return math.gamma(a + 1.0) / 2.0 ** (a + 1.0)
        return math.gamma(a + 2.0) / 2.0 ** (a + 2.0)
    return None


def check_reports(reports: list, suites) -> tuple[list, list]:
    """Problems found, and the relative errors of every checked output."""
    problems, errors = [], []
    expected = expected_sweep(suites)
    if len(reports) != len(expected):
        problems.append(f"{len(reports)} checks, documented sweep has {len(expected)}")
    for i, (report, (name, params)) in enumerate(zip(reports, expected)):
        got = report["params"]
        if report["name"] != name or any(not _same(got.get(k), v) for k, v in params.items()):
            problems.append(f"check {i}: {report['name']} {got} is not {name} {params}")
            continue
        tol = TOLERANCES[tolerance_key(name)]
        if got.get("tol") != tol:
            problems.append(f"check {i}: {name} records tol {got.get('tol')}, documented {tol}")
        err = report["max_rel_err"]
        errors.append(err)
        if not err <= tol:
            problems.append(f"check {i}: {name} {params} error {err:.3e} over {tol}")
        want = closed_form_lhs(name, got)
        if want is not None:
            rel = abs(got["lhs"] - want) / abs(want)
            errors.append(rel)
            if not rel <= tol:
                problems.append(f"check {i}: {name} {params} lhs {got['lhs']!r} is not the closed form {want!r}")
    return problems, errors


def run_verify(cli_main, suites, out_path: Path) -> tuple[int, list]:
    """``dunkl verify`` in this process."""
    out_path.unlink(missing_ok=True)
    code = cli_main(["verify", "--suites", ",".join(suites), "--out", str(out_path)])
    reports = json.loads(out_path.read_text()) if out_path.exists() else []
    return code, reports
