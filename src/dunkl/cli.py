"""Command-line front end.

Subcommands: kernel, transform, sonine, verify, report.  Exit codes:
0 = success / all identities within tolerance, 1 = at least one identity
exceeded its tolerance, 2 = configuration or parse error (any ValueError,
the library's rejections included) or a failed plan self-test.  Output files are byte-identical across reruns of the same
configuration (timings are zeroed unless --timings is given); floats are
printed with 17 significant digits so doubles round-trip losslessly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import dunkl_kernel
from .report import IdentityReport, float_repr, reports_from_json, reports_to_csv, reports_to_json
from .sonine import SoninePair, dual_sonine_apply, sonine_apply
from .functions import gaussian
from .special import OrderParam
from .suites import DEFAULT_TOLERANCES, SUITES, RunConfig, plan_sizes, run_suites
from .transform import PlanSelfTestError, build_plan, forward, inverse


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


def _write_or_print(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(records: list[dict], fmt: str, out: str | None) -> None:
    """Write records as a JSON list, or as CSV with one column per key and
    floats in ``float_repr``."""
    if fmt == "json":
        _write_or_print(json.dumps(records, indent=2, sort_keys=True) + "\n", out)
        return
    rows = [",".join(records[0])]
    rows += [",".join(v if isinstance(v, str) else float_repr(v) for v in r.values()) for r in records]
    _write_or_print("\n".join(rows) + "\n", out)


# ---------------------------------------------------------------------------


def cmd_kernel(args) -> int:
    order = OrderParam(args.alpha)
    zs = [_parse_complex(z) for z in args.z]
    modes = ("bessel", "bochner") if args.mode == "both" else (args.mode,)
    records = []
    for z in zs:
        values = {}
        for mode in modes:
            values[mode] = dunkl_kernel(order, z, mode)
        spread = 0.0
        if len(values) > 1:
            vs = list(values.values())
            spread = max(abs(v - w) for v in vs for w in vs) / max(abs(vs[0]), 1e-300)
        for mode, val in values.items():
            records.append(
                {"z_re": z.real, "z_im": z.imag, "E_re": val.real, "E_im": val.imag, "mode": mode, "est_err": spread}
            )
    _emit(records, args.format, args.out)
    return 0


def _read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    text = Path(path).read_text().strip()
    if not text:
        raise ValueError(f"input file {path} is empty")
    lines = text.splitlines()
    start = 1 if lines[0].lstrip().lower().startswith("x") else 0
    xs, vals = [], []
    for ln, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = [p for p in line.replace(",", " ").split() if p]
        if len(parts) not in (2, 3):
            raise ValueError(f"{path}:{ln}: expected 'x,f_re[,f_im]', got {line!r}")
        try:
            x = float(parts[0])
            re = float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
        xs.append(x)
        vals.append(re + 1j * im)
    xs_arr = np.asarray(xs)
    vals_arr = np.asarray(vals)
    if xs_arr.size < 4:
        raise ValueError("need at least 4 samples")
    if np.any(np.diff(xs_arr) <= 0):
        raise ValueError("sample grid must be strictly increasing")
    if abs(xs_arr[0] + xs_arr[-1]) > 1e-12 * max(abs(xs_arr[0]), abs(xs_arr[-1])):
        raise ValueError("sample grid must be symmetric about 0")
    return xs_arr, vals_arr


def cmd_transform(args) -> int:
    order = OrderParam(args.alpha)
    xs, vals = _read_samples(args.input)
    plan = build_plan(order, **plan_sizes(args))
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(xs, vals)
    inside = np.abs(plan.x_nodes) <= xs[-1]
    samples = np.where(inside, spline(np.clip(plan.x_nodes, xs[0], xs[-1])), 0.0)
    spectrum = forward(plan, samples)
    if args.roundtrip:
        back = inverse(plan, spectrum.values)
        records = [{"x": x, "f_re": np.real(v), "f_im": np.imag(v)} for x, v in zip(plan.x_nodes, back.values)]
    else:
        records = [
            {"lambda": lam, "F_re": np.real(v), "F_im": np.imag(v)} for lam, v in zip(plan.lambda_nodes, spectrum.values)
        ]
    _emit(records, "csv", args.out)
    return 0


def cmd_sonine(args) -> int:
    pair = SoninePair(OrderParam(args.alpha), args.beta)
    if not all(math.isfinite(x) for x in args.x):
        raise ValueError(f"--x must be finite, got {args.x}")
    f = gaussian(args.rate)
    apply = dual_sonine_apply if args.dual else sonine_apply
    records = [{"x": x, "value": float(v)} for x, v in zip(args.x, np.real(apply(pair, f, np.asarray(args.x))))]
    _emit(records, args.format, args.out)
    return 0


def _parse_tolerances(entries) -> dict:
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValueError(f"--tol expects name=value, got {entry!r}")
        name, _, value = entry.partition("=")
        out[name] = value
    return out


def _tolerance(name: str, value) -> float:
    """A known key's tolerance from a flag or the config: a finite number > 0."""
    if name not in DEFAULT_TOLERANCES:
        raise ValueError(f"unknown tolerance {name!r}; known: {', '.join(DEFAULT_TOLERANCES)}")
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance {name!r} must be a finite number > 0, got {value!r}")
    return tol


_NUMBER = ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
#: the keys a config file may hold, each with what its value must be: a table (a JSON object) maps to
#: its own keys, ``tolerances`` to None (``_tolerance`` checks each of its keys and values)
_CONFIG = {
    "alpha": _NUMBER,
    "beta": _NUMBER,
    "grid": {"L": _NUMBER, "n_x": _INTEGER, "lambda_max": _NUMBER, "n_lambda": _INTEGER},
    "tolerances": None,
    "suites": ("a list of suite names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v)),
    "output": {
        "format": ("'json' or 'csv'", lambda v: v in ("json", "csv")),
        "path": ("a string", lambda v: isinstance(v, str)),
    },
}


def _check_config(table: dict, known: dict, where: str) -> None:
    for key, value in table.items():
        if key not in known:
            raise ValueError(f"unknown config key {where}{key!r}; known: {', '.join(known)}")
        rule = known[key]
        if rule is None or isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {where}{key!r} must be a JSON object, got {value!r}")
            if rule is not None:
                _check_config(value, rule, f"{key}.")
        elif not rule[1](value):
            raise ValueError(f"config key {where}{key!r} must be {rule[0]}, got {value!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    _check_config(data, _CONFIG, "")
    return data


def _build_run_config(args) -> RunConfig:
    file_cfg = _load_config(args.config)
    grid = dict(file_cfg.get("grid", {}))
    default = RunConfig()
    cfg = RunConfig(
        alpha=args.alpha if args.alpha is not None else file_cfg.get("alpha"),
        beta=args.beta if args.beta is not None else file_cfg.get("beta"),
        half_width=args.half_width if args.half_width is not None else grid.get("L"),
        n_x=args.n_x if args.n_x is not None else grid.get("n_x"),
        lambda_max=grid.get("lambda_max"),
        n_lambda=grid.get("n_lambda"),
        tolerances={
            name: _tolerance(name, value)
            for name, value in {**file_cfg.get("tolerances", {}), **_parse_tolerances(args.tol)}.items()
        },
        suites=tuple(args.suites.split(",")) if args.suites else tuple(file_cfg.get("suites", default.suites)),
        out_path=args.out if args.out is not None else file_cfg.get("output", {}).get("path"),
        out_format=(
            args.format if args.format is not None else file_cfg.get("output", {}).get("format", default.out_format)
        ),
        include_timing=bool(args.timings),
    )
    if cfg.alpha is not None:
        OrderParam(cfg.alpha)
    if cfg.beta is not None:
        if cfg.alpha is None:
            raise ValueError(f"beta = {cfg.beta} needs an alpha: an order pair takes both, from flags or the config")
        OrderParam(cfg.beta)
        if not (cfg.beta > cfg.alpha):
            raise ValueError(f"order pair requires beta > alpha, got ({cfg.alpha}, {cfg.beta})")
    return cfg


def cmd_verify(args) -> int:
    cfg = _build_run_config(args)
    reports = run_suites(cfg)
    text = (
        reports_to_csv(reports, cfg.include_timing)
        if cfg.out_format == "csv"
        else reports_to_json(reports, cfg.include_timing) + "\n"
    )
    _write_or_print(text, cfg.out_path)
    fails = [r for r in reports if not r.passed()]
    summary = f"{len(reports)} checks, {len(fails)} over tolerance\n"
    sys.stderr.write(summary)
    for r in fails:
        sys.stderr.write(f"  FAIL {r.name} {r.params}: {r.max_rel_err:.3e}\n")
    return 1 if fails else 0


def cmd_report(args) -> int:
    """Per report name: the largest error, and the tolerance and headroom
    -log10(max_rel_err / tol) of the check nearest its tolerance, marked !
    under one digit (or NaN)."""
    reports: list[IdentityReport] = []
    for path in args.results:
        try:
            reports.extend(reports_from_json(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read results {path}: {exc}") from exc
    if not reports:
        print("no reports")
        return 0
    reports.sort(key=lambda r: (r.name, r.params.get("alpha", -99), r.params.get("beta", -99)))
    by_suite: dict[str, list[IdentityReport]] = {}
    for r in reports:
        by_suite.setdefault(r.name, []).append(r)
    print(f"{'suite':32s} {'checks':>6s} {'max_rel_err':>12s} {'tol':>9s} {'headroom':>8s}  "
          f"{'total_s':>8s}  worst parameters")
    thin = False
    for name, rs in by_suite.items():
        tracked = [r for r in rs if r.tolerance is not None] or rs
        # np.max and np.argmax rank a NaN error (a failed check) above every number
        worst = tracked[int(np.argmax([r.max_rel_err / (r.tolerance or 1.0) for r in tracked]))]
        top = float(np.max([r.max_rel_err for r in rs]))
        total = sum(r.elapsed for r in rs)
        worst_params = {k: v for k, v in worst.params.items() if k in ("alpha", "beta", "lam", "m", "input")}
        tol, flag = worst.tolerance, " "
        if tol is None:
            tol_s = room_s = "-"
        else:
            room = math.inf if worst.max_rel_err == 0 else math.log10(tol / worst.max_rel_err)
            tol_s, room_s = f"{tol:.1e}", f"{room:.2f}"
            if not room >= 1.0:
                flag, thin = "!", True
        print(f"{name:32s} {len(rs):6d} {top:12.3e} {tol_s:>9s} {room_s:>8s}{flag} {total:8.2f}  {worst_params}")
    if thin:
        print("! less than one digit of headroom: -log10(max_rel_err / tol) < 1, or a failed check")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Dunkl operator calculus: kernel tables, transforms, Sonine operators, identity verification.",
    )
    parser.add_argument("--version", action="version", version=f"dunkl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate the kernel E_alpha at given arguments")
    p.add_argument("--alpha", type=float, required=True, help="order parameter, must be > -1/2")
    p.add_argument("--z", action="append", required=True, help="argument (complex ok, e.g. '1+2j'); repeatable")
    p.add_argument("--mode", choices=["series", "bochner", "bessel", "auto", "both"], default="auto",
                   help="'both' evaluates bessel and bochner and reports their spread")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("transform", help="transform sampled data (CSV columns x,f_re[,f_im])")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", required=True, help="samples file")
    p.add_argument("--L", dest="half_width", type=float, help="plan sizes; each defaults to build_plan's")
    p.add_argument("--nx", dest="n_x", type=int)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--n-lambda", dest="n_lambda", type=int)
    p.add_argument("--roundtrip", action="store_true", help="apply forward then inverse and emit x-space values")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("sonine", help="apply the Sonine transform (or its dual) to a Gaussian probe")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--x", action="append", type=float, required=True, help="evaluation point; repeatable")
    p.add_argument("--rate", type=float, default=1.0, help="Gaussian decay rate of the probe")
    p.add_argument("--dual", action="store_true", help="apply the dual transform instead")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_sonine)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--L", dest="half_width", type=float, default=None)
    p.add_argument("--nx", dest="n_x", type=int, default=None)
    p.add_argument("--suites", default=None, help=f"comma list or 'all'; available: {', '.join(SUITES)}")
    p.add_argument("--tol", action="append", help="override a tolerance, e.g. --tol sonine-product=1e-7")
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-determinism)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize verification report files (merge = concatenate + stable sort)")
    p.add_argument("results", nargs="*", help="JSON report files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanSelfTestError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
