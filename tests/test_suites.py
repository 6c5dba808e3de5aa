"""The suite table: every report name a row can produce has a tolerance,
every tolerance has a row, the rows call the library where its wrappers
see them, and each suite run alone writes its slice of the full report."""

import json
import math

import numpy as np
import pytest

from dunkl import core, fractional, sonine
from dunkl.cli import _build_run_config, build_parser, main
from dunkl.functions import PolyFunction
from dunkl.suites import DEFAULT_TOLERANCES, SUITES, RunConfig, RunContext, run_suites
from dunkl.transform import build_plan

ROW_NAMES = {row.name for suite in SUITES.values() for row in suite.rows}


def test_every_row_name_has_a_tolerance():
    config = RunConfig()
    for name in ROW_NAMES:
        assert config.tol(name) == DEFAULT_TOLERANCES["inversion" if name.startswith("inversion-") else name]


def test_every_tolerance_key_has_a_row():
    keys = {"inversion" if name.startswith("inversion-") else name for name in ROW_NAMES}
    assert keys == set(DEFAULT_TOLERANCES)


def test_power_weight_rows_call_the_identity(monkeypatch):
    """One order of the power-weight suite makes four calls of
    ``fractional.power_weight_identity``, the degenerate row's included."""
    calls = []
    original = fractional.power_weight_identity

    def counting(alpha, lam, *args):
        calls.append(lam)
        return original(alpha, lam, *args)

    monkeypatch.setattr(fractional, "power_weight_identity", counting)
    config = RunConfig(alpha=0.0)
    reports = SUITES["power-weight-transform"](config, RunContext(config))
    assert [r.name for r in reports] == ["power-weight-transform"] * 3 + ["power-weight-degenerate"]
    assert calls == [r.params["lam"] for r in reports]
    assert calls[-1] == 2.0


def test_each_suite_alone_writes_its_slice(verify_all_run, tmp_path):
    """Every suite run alone writes the same bytes as its records in the
    default ``--suites all`` report: no check depends on the suites that ran
    before it."""
    _, full = verify_all_run
    records = json.loads(full.read_text())
    start = 0
    for name in SUITES:
        out = tmp_path / f"{name}.json"
        assert main(["verify", "--suites", name, "--out", str(out)]) == 0
        alone = out.read_text()
        end = start + len(json.loads(alone))
        assert alone == json.dumps(records[start:end], indent=2, sort_keys=True) + "\n", name
        start = end
    assert start == len(records)


def test_reversed_suite_list_writes_the_same_report(verify_all_run, tmp_path):
    """Naming every suite in reverse order writes the same bytes as
    ``--suites all``: the report follows the suite table, not the list."""
    _, full = verify_all_run
    out = tmp_path / "reversed.json"
    assert main(["verify", "--suites", ",".join(reversed(SUITES)), "--out", str(out)]) == 0
    assert out.read_bytes() == full.read_bytes()


@pytest.mark.parametrize(
    "suite, module, route, orders",
    [
        ("kernel-consistency", core, "dunkl_kernel", {}),
        ("sonine-product", sonine, "sonine_apply", {"alpha": 0.0, "beta": 0.5}),
        ("sonine-monomial", sonine, "sonine_apply", {"alpha": 0.0, "beta": 0.5}),
        ("translation-product", core, "translation", {"alpha": 0.0}),
        ("convolution", core, "convolution", {"alpha": 0.0}),
        ("fractional-cross-route", fractional, "frac_power_kernel", {}),
    ],
)
def test_nan_route_fails_its_spread_row(monkeypatch, suite, module, route, orders):
    """A route that returns NaN makes its row report NaN and fail, rather
    than read as an exact pass.  The exact polynomial image of
    ``sonine_apply``, which the route check reads, stays as it is."""
    original = getattr(module, route)

    def nan_route(*args, **kwargs):
        out = original(*args, **kwargs)
        return out if isinstance(out, PolyFunction) else out * math.nan

    monkeypatch.setattr(module, route, nan_route)
    reports = [r for r in run_suites(RunConfig(suites=(suite,), **orders)) if r.name == suite]
    assert reports
    for r in reports:
        assert math.isnan(r.max_rel_err) and not r.passed(), r.params


def test_one_nan_kernel_mode_fails_kernel_consistency(monkeypatch):
    """One mode NaN at one argument fails every order: neither the scale nor
    the spread over the modes drops it."""
    original = core.dunkl_kernel

    def one_nan(alpha, z, mode):
        return original(alpha, z, mode) * (math.nan if mode == "bochner" and z == 5.0 else 1.0)

    monkeypatch.setattr(core, "dunkl_kernel", one_nan)
    reports = run_suites(RunConfig(suites=("kernel-consistency",)))
    assert len(reports) == 5
    assert all(math.isnan(r.max_rel_err) and not r.passed() for r in reports)


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
        run_suites(RunConfig(suites=("nonsense",)))


def test_default_run_plan_is_build_plans_default():
    """A verify run that sets no size builds the plan build_plan's defaults
    give, node for node and weight for weight."""
    config = _build_run_config(build_parser().parse_args(["verify"]))
    plan, want = RunContext(config).plan(0.5), build_plan(0.5)
    for got, ref in ((plan.x_nodes, want.x_nodes), (plan.x_weights, want.x_weights),
                     (plan.lambda_nodes, want.lambda_nodes), (plan.lambda_weights, want.lambda_weights)):
        np.testing.assert_array_equal(got, ref)
