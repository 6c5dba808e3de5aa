import math

import numpy as np
import pytest

import dunkl
import dunkl.suites
import library_calls
import verify_workloads as vw


def test_sweep_sizes_and_split():
    assert len(vw.expected_sweep(vw.PIPELINE_SUITES)) == 30
    assert len(vw.expected_sweep(vw.GRID_SUITES)) == 133
    assert sorted(vw.PIPELINE_SUITES + vw.GRID_SUITES) == sorted(dunkl.suites.SUITES)


def _reports(suites):
    out = []
    for name, params in vw.expected_sweep(suites):
        params = dict(params, tol=vw.TOLERANCES[vw.tolerance_key(name)])
        lhs = vw.closed_form_lhs(name, params)
        if lhs is not None:
            params["lhs"] = lhs
        out.append({"name": name, "params": params, "max_rel_err": 1e-13})
    return out


def test_check_reports_accepts_the_documented_sweep():
    problems, errors = vw.check_reports(_reports(vw.GRID_SUITES), vw.GRID_SUITES)
    assert problems == []
    assert len(errors) == 133 + 4 + 8  # every check, plus the duality and Plancherel closed forms


@pytest.mark.parametrize("field, value", [("tol", 1e-6), ("alpha", 0.25), ("lhs", 0.5)])
def test_check_reports_flags_a_wrong_report(field, value):
    reports = _reports(vw.GRID_SUITES)
    target = next(r for r in reports if r["name"] == "plancherel-classic")
    target["params"][field] = value
    problems, _ = vw.check_reports(reports, vw.GRID_SUITES)
    assert len(problems) == 1


def test_check_reports_flags_errors_over_tolerance_and_missing_checks():
    reports = _reports(vw.PIPELINE_SUITES)
    reports[3]["max_rel_err"] = 2e-3
    problems, _ = vw.check_reports(reports[:-1], vw.PIPELINE_SUITES)
    assert len(problems) == 2


def test_closed_forms():
    assert vw.closed_form_lhs("duality", {"alpha": 0.5}) == pytest.approx(math.gamma(1.5) / 2)
    assert vw.closed_form_lhs("duality", {"alpha": 0.5, "beta": 1.0}) is None
    assert vw.closed_form_lhs("plancherel-classic", {"alpha": 0.0, "input": "x*exp(-x^2)"}) == pytest.approx(0.25)


class _Stub:
    """Stand-in set-up: make_round only reads plan grids and witness fields."""

    def __init__(self):
        self.lambda_nodes = np.linspace(-16.0, 16.0, 8)
        self.x_nodes = np.linspace(-12.0, 12.0, 8)
        self.plan = self
        self.m, self.flat, self.values = 0, 64.0, None


def test_rounds_have_the_same_operations_for_every_seed():
    stub = _Stub()
    witnesses = {(a, m): stub for a in library_calls.WITNESS_ORDERS for m in (0, 1)}
    setup = library_calls.Setup(plans={a: stub for a in vw.ORDERS}, witnesses=witnesses)
    kinds = None
    for seed in (0, 1, 12345):
        ops = library_calls.make_round(dunkl, setup, np.random.default_rng([seed, 3]))
        assert len(ops) == 100
        assert sum(op.probe for op in ops) == 17
        if kinds is None:
            kinds = [op.kind for op in ops]
        assert [op.kind for op in ops] == kinds
    # each operation at each of its suite orders, the kernel routes once per z family
    seeded = [k for k, op in zip(kinds, ops) if not op.probe]
    counts = {k: seeded.count(k) for k in set(seeded)}
    assert len(seeded) == 83
    assert counts.pop("dunkl_kernel.auto") == counts.pop("dunkl_kernel.bochner") == 12
    assert counts.pop("apply_multiplier_fn") == len(library_calls.MULTIPLIER_ORDERS)
    assert set(counts.values()) == {len(vw.ORDERS)}


def test_relative_error_takes_the_given_scale():
    assert library_calls.relative_error([3e-6 + 4e-15], [3e-6]) == pytest.approx(4e-15 / 3e-6)
    assert library_calls.relative_error([3e-6 + 4e-15], [3e-6], scale=1.0) == pytest.approx(4e-15)
    assert library_calls.relative_error([1.0, 2.0], [1.0]) == float("inf")
