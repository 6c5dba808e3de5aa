"""Report wire format and determinism guarantees."""

import json
import math

import pytest

from dunkl.report import (
    IdentityReport,
    max_errs,
    pair_errs,
    reports_from_json,
    reports_to_csv,
    reports_to_json,
    run_check,
    worst_errs,
)


def sample_reports():
    return [
        IdentityReport("alpha-suite", {"alpha": 0.5, "tol": 1e-8}, "grid A", 1e-12, 1e-11, elapsed=0.37),
        IdentityReport("beta-suite", {"alpha": 0.0, "beta": 1.0}, "grid B", 2e-4, 3e-3, elapsed=1.2),
    ]


class TestWireFormat:
    def test_exact_keys(self):
        wire = sample_reports()[0].to_wire()
        assert set(wire) == {"name", "params", "grid", "max_abs_err", "max_rel_err", "elapsed_s"}

    def test_timing_zeroed_by_default(self):
        wire = sample_reports()[0].to_wire()
        assert wire["elapsed_s"] == 0.0
        wire = sample_reports()[0].to_wire(include_timing=True)
        assert wire["elapsed_s"] == 0.37

    def test_roundtrip(self):
        text = reports_to_json(sample_reports())
        back = reports_from_json(text)
        assert back[0].name == "alpha-suite"
        assert back[0].max_rel_err == 1e-11
        assert back[1].params["beta"] == 1.0

    def test_byte_determinism(self):
        a = reports_to_json(sample_reports())
        b = reports_to_json(sample_reports())
        assert a == b

    def test_csv_columns(self):
        text = reports_to_csv(sample_reports())
        header = text.splitlines()[0]
        assert header == "name,params,grid,max_abs_err,max_rel_err,elapsed_s"
        assert len(text.splitlines()) == 3

    def test_float_precision_17_digits(self):
        rep = IdentityReport("x", {}, "", 1.0 / 3.0, 2.0 / 3.0)
        line = reports_to_csv([rep]).splitlines()[1]
        assert "0.33333333333333331" in line

    def test_pass_logic(self):
        rep = IdentityReport("x", {"tol": 1e-6}, "", 0.0, 1e-7)
        assert rep.passed()
        rep = IdentityReport("x", {"tol": 1e-6}, "", 0.0, 1e-5)
        assert not rep.passed()
        rep = IdentityReport("x", {}, "", 0.0, 1.0)
        assert rep.passed()  # no tolerance configured

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            IdentityReport("x", {}, "", -1.0, 0.0)

    def test_malformed_entry_named(self):
        good = sample_reports()[0].to_wire()
        with pytest.raises(ValueError, match="entry 1 is not a report"):
            reports_from_json(json.dumps([good, {}]))

    def test_bad_file_rejected(self):
        with pytest.raises(ValueError):
            reports_from_json(json.dumps({"not": "a list"}))


class TestCheckRunner:
    def test_report_from_compute(self):
        params = {"alpha": 0.5}
        rep = run_check("some-identity", params, "grid A", lambda a, b: (a, b), 1e-12, 1e-11)
        assert (rep.name, rep.params, rep.grid_summary) == ("some-identity", params, "grid A")
        assert (rep.max_abs_err, rep.max_rel_err) == (1e-12, 1e-11)
        assert rep.elapsed > 0.0

    def test_compute_may_return_the_grid(self):
        rep = run_check("some-identity", {}, None, lambda: (0.0, 0.0, "7 masked points"))
        assert rep.grid_summary == "7 masked points"

    def test_compute_errors_propagate(self):
        def fails():
            raise ValueError("pole")

        with pytest.raises(ValueError, match="pole"):
            run_check("some-identity", {}, "", fails)


class TestErrorRules:
    def test_pair_rule_scales_by_larger_side(self):
        assert pair_errs(3.0, 4.0) == (1.0, 0.25)
        assert pair_errs(-4.0, 3.0) == (7.0, 7.0 / 4.0)
        assert pair_errs(0.0, 0.0) == (0.0, 0.0)

    def test_worst_rule_takes_the_largest_case(self):
        assert worst_errs([]) == (0.0, 0.0)
        assert worst_errs([1e-12, 3e-9, 2e-10]) == (3e-9, 3e-9)

    def test_worst_rule_keeps_a_nan(self):
        # Python's max(0.0, nan) is 0.0: a NaN case must not read as an exact pass
        abs_err, rel_err = worst_errs([1e-12, math.nan, 2e-10])
        assert math.isnan(abs_err) and math.isnan(rel_err)
        assert not IdentityReport("x", {"tol": 1.0}, "", abs_err, rel_err).passed()

    def test_max_rule_scales_by_reference(self):
        assert max_errs([2.0, -4.0], [2.5, -4.0]) == (0.5, 0.125)
        assert max_errs(1.0 + 1.0j, 1.0) == (1.0, 1.0 / abs(1.0 + 1.0j))
