"""Regression ratchet on the errors of the default ``dunkl verify`` run, and
a pin on its report structure.

``baselines/verify_errors.json`` holds each identity's observed
``max_rel_err``, keyed by report name and the parameters that identify the
check; ``baselines/verify_grids.json`` holds each identity's ``grid`` string
under the same key.  The spec tolerances sit orders of magnitude above many observed
errors, so this guard catches a regression that they would still pass.
A change that lowers an error may lower its baseline; one that raises an
error says so in CHANGES.md and leaves the baseline as it is.
"""

import json
from pathlib import Path

BASELINE = Path(__file__).parent / "baselines" / "verify_errors.json"
GRIDS = Path(__file__).parent / "baselines" / "verify_grids.json"

#: an identity fails the ratchet beyond this multiple of its baseline
FACTOR = 100.0
#: baselines below this are round-off; the ratchet measures from here
ROUNDOFF = 1e-15

#: report parameters that carry results rather than identify the check
RESULT_PARAMS = frozenset({"tol", "lhs", "rhs", "route_err"})


def identity_key(report: dict) -> str:
    params = sorted((k, v) for k, v in report["params"].items() if k not in RESULT_PARAMS)
    return " ".join([report["name"]] + [f"{k}={v}" for k, v in params])


def test_every_identity_within_its_baseline(verify_all_run):
    _, report_path = verify_all_run
    baseline = json.loads(BASELINE.read_text())
    observed = {identity_key(r): r["max_rel_err"] for r in json.loads(report_path.read_text())}
    assert observed.keys() == baseline.keys()
    over = {
        key: (err, baseline[key])
        for key, err in observed.items()
        if err > FACTOR * max(baseline[key], ROUNDOFF)
    }
    assert not over, over


def test_every_identity_keeps_its_grid(verify_all_run):
    _, report_path = verify_all_run
    observed = {identity_key(r): r["grid"] for r in json.loads(report_path.read_text())}
    assert observed == json.loads(GRIDS.read_text())
