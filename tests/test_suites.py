"""The suite table: every report name a row can produce has a tolerance,
every tolerance has a row, the rows call the library where its wrappers
see them, and each suite run alone writes its slice of the full report."""

import json

from dunkl import fractional
from dunkl.cli import main
from dunkl.suites import DEFAULT_TOLERANCES, SUITES, RunConfig, RunContext

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
