"""The suite table: every report name a row can produce has a tolerance,
every tolerance has a row, and the rows call the library where its
wrappers see them."""

from dunkl import fractional
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
