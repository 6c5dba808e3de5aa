"""CLI contract: exit codes, file formats, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dunkl.cli import main
from dunkl.suites import DEFAULT_TOLERANCES, RunConfig


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "dunkl.cli", *args], capture_output=True, text=True, timeout=600, **kw
    )


class TestKernelCommand:
    def test_unit_value_at_zero(self, capsys):
        code = main(["kernel", "--alpha", "0.5", "--z", "0"])
        out = capsys.readouterr().out
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1.0)
        assert float(row[3]) == 0.0

    def test_both_modes_agree(self, capsys):
        code = main(["kernel", "--alpha", "0.5", "--z", "1", "--mode", "both"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2
        assert abs(float(rows[0][2]) - float(rows[1][2])) < 1e-10
        assert float(rows[0][5]) < 1e-10

    def test_both_modes_beyond_series_strip(self, capsys):
        for z in ("20j", "200j"):  # beyond the strip, and beyond the series radius 60
            code = main(["kernel", "--alpha", "0.5", "--z", z, "--mode", "both"])
            out = capsys.readouterr().out
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [row[4] for row in rows] == ["bessel", "bochner"]
            assert float(rows[0][5]) < 1e-10

    def test_invalid_order_exits_2(self, capsys):
        code = main(["kernel", "--alpha", "-1", "--z", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha > -1/2" in err

    def test_oscillatory_axis_value(self, capsys):
        code = main(["kernel", "--alpha", "0.5", "--z", "59j"])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert code == 0
        z = 59j
        want = np.sinh(z) / z + (np.cosh(z) - np.sinh(z) / z) / z  # order-1/2 closed form
        assert abs(complex(float(row[2]), float(row[3])) - want) <= 1e-12 * abs(want)

    def test_series_mode_rejects_oscillatory_axis(self, capsys):
        code = main(["kernel", "--alpha", "0.5", "--z", "40j", "--mode", "series"])
        assert code != 0
        assert "mode='bessel'" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main(["kernel", "--alpha", "0.5", "--z", "2j", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["z_im"] == 2.0


class TestTransformCommand:
    def make_samples(self, tmp_path, n=257, width=10.0):
        xs = np.linspace(-width, width, n)
        lines = ["x,f_re"] + [f"{x},{math.exp(-x * x)}" for x in xs]
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_gaussian_spectrum(self, tmp_path, capsys):
        path = self.make_samples(tmp_path)
        out_path = tmp_path / "spec.csv"
        code = main(["transform", "--alpha", "0.5", "--input", str(path), "--out", str(out_path), "--nx", "256", "--n-lambda", "256"])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        lam = np.array([float(r[0]) for r in rows])
        re = np.array([float(r[1]) for r in rows])
        want = math.gamma(1.5) * np.exp(-(lam**2) / 4.0)
        mask = np.abs(lam) <= 6.0
        assert np.max(np.abs(re[mask] - want[mask])) < 1e-6

    def test_roundtrip_flag(self, tmp_path):
        path = self.make_samples(tmp_path)
        out_path = tmp_path / "back.csv"
        code = main(["transform", "--alpha", "0.5", "--input", str(path), "--roundtrip", "--out", str(out_path), "--nx", "256", "--n-lambda", "256"])
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(vals - np.exp(-(xs**2)))) < 1e-6

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["transform", "--alpha", "0.5", "--input", str(path)])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_asymmetric_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,f_re\n-1.0,1\n0.0,1\n2.0,1\n3.0,1\n")
        code = main(["transform", "--alpha", "0.5", "--input", str(path)])
        assert code == 2
        assert "symmetric" in capsys.readouterr().err

    def test_failed_plan_self_test_is_a_configuration_error(self, tmp_path, capsys):
        path = self.make_samples(tmp_path, n=41)
        code = main(["transform", "--alpha", "0.5", "--input", str(path), "--nx", "64", "--n-lambda", "64"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plan self-test reached") and "Traceback" not in err

    def test_nonmonotone_grid_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,f_re\n-1.0,1\n0.5,1\n0.0,1\n1.0,1\n")
        code = main(["transform", "--alpha", "0.5", "--input", str(path)])
        assert code == 2
        assert "increasing" in capsys.readouterr().err


class TestSonineCommand:
    def test_dual_gaussian_value(self, capsys):
        code = main(["sonine", "--alpha", "0.5", "--beta", "1.5", "--x", "0", "--dual"])
        out = capsys.readouterr().out
        assert code == 0
        val = float(out.splitlines()[1].split(",")[1])
        assert val == pytest.approx(math.gamma(2.5) / math.gamma(1.5), rel=1e-9)

    def test_bad_pair_exits_2(self, capsys):
        code = main(["sonine", "--alpha", "1.5", "--beta", "0.5", "--x", "0"])
        assert code == 2
        assert "beta > alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_nonpositive_rate_exits_2(self, rate, capsys):
        code = main(["sonine", "--alpha", "0", "--beta", "1", "--x", "1", f"--rate={rate}"])
        assert code == 2
        assert "rate must be positive" in capsys.readouterr().err


# exact bytes of the record output: the kernel records as the per-command
# writers that the single record writer replaced wrote them, the Sonine
# records as the Gauss-Jacobi rules on numpy's eigvalsh give them
_PINNED_OUTPUT = {
    ("kernel", "csv"): (
        "z_re,z_im,E_re,E_im,mode,est_err\n"
        "1,0,1.5430806348152442,0,auto,0\n"
        "0,40,0.018627829011983715,0.017139147266606154,auto,0\n"
    ),
    ("kernel", "json"): (
        '[\n  {\n    "E_im": 0.0,\n    "E_re": 1.5430806348152442,\n    "est_err": 0.0,\n    "mode": "auto",\n'
        '    "z_im": 0.0,\n    "z_re": 1.0\n  },\n  {\n    "E_im": 0.017139147266606154,\n'
        '    "E_re": 0.018627829011983715,\n    "est_err": 0.0,\n    "mode": "auto",\n    "z_im": 40.0,\n'
        '    "z_re": 0.0\n  }\n]\n'
    ),
    ("sonine", "csv"): "x,value\n0.5,0.88479686771438049\n1,0.63212055882855755\n",
    ("sonine", "json"): '[\n  {\n    "value": 0.8847968677143805,\n    "x": 0.5\n  },\n  {\n    "value": 0.6321205588285576,\n    "x": 1.0\n  }\n]\n',
    ("sonine-dual", "csv"): "x,value\n0.5,0.77880078307140488\n1,0.36787944117144233\n0,1.0000000000000002\n-2,0.018315638888734172\n",
    ("sonine-dual", "json"): (
        '[\n  {\n    "value": 0.7788007830714049,\n    "x": 0.5\n  },\n  {\n    "value": 0.36787944117144233,\n'
        '    "x": 1.0\n  },\n  {\n    "value": 1.0000000000000002,\n    "x": 0.0\n  },\n'
        '  {\n    "value": 0.01831563888873417,\n    "x": -2.0\n  }\n]\n'
    ),
}
_PINNED_ARGS = {
    "kernel": ["kernel", "--alpha", "0.5", "--z", "1", "--z", "40j"],
    "sonine": ["sonine", "--alpha", "0", "--beta", "1", "--x", "0.5", "--x", "1"],
    "sonine-dual": ["sonine", "--alpha", "0", "--beta", "1", "--x", "0.5", "--x", "1", "--x", "0", "--x", "-2", "--dual"],
}


@pytest.mark.parametrize("command,fmt", sorted(_PINNED_OUTPUT))
def test_record_output_bytes(command, fmt, capsys):
    assert main([*_PINNED_ARGS[command], "--format", fmt]) == 0
    assert capsys.readouterr().out == _PINNED_OUTPUT[command, fmt]


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path, capsys):
        out_path = tmp_path / "rep.json"
        code = main(
            [
                "verify",
                "--alpha", "0.5", "--beta", "1.5",
                "--suites", "sonine-product,sonine-monomial",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        reports = json.loads(out_path.read_text())
        assert all(r["max_rel_err"] <= r["params"]["tol"] for r in reports)
        assert all(r["elapsed_s"] == 0.0 for r in reports)

    def test_timings_flag(self, tmp_path):
        out_path = tmp_path / "rep.json"
        code = main(
            [
                "verify", "--timings",
                "--alpha", "0.5",
                "--suites", "plancherel-classic,power-weight-transform",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        reports = json.loads(out_path.read_text())
        assert {r["name"] for r in reports} == {"plancherel-classic", "power-weight-transform", "power-weight-degenerate"}
        assert all(r["elapsed_s"] > 0 for r in reports)

    def test_defaults_come_from_run_config(self):
        from dunkl.cli import _build_run_config, build_parser

        assert _build_run_config(build_parser().parse_args(["verify"])) == RunConfig()

    def test_unknown_suite_exits_2(self, capsys):
        code = main(["verify", "--suites", "nonsense"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_beta_not_above_alpha_exits_2(self, capsys):
        code = main(["verify", "--alpha", "1.5", "--beta", "0.5", "--suites", "sonine-product"])
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_beta_without_alpha_exits_2(self, tmp_path, capsys, source):
        """A beta alone names no order pair: the run stops instead of
        sweeping the default pairs, whether it comes from a flag or a config."""
        out_path = tmp_path / "rep.json"
        args = ["verify", "--suites", "inversion-s-k1-ts", "--out", str(out_path)]
        if source == "flag":
            args += ["--beta", "1"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"beta": 1.0}))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert main(args) == 2
        assert "beta = 1.0 needs an alpha" in capsys.readouterr().err
        assert not out_path.exists()

    def test_deterministic_outputs(self, tmp_path):
        args = ["verify", "--alpha", "0.5", "--beta", "1.5", "--suites", "kernel-consistency"]
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_tolerance_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--alpha", "0.5", "--beta", "1.5",
                "--suites", "sonine-product",
                "--tol", "sonine-product=1e-18",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1

    def test_unknown_tolerance_exits_2(self, capsys):
        code = main(["verify", "--tol", "bogus=1", "--suites", "sonine-product"])
        assert code == 2

    def test_tolerance_key_of_report_names(self):
        cfg = RunConfig(tolerances={"inversion": 1e-9})
        assert cfg.tol("inversion-k2-s-ts") == 1e-9
        assert cfg.tol("plancherel-dual") == DEFAULT_TOLERANCES["plancherel-dual"]
        with pytest.raises(KeyError):
            cfg.tol("no-such-identity")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "alpha": 0.5,
            "beta": 1.5,
            "suites": ["sonine-product"],
            "tolerances": {"sonine-product": 1e-7},
            "output": {"format": "csv"},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "rep.csv"
        code = main(["verify", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("name,params,grid")

    @pytest.mark.parametrize(
        "cfg,key",
        [
            ({"tolerence": {"kernel-consistency": 1e-30}}, "'tolerence'"),
            ({"grid": {"nx": 64}}, "grid.'nx'"),
            ({"output": {"fromat": "csv"}}, "output.'fromat'"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, cfg, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suites": ["kernel-consistency"], **cfg}))
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "rep.json")])
        assert code == 2
        assert f"unknown config key {key}" in capsys.readouterr().err
        assert not (tmp_path / "rep.json").exists()

    def test_csv_format_flag(self, tmp_path):
        out_path = tmp_path / "rep.csv"
        code = main(
            ["verify", "--alpha", "0.5", "--beta", "1.5", "--suites", "kernel-consistency",
             "--format", "csv", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_text().splitlines()[0] == "name,params,grid,max_abs_err,max_rel_err,elapsed_s"

    def test_alpha_alone_leaves_three_sweeps_at_their_orders(self, tmp_path):
        # kernel-consistency keeps its five orders, fractional-cross-route
        # its two, and the pipelines their three pairs without --beta
        out_path = tmp_path / "rep.json"
        assert main(["verify", "--alpha", "0", "--suites", "all", "--out", str(out_path)]) == 0
        reports = json.loads(out_path.read_text())
        elsewhere = [r for r in reports if r["params"]["alpha"] != 0.0]
        assert len(reports) == 70
        assert sorted((r["name"], r["params"]["alpha"], r["params"].get("beta")) for r in elsewhere) == sorted(
            [("kernel-consistency", a, None) for a in (-0.4, 0.5, 1.5, 2.7)]
            + [("fractional-cross-route", a, None) for a in (0.5, 0.5, 1.5, 1.5)]
            + [(f"inversion-{o}", 0.5, 1.5) for o in ("s-k1-ts", "ts-k2-s", "k1-ts-s", "k2-s-ts") for _ in (0, 1)]
            + [("multiplier-commutation", 0.5, 1.5), ("plancherel-dual", 0.5, 1.5)]
        )


class TestReportCommand:
    def test_empty(self, capsys):
        code = main(["report"])
        assert code == 0
        assert "no reports" in capsys.readouterr().out

    def test_summary_and_merge(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["verify", "--alpha", "0.5", "--beta", "1.5", "--suites", "sonine-product", "--out", str(out1)])
        main(["verify", "--alpha", "0.0", "--beta", "1.0", "--suites", "sonine-product", "--out", str(out2)])
        capsys.readouterr()
        code = main(["report", str(out1), str(out2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sonine-product" in out
        assert "2" in out.split("sonine-product")[1].split()[0]

    def test_missing_file_exits_2(self, capsys):
        code = main(["report", "no-such-file.json"])
        assert code == 2

    def test_tolerance_and_headroom_columns(self, tmp_path, capsys):
        from dunkl.report import IdentityReport, reports_to_json

        reports = [
            IdentityReport("power-weight-degenerate", {"alpha": 1.5, "tol": 1e-8}, "", 2.6e-9, 2.6e-9),
            IdentityReport("power-weight-degenerate", {"alpha": 0.5, "tol": 1e-8}, "", 1e-12, 1e-12),
            IdentityReport("sonine-product", {"alpha": 0.0, "tol": 1e-8}, "", 1e-12, 1e-12),
            IdentityReport("exact", {"tol": 1e-12}, "", 0.0, 0.0),
            IdentityReport("untracked", {}, "", 1e-3, 1e-3),
            IdentityReport("mixed-tols", {"alpha": 0.0, "tol": 1e-6}, "", 5e-9, 5e-9),
            IdentityReport("mixed-tols", {"alpha": 1.0, "tol": 1e-9}, "", 1e-9, 1e-9),
            IdentityReport("failed-check", {"alpha": 0.0, "tol": 1e-8}, "", 1e-10, 1e-10),
            IdentityReport("failed-check", {"alpha": 1.0, "tol": 1e-8}, "", math.nan, math.nan),
        ]
        path = tmp_path / "r.json"
        path.write_text(reports_to_json(reports))
        assert main(["report", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:6] == ["suite", "checks", "max_rel_err", "tol", "headroom", "total_s"]
        rows = {line.split()[0]: line.split() for line in lines[1:] if not line.startswith("!")}
        assert rows["power-weight-degenerate"][1:5] == ["2", "2.600e-09", "1.0e-08", "0.59!"]
        assert rows["sonine-product"][3:5] == ["1.0e-08", "4.00"]
        assert rows["exact"][3:5] == ["1.0e-12", "inf"]
        assert rows["untracked"][3:5] == ["-", "-"]
        # the largest error of the suite, the headroom of the check nearest its own tolerance
        assert rows["mixed-tols"][2:5] == ["5.000e-09", "1.0e-09", "0.00!"]
        assert rows["failed-check"][2:5] == ["nan", "1.0e-08", "nan!"]
        assert lines[-1].startswith("! less than one digit of headroom")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_cli(["kernel", "--alpha", "0.5", "--z", "0"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("z_re")

    def test_import_leaves_interpolation_unloaded(self):
        # scipy.interpolate is loaded only by the routes that spline grid
        # samples, so importing the package and its CLI stays light
        code = "import sys, dunkl, dunkl.cli; sys.exit('scipy.interpolate' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=600).returncode == 0

    def test_verify_and_a_plan_leave_linalg_unloaded(self, tmp_path):
        # the Gauss-Jacobi rules take numpy's eigvalsh: no route loads
        # scipy.linalg, about 5 MB resident
        report = str(tmp_path / "report.json")
        code = (
            "import sys; from dunkl.cli import main; from dunkl.transform import build_plan; "
            f"code = main(['verify', '--suites', 'kernel-consistency,convolution', '--out', {report!r}]); "
            "build_plan(0.5); sys.exit(code or 'scipy.linalg' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code], timeout=600).returncode == 0

    def test_import_leaves_mpmath_unloaded(self):
        # mpmath serves only the fractional kernel's rare fallback nodes, so
        # it is imported there, not with the package
        code = "import sys, dunkl, dunkl.cli; sys.exit('mpmath' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=600).returncode == 0
