import inspect
import json
import math

import numpy as np
import pytest

from hopfbvp import analysis, core
from hopfbvp.cli import SETTINGS, _parse_range, _sample, build_parser, main
from hopfbvp.closed_forms import identity_solution
from hopfbvp.core import ConvergenceError
from hopfbvp.ode import write_profile_csv


def run(tmp_path, *args):
    return main([*args, "--out-dir", str(tmp_path)])


class TestVerify:
    def test_exit_zero_and_table(self, tmp_path, capsys):
        assert run(tmp_path, "verify") == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "pass"
        assert all(row["passed"] for row in summary["rows"])


class TestSolve:
    def test_solution_found(self, tmp_path):
        rc = run(
            tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
            "--n", "800", "--n-scan", "10", "--s-min", "0.05", "--s-max", "1.45",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "solution_found"
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "glued.json").exists()
        assert (tmp_path / "scan.csv").exists()
        assert summary["s_star"] is not None
        assert summary["config"]["n"] == 800

    def test_glued_json_is_the_summary_glued(self, tmp_path):
        rc = run(tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
                 "--n", "400", "--n-scan", "8")
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        glued = json.loads((tmp_path / "glued.json").read_text())
        assert glued == summary["glued"]
        assert list(glued) == list(summary["glued"])
        assert glued["s"] == summary["s_star"]
        assert set(glued) >= {
            "s", "l", "l_tilde", "d_minus", "d_plus", "I_s", "I_s1", "I_s2",
            "J_interior", "J_exterior", "boundary_error_zero", "boundary_error_pi",
        }
        assert "converged_interior" not in glued and "converged_exterior" not in glued
        assert "attached_zero" not in glued and "attached_pi" not in glued

    def test_boundary_errors_are_the_glue_record(self, tmp_path):
        # the certificate reports the root glue's end record, not a second measurement
        assert run(tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        glued = json.loads((tmp_path / "glued.json").read_text())
        for key in ("boundary_error_zero", "boundary_error_pi"):
            assert summary[key] == glued[key] <= 1e-3

    def test_no_sign_change_exit_code(self, tmp_path):
        rc = run(
            tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "1.5",
            "--n", "500", "--n-scan", "8", "--s-min", "0.05", "--s-max", "1.4",
        )
        assert rc == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "no_sign_change"

    def test_cross_check_and_mismatch_map(self, tmp_path):
        # use the transversal-root regime: for degenerate families (p=q=1,
        # lam=mu) the two pipelines legitimately return different members
        rc = run(
            tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
            "--n", "800", "--n-scan", "8", "--s-min", "0.05", "--s-max", "1.45",
            "--cross-check", "--mismatch-map", "mismatch.csv",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["shooting_verdict"] == "solution"
        assert summary["pipeline_sup_distance"] <= 1e-4
        lines = (tmp_path / "mismatch.csv").read_text().splitlines()
        assert lines[0] == "c0,c1,dalpha,ddalpha"
        assert len(lines) > 100

    def test_cross_check_with_seeds_outside_the_band(self, tmp_path):
        # r0 = 0.414 puts the forward seeds of the top amplitudes below -pi
        rc = run(
            tmp_path, "solve", "--p", "3", "--q", "2", "--lambda", "1", "--mu", "4",
            "--n", "600", "--n-scan", "8", "--cross-check",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "solution_found"
        assert summary["shooting_verdict"] == "solution"
        assert summary["pipeline_sup_distance"] <= 1e-3

    def test_cross_check_keeps_shooting_solution_without_a_variational_one(self, tmp_path):
        # the scan over [1.0, 1.4] misses the root near 0.4845; shooting finds it
        rc = run(tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
                 "--s-min", "1.0", "--s-max", "1.4", "--n-scan", "4", "--n", "600",
                 "--cross-check")
        assert rc == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["verdict"], summary["shooting_verdict"]) == ("no_sign_change", "solution")
        assert "pipeline_sup_distance" not in summary
        assert summary["shooting_c0"] == pytest.approx(3.39, rel=1e-2)
        assert summary["shooting_c1"] == pytest.approx(0.98, rel=1e-2)

    def test_invalid_grid_size_rejected(self, tmp_path):
        rc = run(tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1",
                 "--mu", "4", "--n", "8")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "n must be >= 16" in summary["error"]

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    def test_infinite_eigenvalue_is_an_error(self, tmp_path, flag):
        argv = ["--p", "1", "--q", "2", "--lambda", "1", "--mu", "4"]
        argv[argv.index(flag) + 1] = "inf"
        assert run(tmp_path, "solve", *argv) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert summary["error"].startswith("ValueError: lambda, mu must be finite and > 0")

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would end the run
    def test_overflowing_eigenvalue_fails_without_warnings(self, tmp_path):
        argv = ["--p", "1", "--q", "2", "--lambda", "1e300", "--mu", "4", "--n", "200"]
        assert run(tmp_path, "solve", *argv) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "failed"
        assert "Q f w is not finite: lambda=1e+300, mu=4 overflow float64" in summary["message"]

    def test_overflowing_eigenvalue_cross_check_fails_shooting_too(self, tmp_path):
        argv = ["--p", "1", "--q", "2", "--lambda", "1e300", "--mu", "4", "--n", "200"]
        assert run(tmp_path, "solve", *argv, "--cross-check") == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "failed" and summary["shooting_verdict"] == "failed"
        assert summary["shooting_message"] == (
            "no pair of scan shots stayed finite: every entry of the mismatch map is NaN"
        )

    def test_usage_error_exit_code(self, tmp_path):
        rc = run(tmp_path, "solve", "--p", "1", "--q", "2", "--lambda", "1",
                 "--mu", "-1")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert "mu" in summary["error"]

    @pytest.mark.parametrize("argv", [
        ("solve", "--p", "1", "--q", "2", "--lambda", "1"),  # no --mu
        ("verify", "--config", "x"),  # verify reads no config
        ("hopf-eval", "--profile", "p.csv", "--kind", "complex", "--config", "x"),
        ("solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--grading", "2"),
        # flags of settings the command does not read
        ("blowup", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--jobs", "2"),
        # a one-cell scan glues every junction in the calling process
        ("solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--jobs", "2"),
        ("compare", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--s", "0.01",
         "--s-min", "0.1"),
        ("scan-jump", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--root-tol", "1e-8"),
        # the end-node offset is fixed at variational.DEFAULT_OFFSET
        ("solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--offset", "1e-6"),
        ("map", "--p", "1", "--q", "2", "--lambda", "1:1:1", "--mu", "1:1:1", "--offset", "1e-6"),
        ("blowup", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--offset", "1e-6"),
        # the mismatch map comes from the shooting run
        ("solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--mismatch-map", "m.csv"),
    ])
    def test_bad_usage_exits_one_without_summary(self, tmp_path, argv):
        # argparse would exit 2, the code for "no sign change"
        with pytest.raises(SystemExit) as info:
            run(tmp_path, *argv)
        assert info.value.code == 1
        assert not (tmp_path / "summary.json").exists()


class TestScanJump:
    def test_writes_scan_with_bracket(self, tmp_path):
        rc = run(
            tmp_path, "scan-jump", "--p", "1", "--q", "2", "--lambda", "1",
            "--mu", "4", "--n", "600", "--n-scan", "8", "--s-min", "0.05",
            "--s-max", "1.4",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "sign_change"
        assert summary["brackets"]
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "s,l,l_tilde,I_s,I_s1,I_s2,converged"
        assert len(lines) == 9

    def test_deterministic_output(self, tmp_path):
        args = [
            "scan-jump", "--p", "1", "--q", "2", "--lambda", "1", "--mu", "4",
            "--n", "400", "--n-scan", "4", "--s-min", "0.2", "--s-max", "1.0",
        ]
        run(tmp_path / "a", *args)
        run(tmp_path / "b", *args)
        assert (tmp_path / "a/scan.csv").read_bytes() == (
            tmp_path / "b/scan.csv"
        ).read_bytes()


class TestMap:
    def test_parallel_matches_serial_bytes(self, tmp_path):
        base = [
            "map", "--p", "1", "--q", "2", "--lambda", "1:2:2", "--mu", "2:5:2",
            "--n", "400", "--n-scan", "4", "--s-min", "0.2", "--s-max", "1.0",
        ]
        run(tmp_path / "serial", *base, "--jobs", "1")
        run(tmp_path / "par", *base, "--jobs", "2")
        assert (tmp_path / "serial/map.csv").read_bytes() == (
            tmp_path / "par/map.csv"
        ).read_bytes()

    def test_range_syntax_and_csv(self, tmp_path):
        rc = run(
            tmp_path, "map", "--p", "1", "--q", "1", "--lambda", "1:2:2",
            "--mu", "1:2:2", "--n", "400", "--n-scan", "6",
            "--s-min", "0.2", "--s-max", "1.3",
        )
        assert rc == 0
        lines = (tmp_path / "map.csv").read_text().splitlines()
        assert lines[0] == "lambda,mu,verdict,s_star"
        assert len(lines) == 5
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_solution_found"] == 2
        assert summary["n_no_sign_change"] == 2
        assert summary["config"]["n_scan"] == 6

    def test_forwards_mesh_settings_and_records_used(self, tmp_path, monkeypatch):
        seen = {}

        def fake_map(p, q, lam_range, mu_range, n_lam, n_mu, **opts):
            seen.update(opts)
            return [analysis.SolvabilityCell(lam=1.0, mu=1.0, verdict="no_sign_change")]

        monkeypatch.setattr(analysis, "solvability_map", fake_map)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("root_tol = 1e-7\ns_min = 0.1\n")
        rc = run(
            tmp_path, "map", "--p", "1", "--q", "2", "--lambda", "1:1:1",
            "--mu", "1:1:1", "--config", str(cfg), "--s-min", "0.05",
            "--n", "4000", "--n-scan", "6",
        )
        assert rc == 0
        assert seen["root_tol"] == 1e-7  # from the config file
        assert seen["s_min"] == 0.05  # the flag overrides the config
        summary = json.loads((tmp_path / "summary.json").read_text())
        config = summary["config"]
        assert {"n": config["n"], "n_scan": config["n_scan"]} == {
            "n": seen["grid_n"], "n_scan": seen["n_scan"]}
        assert (config["n"], config["n_scan"]) == (analysis.MAP_GRID_N, 6)
        assert (config["root_tol"], config["s_min"]) == (1e-7, 0.05)

    def test_n_scan_from_config_else_map_default(self, tmp_path, monkeypatch):
        seen = []

        def fake_map(p, q, lam_range, mu_range, n_lam, n_mu, **opts):
            seen.append(opts["n_scan"])
            return [analysis.SolvabilityCell(lam=1.0, mu=1.0, verdict="no_sign_change")]

        monkeypatch.setattr(analysis, "solvability_map", fake_map)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_scan = 5\n")
        args = ("map", "--p", "1", "--q", "2", "--lambda", "1:1:1", "--mu", "1:1:1")
        assert run(tmp_path, *args, "--config", str(cfg)) == 0
        assert run(tmp_path, *args) == 0
        assert seen == [5, analysis.MAP_N_SCAN]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["n_scan"] == analysis.MAP_N_SCAN
        assert summary["config"]["n"] == analysis.MAP_GRID_N

    def test_bad_range(self, tmp_path):
        rc = run(tmp_path, "map", "--p", "1", "--q", "2", "--lambda", "1:2",
                 "--mu", "1:6:10")
        assert rc == 1

    def test_empty_range_refused(self, tmp_path):
        rc = run(tmp_path, "map", "--p", "1", "--q", "2", "--lambda", "1:2:5",
                 "--mu", "1:6:0")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error" and summary["files_written"] == []
        assert summary["error"] == "ValueError: mu range 1:6:0 has no values; use count >= 1"
        assert not (tmp_path / "map.csv").exists()

    def test_repeated_cell_refused(self, tmp_path):
        rc = run(tmp_path, "map", "--p", "1", "--q", "2", "--lambda", "1:1:1",
                 "--mu", "4:4:3")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error" and summary["files_written"] == []
        assert summary["error"] == "ValueError: mu range 4:4:3 repeats one value; use count 1"
        assert not (tmp_path / "map.csv").exists()


class TestFailureReasons:
    PARAMS = ("--p", "1", "--q", "2", "--lambda", "1", "--mu", "4")
    QUICK = ("--n", "600", "--n-scan", "8", "--s-min", "0.05", "--s-max", "1.45")

    @staticmethod
    def fail_glue(monkeypatch, fails):
        """Make the glues whose call index passes ``fails`` raise ConvergenceError."""
        seen = []
        real = analysis.glue

        def glue(s, *args, **kwargs):
            seen.append(s)
            if fails(len(seen) - 1):
                raise ConvergenceError(f"injected failure at s={s}")
            return real(s, *args, **kwargs)

        monkeypatch.setattr(analysis, "glue", glue)
        return seen

    @pytest.mark.parametrize("command", ["solve", "scan-jump"])
    def test_failed_scan_row_keeps_its_reason(self, tmp_path, monkeypatch, command):
        seen = self.fail_glue(monkeypatch, lambda i: i == 2)
        run(tmp_path, command, *self.PARAMS, *self.QUICK)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["failed_rows"] == [
            {"s": seen[2], "reason": f"injected failure at s={seen[2]}"}
        ]
        rows = (tmp_path / "scan.csv").read_text().splitlines()[1:]
        assert [row.endswith(",0") for row in rows] == [i == 2 for i in range(8)]

    def test_scan_without_two_converged_rows_is_failed(self, tmp_path, monkeypatch):
        # no jump value, so no sign: not the no_sign_change exit code 2
        seen = self.fail_glue(monkeypatch, lambda i: True)
        assert run(tmp_path, "solve", *self.PARAMS, *self.QUICK) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "failed"
        assert summary["message"].startswith("0 of 8 scan rows converged")
        assert summary["message"].endswith(f"at s={seen[0]}: injected failure at s={seen[0]}")

    def test_inconclusive_map_cell_keeps_its_reason(self, tmp_path, monkeypatch):
        # the scan glues succeed, the first root-search glue fails
        seen = self.fail_glue(monkeypatch, lambda i: i >= 8)
        rc = run(tmp_path, "map", "--p", "1", "--q", "2", "--lambda", "1:1:1",
                 "--mu", "4:4:1", *self.QUICK)
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_inconclusive"] == 1
        [cell] = summary["inconclusive_cells"]
        assert (cell["lambda"], cell["mu"]) == (1.0, 4.0)
        assert f"injected failure at s={seen[8]}" in cell["reason"]
        assert "root search stopped" in cell["reason"]
        # the reason stays out of the CSV
        assert (tmp_path / "map.csv").read_text() == "lambda,mu,verdict,s_star\n1,4,inconclusive,\n"


class TestBlowupAndCompare:
    def test_blowup_csv(self, tmp_path):
        rc = run(
            tmp_path, "blowup", "--p", "1", "--q", "2", "--lambda", "1",
            "--mu", "4", "--s-list", "0.04,0.02", "--n", "800",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["decreasing"] is True
        assert all(r["bound_ok"] and r["Is1_scaled"] > 0 and r["Is2_ratio"] > 0
                   for r in summary["rows"])
        lines = (tmp_path / "blowup.csv").read_text().splitlines()
        assert lines[0] == "s,sup_distance"

    def test_blowup_refuses_p_other_than_one(self, tmp_path):
        rc = run(tmp_path, "blowup", "--p", "2", "--q", "2", "--lambda", "2", "--mu", "2",
                 "--s-list", "0.04,0.02")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error" and "p = 1 only" in summary["error"]
        assert not (tmp_path / "blowup.csv").exists()

    def test_compare_auto_config(self, tmp_path):
        rc = run(
            tmp_path, "compare", "--p", "1", "--q", "2", "--lambda", "1",
            "--mu", "4", "--s", "0.01", "--n", "800",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "ordering_holds"
        assert summary["report"]["supersolution_ok"] is True


class TestHopfEval:
    def test_reports_norm_and_poles(self, tmp_path):
        rc = run(
            tmp_path / "solve", "solve", "--p", "1", "--q", "2", "--lambda", "1",
            "--mu", "4", "--n", "600", "--n-scan", "8",
            "--s-min", "0.05", "--s-max", "1.45",
        )
        assert rc == 0
        rc = run(
            tmp_path, "hopf-eval", "--profile", str(tmp_path / "solve/profile.csv"),
            "--kind", "restricted3", "--samples", "2000",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_norm_error"] <= 1e-10
        assert summary["north_pole_error"] <= 1e-3
        assert summary["south_pole_error"] <= 1e-3

    def test_sample_count(self, tmp_path):
        (tmp_path / "p.csv").write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\n0.2,0.4,2,0\n0.3,0.6,2,0\n")
        argv = ("hopf-eval", "--profile", str(tmp_path / "p.csv"), "--kind", "complex")
        assert run(tmp_path, *argv, "--samples", "0") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_norm_error"] == 0.0
        # the two pole points are still drawn and evaluated: alpha is 0.2 and 0.6
        # at the ends, so a unit f(x, y) puts them 2 sin(0.1) and 2 cos(0.3) off
        assert summary["north_pole_error"] == pytest.approx(2.0 * math.sin(0.1), rel=1e-12)
        assert summary["south_pole_error"] == pytest.approx(2.0 * math.cos(0.3), rel=1e-12)
        assert run(tmp_path, *argv, "--samples", "-1") == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert "--samples" in summary["error"]

    def test_one_column_csv_is_not_a_profile(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t\n0.1\n0.2\n0.3\n")
        assert run(tmp_path, "hopf-eval", "--profile", str(path), "--kind", "complex") == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert summary["error"].startswith(f"ValueError: {path} is not a profile CSV")

    @pytest.mark.parametrize("t_first, t_last", [(0.1, 1.5707963267948966), (0.0, 0.3), (-0.1, 0.3)])
    def test_profile_outside_open_interval(self, tmp_path, t_first, t_last):
        # the t column must lie in (0, pi/2): the grid's range check rejects the file
        rows = [(t_first, 0.2), (0.2, 0.4), (t_last, 3.0)]
        (tmp_path / "p.csv").write_text(
            "t,alpha,dalpha,residual\n" + "".join(f"{t!r},{a},2,0\n" for t, a in rows)
        )
        rc = run(tmp_path, "hopf-eval", "--profile", str(tmp_path / "p.csv"),
                 "--kind", "complex")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert summary["error"].startswith("DomainError: grid nodes must lie in (0, ")

    def test_nan_node_is_an_error(self, tmp_path):
        (tmp_path / "p.csv").write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\nnan,0.4,2,0\n0.3,0.6,2,0\n")
        rc = run(tmp_path, "hopf-eval", "--profile", str(tmp_path / "p.csv"), "--kind", "complex")
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert summary["error"] == "ValueError: grid nodes must be strictly increasing"

    @pytest.mark.parametrize("kind", ["complex", "quaternion", "octonion",
                                      "restricted3", "restricted5", "restricted9"])
    def test_kinds_on_the_identity_profile(self, tmp_path, kind):
        # the tolerances of the certify-assemble bench, on the profile it builds
        nodes = core.graded_grid(1e-7, core.HALF_PI - 1e-7, 2001)
        identity = core.Profile(core.Grid(nodes), identity_solution(nodes))
        write_profile_csv(identity, core.HopfParams(1, 1, 1.0, 1.0), tmp_path / "p.csv")
        assert run(tmp_path, "hopf-eval", "--profile", str(tmp_path / "p.csv"), "--kind", kind,
                   "--samples", "10000", "--seed", "101") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_norm_error"] <= 1e-12
        assert summary["north_pole_error"] <= 1e-5 and summary["south_pole_error"] <= 1e-5

    def test_same_seed_same_summary(self, tmp_path):
        (tmp_path / "p.csv").write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\n0.2,0.4,2,0\n0.3,0.6,2,0\n")
        argv = ("hopf-eval", "--profile", str(tmp_path / "p.csv"), "--kind", "octonion",
                "--samples", "500", "--seed", "7")
        assert run(tmp_path / "a", *argv) == 0 and run(tmp_path / "b", *argv) == 0
        summaries = [(tmp_path / side / "summary.json").read_bytes() for side in "ab"]
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits(self, tmp_path, seed):
        (tmp_path / "p.csv").write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\n0.2,0.4,2,0\n0.3,0.6,2,0\n")
        argv = ("hopf-eval", "--profile", str(tmp_path / "p.csv"), "--kind", "complex")
        assert run(tmp_path, *argv, "--seed", seed) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["verdict"] == "error"
        assert summary["error"].startswith("ValueError: --seed must be in [0, 2**64)")
        assert run(tmp_path, *argv, "--seed", str(2**64 - 1)) == 0

    def test_unknown_kind(self, tmp_path):
        (tmp_path / "p.csv").write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\n0.2,0.4,2,0\n0.3,0.6,2,0\n")
        rc = run(tmp_path, "hopf-eval", "--profile", str(tmp_path / "p.csv"),
                 "--kind", "sedenion")
        assert rc == 1


class TestSampler:
    def test_t_is_the_splitmix64_stream(self):
        # the first outputs of SplitMix64 from seed 1234567, as published with
        # its reference implementation; t on [0, 1] is their top 53 bits
        outputs = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                   4593380528125082431, 16408922859458223821]
        t, _, _ = _sample(1234567, 5, 0.0, 1.0, 2, 2)
        assert t.tolist() == [(z >> 11) * 2.0**-53 for z in outputs]

    def test_seeds_give_other_samples(self):
        a, b = _sample(0, 100, 0.0, 1.0, 2, 3), _sample(1, 100, 0.0, 1.0, 2, 3)
        for u, v in zip(a, b):
            assert not np.any(u == v)

    def test_moments(self):
        # each statistic within 5 standard deviations of its value for the
        # uniform law on [0, 1) and the uniform laws on S^2 and S^4
        n = 100_000
        t, x, y = _sample(20141020, n, 0.0, 1.0, 3, 5)
        assert 0.0 <= t.min() and t.max() < 1.0
        assert abs(t.mean() - 0.5) <= 5.0 * math.sqrt(1.0 / 12.0 / n)
        assert abs(t.var() - 1.0 / 12.0) <= 5.0 * math.sqrt((1.0 / 80.0 - 1.0 / 144.0) / n)
        for v, k in ((x, 3), (y, 5)):
            assert v.shape == (n, k)
            assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-15)
            # one component u: E u = 0, E u^2 = 1/k, E u^4 = 3/(k(k+2))
            assert np.all(np.abs(v.mean(axis=0)) <= 5.0 * math.sqrt(1.0 / k / n))
            spread = 5.0 * math.sqrt((3.0 / (k * (k + 2)) - 1.0 / k**2) / n)
            assert np.all(np.abs((v * v).mean(axis=0) - 1.0 / k) <= spread)

    def test_both_box_muller_outputs(self):
        # with k = l = 1, x holds the signs of the cosine outputs and y those
        # of the sine outputs of the same pairs: each quadrant takes a quarter
        n = 100_000
        _, x, y = _sample(7, n, 0.0, 1.0, 1, 1)
        quadrants = np.bincount(2 * (x[:, 0] > 0) + (y[:, 0] > 0), minlength=4) / n
        assert np.all(np.abs(quadrants - 0.25) <= 5.0 * math.sqrt(0.25 * 0.75 / n))


class TestConfig:
    def test_parse_range(self):
        assert _parse_range("1:2:5") == (1.0, 2.0, 5)
        for text in ("1:2", "1:2:3:4", "1:2:2.5", "1:x:3"):
            with pytest.raises(ValueError, match=f"^range flag must be min:max:count, count an "
                                                 f"integer, got '{text}'$"):
                _parse_range(text)

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 300\ns-min = 0.3\n# comment\njobs=1\n")
        rc = run(
            tmp_path, "scan-jump", "--p", "1", "--q", "1", "--lambda", "1",
            "--mu", "1", "--config", str(cfg), "--n-scan", "3",
            "--s-max", "1.2", "--n", "250",
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["s_min"] == 0.3  # from config file
        assert summary["config"]["n"] == 250  # flag overrides config

    def test_unknown_config_key_rejected(self, tmp_path):
        # grading and offset: the mesh exponent and the end-node distance are
        # fixed in core.graded_grid and at variational.DEFAULT_OFFSET
        for key in ("gradient_tol", "grading", "offset"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"n = 300\n{key} = 2.0\n")
            rc = run(
                tmp_path, "scan-jump", "--p", "1", "--q", "1", "--lambda", "1",
                "--mu", "1", "--config", str(cfg),
            )
            assert rc == 1
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["verdict"] == "error"
            assert f"unknown config key {key!r}" in summary["error"]

    def test_config_key_the_command_does_not_read_is_ignored(self, tmp_path):
        # blowup reads no scan setting, so the file's s_max and n_scan are neither
        # applied nor parsed there (2.5 is no int); solve reads s_max and rejects it
        unread = tmp_path / "unread.cfg"
        unread.write_text("n = 300\nn_scan = 2.5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 300\ns_max = 2\n")
        params = ("--p", "1", "--q", "2", "--lambda", "1", "--mu", "4", "--config", str(cfg))
        for path in (unread, cfg):
            out = tmp_path / "blowup"
            assert run(out, "blowup", *params[:-1], str(path), "--s-list", "0.04") == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["config"] == {"n": 300}  # blowup has flags for no other setting
        out = tmp_path / "solve"
        assert run(out, "solve", *params) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == (
            "ValueError: need 0 < s_min < s_max < pi/2, got s_min=0.02, s_max=2.0")

    PROBLEM = ("--p", "1", "--q", "2", "--lambda", "1", "--mu", "4")

    @pytest.mark.parametrize("argv, error", [
        (("scan-jump", *PROBLEM, "--s-min", "0.5", "--s-max", "0.2"),
         "need 0 < s_min < s_max < pi/2, got s_min=0.5, s_max=0.2"),
        (("scan-jump", *PROBLEM, "--n-scan", "1"), "need at least 2 scan points, got n_scan=1"),
        (("solve", *PROBLEM, "--root-tol", "0"), "root_tol must be > 0, got 0.0"),
        (("solve", *PROBLEM, "--root-tol", "nan"), "root_tol must be > 0, got nan"),
        (("map", "--p", "1", "--q", "2", "--lambda", "1:2:2", "--mu", "1:6:2", "--jobs", "0"),
         "jobs must be >= 1, got 0"),
        # the upper end: the range would reach a cell at lambda = 0
        (("map", "--p", "1", "--q", "2", "--lambda", "1:-1:3", "--mu", "1:6:10"),
         "lambda and mu ranges must be positive and finite, got lambda range 1:-1:3"),
        (("map", "--p", "1", "--q", "2", "--lambda", "1:2:2", "--mu", "0:6:2"),
         "lambda and mu ranges must be positive and finite, got mu range 0:6:2"),
        (("map", "--p", "1", "--q", "2", "--lambda", "1:inf:3", "--mu", "1:6:2"),
         "lambda and mu ranges must be positive and finite, got lambda range 1:inf:3"),
    ])
    def test_refusal_names_its_values(self, tmp_path, argv, error):
        assert run(tmp_path, *argv) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["verdict"], summary["files_written"]) == ("error", [])
        assert summary["error"] == "ValueError: " + error

    @pytest.mark.parametrize("line, error", [
        ("n = 2.5", "config key 'n' in {} needs int, got '2.5'"),
        ("s_min = small", "config key 's_min' in {} needs float, got 'small'"),
    ])
    def test_bad_config_value_names_key_and_file(self, tmp_path, line, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run(tmp_path, "scan-jump", *self.PROBLEM, "--config", str(cfg)) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["error"] == "ValueError: " + error.format(cfg)

    @pytest.mark.parametrize("argv, library", [
        (("solve", *PROBLEM), "find_solution"),
        (("map", "--p", "1", "--q", "2", "--lambda", "1:1:1", "--mu", "4:4:1"), "solvability_map"),
    ], ids=["solve", "map"])
    def test_defaults_are_the_library_defaults(self, tmp_path, monkeypatch, argv, library):
        # with no setting flag, a command passes each setting the library reads at the
        # library's own default, and its config lists those values
        real = getattr(analysis, library)
        signature = inspect.signature(real)
        seen = {}

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            seen.update(bound.arguments)
            bound.arguments.update(grid_n=200, n_scan=4)  # a quick run in their place
            return real(*bound.args, **bound.kwargs)

        monkeypatch.setattr(analysis, library, record)
        run(tmp_path, *argv)
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        name = {"n": "grid_n"}
        defaults = {k: v.default for k, v in signature.parameters.items()
                    if v.default is not inspect.Parameter.empty}
        assert {name.get(k, k) for k in config} == set(defaults)
        assert {k: seen[name.get(k, k)] for k in config} == config
        assert {k: defaults[name.get(k, k)] for k in config} == config
        if library == "solvability_map":
            assert (config["n"], config["n_scan"], config["jobs"]) == (1000, 14, 1)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPF_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["verify"])
        assert rc == 0
        assert (tmp_path / "envout/summary.json").exists()


class TestSummaryEnvelope:
    """The top-level keys of summary.json, and --json echoing the file."""

    PARAMS = ("--p", "1", "--q", "2", "--lambda", "1", "--mu", "4")
    QUICK = ("--n", "600", "--n-scan", "8", "--s-min", "0.05", "--s-max", "1.45")
    SOLVE = {
        "boundary_error_pi", "boundary_error_zero", "command", "config", "failed_rows",
        "files_written", "glued", "max_residual", "message", "outside_proven_regime",
        "params", "s_star", "verdict",
    }
    ERROR = {"command", "error", "files_written", "verdict"}

    @staticmethod
    def profile(tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("t,alpha,dalpha,residual\n0.1,0.2,2,0\n0.2,0.4,2,0\n0.3,0.6,2,0\n")
        return str(path)

    # the settings each solver command has flags for; verify and hopf-eval have none
    SETTINGS = {
        "solve": {"n", "root_tol", "s_min", "s_max", "n_scan"},
        "scan-jump": {"n", "s_min", "s_max", "n_scan"},
        "map": {"n", "root_tol", "s_min", "s_max", "n_scan", "jobs"},
        "blowup": {"n"},
        "compare": {"n"},
    }

    @pytest.mark.parametrize("argv", [
        ("solve", *PARAMS, "--n", "200", "--n-scan", "4"),
        ("scan-jump", *PARAMS, "--n", "200", "--n-scan", "4"),
        ("map", "--p", "1", "--q", "2", "--lambda", "1:1:1", "--mu", "4:4:1", "--n", "200",
         "--n-scan", "4"),
        ("blowup", *PARAMS, "--s-list", "0.04", "--n", "200"),
        ("compare", *PARAMS, "--s", "0.01", "--n", "200"),
    ], ids=lambda argv: argv[0])
    def test_config_lists_the_settings_the_command_reads(self, tmp_path, argv):
        flags = set(vars(build_parser().parse_args(argv))) & set(SETTINGS)
        assert flags == self.SETTINGS[argv[0]]
        assert run(tmp_path, *argv) in (0, 2)
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert set(config) == flags
        assert config["n"] == 200 and config.get("n_scan", 4) == 4

    @pytest.mark.parametrize("argv, rc, keys", [
        (("solve", *PARAMS, *QUICK), 0, SOLVE),
        (("solve", *PARAMS, *QUICK, "--cross-check"), 0,
         SOLVE | {"pipeline_sup_distance", "shooting_c0", "shooting_c1",
                  "shooting_max_scaled_residual", "shooting_message", "shooting_verdict"}),
        (("scan-jump", *PARAMS, *QUICK), 0, {
            "brackets", "command", "config", "failed_rows", "files_written",
            "n_converged", "outside_proven_regime", "params", "verdict",
        }),
        (("map", "--p", "1", "--q", "2", "--lambda", "1:1:1", "--mu", "4:4:1", *QUICK), 0, {
            "command", "config", "files_written", "inconclusive_cells", "n_inconclusive",
            "n_no_sign_change", "n_solution_found", "params", "verdict",
        }),
        (("blowup", *PARAMS, "--s-list", "0.04", "--n", "400"), 0,
         {"command", "config", "decreasing", "eps", "files_written", "params", "rows"}),
        (("compare", *PARAMS, "--s", "0.01", "--n", "400"), 0,
         {"command", "config", "files_written", "params", "report", "verdict"}),
        (("verify",), 0, {"command", "files_written", "rows", "verdict"}),
        (("hopf-eval", "--profile", "{profile}", "--kind", "complex", "--samples", "10"), 0, {
            "command", "files_written", "kind", "max_norm_error", "north_pole_error",
            "samples", "seed", "south_pole_error",
        }),
        (("solve", *PARAMS, "--n", "8"), 1, ERROR),
        (("scan-jump", *PARAMS, "--config", "{missing}"), 1, ERROR),
    ])
    def test_keys_and_json_echo(self, tmp_path, capsys, argv, rc, keys):
        fill = {"profile": self.profile(tmp_path), "missing": str(tmp_path / "none.cfg")}
        argv = [arg.format(**fill) for arg in argv]
        assert run(tmp_path, *argv, "--json") == rc
        out, err = capsys.readouterr()
        text = (tmp_path / "summary.json").read_text()
        summary = json.loads(text)
        assert set(summary) == keys
        assert summary["command"] == argv[0]
        # verify prints its table first; every other command prints only the echo
        assert out == text if argv[0] != "verify" else out.endswith(text)
        if rc == 1:
            assert summary["verdict"] == "error" and summary["files_written"] == []
            assert err == "error: " + summary["error"].split(": ", 1)[1] + "\n"
