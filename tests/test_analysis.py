import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from hopfbvp import analysis, variational
from hopfbvp.analysis import (
    auto_comparison_config,
    comparison_check,
    find_solution,
    scan_jump,
    small_s_report,
    solvability_map,
    write_map_csv,
    write_scan_csv,
)
from hopfbvp.core import HALF_PI, ConvergenceError, Grid, HopfParams, Profile, graded_grid


class TestScanJump:
    def test_straight_family_zero_jump(self, params_flat):
        scan = scan_jump(params_flat, 0.3, 1.2, 5, grid_n=1200)
        assert all(r.converged for r in scan.rows)
        assert all(abs(r.l) <= 1e-5 for r in scan.rows)

    def test_main_regime_has_bracket(self, params_main):
        scan = scan_jump(params_main, 0.05, 1.45, 10, grid_n=800)
        assert scan.brackets
        svals = [r.s for r in scan.rows]
        assert svals == sorted(svals)
        lo, hi = scan.brackets[0]
        l_by_s = {r.s: r.l for r in scan.rows}
        assert l_by_s[lo] * l_by_s[hi] < 0.0

    def test_sign_consistency_and_cross_check(self, params_main):
        scan = scan_jump(params_main, 0.05, 1.45, 8, grid_n=800)
        for r in scan.rows:
            if r.converged and abs(r.l) > 1e-7:
                assert math.copysign(1, r.l) == math.copysign(1, r.I_s)
                assert abs(r.l - r.l_tilde) <= max(1e-4, 1e-2 * abs(r.l))

    def test_below_threshold_no_bracket(self):
        params = HopfParams(p=1, q=2, lam=1.0, mu=1.9)
        scan = scan_jump(params, 0.05, 1.4, 8, grid_n=600)
        assert not scan.brackets
        assert all(r.l < 0 for r in scan.rows if r.converged)

    def test_parallel_matches_serial(self, params_main):
        a = scan_jump(params_main, 0.1, 1.0, 4, grid_n=500, jobs=1)
        b = scan_jump(params_main, 0.1, 1.0, 4, grid_n=500, jobs=2)
        assert [r.s for r in a.rows] == [r.s for r in b.rows]
        assert [r.l for r in a.rows] == [r.l for r in b.rows]

    def test_energy_bound_over_scan(self, params_main):
        scan = scan_jump(params_main, 0.05, 1.45, 8, grid_n=800)
        totals = [r.J_interior + r.J_exterior for r in scan.rows if r.converged]
        assert max(totals) <= 10.0 * float(np.median(totals))

    def test_csv_write(self, tmp_path, params_main):
        scan = scan_jump(params_main, 0.2, 1.0, 3, grid_n=400)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,l,l_tilde,I_s,I_s1,I_s2,converged"
        assert len(lines) == 4


class TestFindSolution:
    def test_main_regime(self, params_main):
        out = find_solution(params_main, s_min=0.05, s_max=1.45, n_scan=10,
                            grid_n=1000)
        assert out.verdict == "solution_found"
        assert abs(out.glued.l) <= 1e-6
        # the 1e-4 residual contract holds at the default n=2000 (acceptance
        # suite); at this test's n=1000 the h^2 scaling allows 4x more
        assert out.max_residual_away <= 5e-4
        assert out.boundary_error_zero <= 1e-3
        assert out.boundary_error_pi <= 1e-3
        prof = out.glued.merged_profile()
        assert np.all(np.diff(prof.values) > 0.0)

    def test_p2_q2(self):
        params = HopfParams(p=2, q=2, lam=2.0, mu=2.0)
        out = find_solution(params, s_min=0.1, s_max=1.4, n_scan=10, grid_n=800)
        assert out.verdict == "solution_found"

    def test_below_threshold_q3(self):
        params = HopfParams(p=1, q=3, lam=1.0, mu=2.0)
        out = find_solution(params, s_min=0.05, s_max=1.4, n_scan=8, grid_n=600)
        assert out.verdict == "no_sign_change"

    def test_flat_family_root_at_scan_point(self, params_flat):
        out = find_solution(params_flat, s_min=0.3, s_max=1.2, n_scan=5, grid_n=800)
        assert out.verdict == "solution_found"
        assert abs(out.glued.l) <= 1e-6


class TestRootSearch:
    """Brent's method on the jump: glue count and the two failure exits."""

    QUICK = dict(s_min=0.05, s_max=1.45, n_scan=8, grid_n=600)

    @staticmethod
    def record_glues(monkeypatch, fail_after=None):
        """Record the s of every glue; raise ConvergenceError after fail_after."""
        seen = []
        real = analysis.glue

        def glue(s, *args, **kwargs):
            seen.append(s)
            if fail_after is not None and len(seen) > fail_after:
                raise ConvergenceError(f"injected failure at s={s}")
            return real(s, *args, **kwargs)

        monkeypatch.setattr(analysis, "glue", glue)
        return seen

    def test_main_regime_glue_count(self, params_main, monkeypatch):
        seen = self.record_glues(monkeypatch)
        out = find_solution(params_main)
        assert out.verdict == "solution_found"
        assert len(seen) <= 20  # 16 scan glues, then the root search
        scanned = {r.s for r in out.scan.rows}
        root_glues = seen[len(out.scan.rows):]
        assert root_glues and scanned.isdisjoint(root_glues)
        # the glue that met the tolerance is the one certified, not re-glued
        assert out.s_star == root_glues[-1] == out.glued.s

    def test_convergence_error_at_root_glue(self, params_main, monkeypatch):
        n_scan = self.QUICK["n_scan"]
        seen = self.record_glues(monkeypatch, fail_after=n_scan)
        out = find_solution(params_main, **self.QUICK)
        assert out.verdict == "failed"
        assert len(seen) == n_scan + 1  # no retry after the failure
        assert f"s={seen[-1]}" in out.message
        assert "root search stopped" in out.message
        assert "last |l|" not in out.message

    def test_root_at_scan_point_glued_once(self, params_flat, monkeypatch):
        seen = self.record_glues(monkeypatch)
        out = find_solution(params_flat, s_min=0.3, s_max=1.2, n_scan=5, grid_n=800)
        assert out.verdict == "solution_found"
        # the scan's five glues and no sixth for the certified scan point
        assert seen == [r.s for r in out.scan.rows]
        assert seen[-1] == 1.2
        assert out.glued.s == out.s_star

    def test_bracket_below_xtol_fails_without_a_glue(self, params_main, monkeypatch):
        # brentq returns before its first step when the bracket is narrower
        # than its xtol (2e-12): no glue is made, so no last jump is known
        seen = self.record_glues(monkeypatch)
        lo, hi = 0.5, 0.5 + 1e-12
        rows = [analysis.ScanRow(s=lo, l=1e-3, converged=True),
                analysis.ScanRow(s=hi, l=-1e-3, converged=True)]
        scan = analysis.ScanResult(params_main, rows, brackets=[(lo, hi)])
        out = analysis._finish(scan, grid_n=600, root_tol=analysis.ROOT_TOL)
        assert seen == []
        assert (out.verdict, out.s_star, out.glued) == ("failed", None, None)
        assert out.message.endswith("(last |l| = nan)")

    def test_unreachable_tolerance_reports_last_jump(self, params_main):
        # l is quantized by rounding near the root and can be exactly 0.0 there
        # (at grid_n = 600 it is); at grid_n = 700 the search never meets 0
        out = find_solution(params_main, root_tol=1e-300, **{**self.QUICK, "grid_n": 700})
        assert out.verdict == "failed"
        assert "root search stopped" not in out.message
        last = float(re.search(r"last \|l\| = (\S+)\)", out.message).group(1))
        assert 1e-300 < last < 1e-6


class TestBlowupCompare:
    def test_distance_decreases(self, params_main):
        far, near = small_s_report(params_main, [0.04, 0.02], 0.1, grid_n=1200)
        assert near.sup_distance < far.sup_distance

    def test_junction_pinned(self, params_main):
        from hopfbvp.variational import glue

        g = glue(0.02, params_main, n=800)
        gamma_at_1 = g.merged_profile().interpolate(0.02)
        assert gamma_at_1 == pytest.approx(HALF_PI, abs=1e-12)

    def test_eps_validation(self, params_main):
        with pytest.raises(ValueError):
            small_s_report(params_main, [0.02], 1.5)

    def test_p_other_than_one_refused_before_a_glue(self, monkeypatch):
        # the limit profile and the I_s split are p = 1's; (2, 2, 2, 2) read a
        # sup distance of 0.387 that did not shrink
        seen = TestRootSearch.record_glues(monkeypatch)
        with pytest.raises(ValueError, match="p = 1 only"):
            small_s_report(HopfParams(2, 2, 2.0, 2.0), [0.04, 0.02], 0.1)
        assert seen == []

    def test_one_glue_per_s(self, params_main, monkeypatch):
        seen = TestRootSearch.record_glues(monkeypatch)
        rows = small_s_report(params_main, [0.04, 0.02, 0.01], 0.1, grid_n=400)
        assert seen == [r.s for r in rows] == [0.04, 0.02, 0.01]


class TestIsTrends:
    def test_is1_positive(self, params_main):
        rows = small_s_report(params_main, [0.04, 0.02], 0.1, grid_n=800)
        assert all(r.Is1_scaled > 0 for r in rows)

    def test_is1_grows_at_lam1(self, params_main):
        rows = small_s_report(params_main, [0.04, 0.02, 0.01], 0.1, grid_n=1200)
        assert rows[0].Is1_scaled < rows[1].Is1_scaled < rows[2].Is1_scaled

    def test_is2_split(self, params_main):
        # eps = 0.02 splits I_s^2 at t = 50 s
        rep, rep2 = small_s_report(params_main, [0.01, 0.005], 0.02, grid_n=1200)
        assert rep.bound_ok
        assert rep.A_s > 0 and rep.B_s > 0 and rep.Is2_ratio > 0
        assert rep2.Is2_ratio < rep.Is2_ratio

    @pytest.mark.parametrize("on_node", [False, True])
    def test_is2_split_is_scipy_simpson(self, on_node):
        # the two parts are scipy's simpson over [0, cut] and [cut, pi/2]; a
        # node on the cut is their shared end, not a zero-length interval
        t = graded_grid(1e-7, HALF_PI - 1e-7, 301)
        prof = Profile(Grid(t), 2.0 * t)
        cut = float(t[140]) if on_node else 0.5 * float(t[140] + t[141])
        inner, outer = t[t < cut], t[t > cut]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = analysis._split_Is2(prof, 2, cut)
        for part, ts in zip(parts, (np.r_[0.0, inner, cut], np.r_[cut, outer, HALF_PI])):
            g = np.sin(ts) ** 3 * np.cos(ts) * np.sin(2.0 * ts) ** 2
            assert part == pytest.approx(simpson(g, x=ts), rel=1e-14)


class TestComparison:
    def test_auto_config_and_ordering(self, params_main):
        s, d, t0 = auto_comparison_config(0.01, params_main)
        rep = comparison_check(s, d, t0, params_main, grid_n=1500)
        assert rep.hypothesis_met
        assert rep.ordering_ok
        assert rep.supersolution_ok
        assert rep.n_nodes_checked > 0

    def test_no_scale_names_the_junctions_tried(self, params_main):
        # R s >= pi/2 at s = 0.3 and both halvings, so no d is searched
        with pytest.raises(ValueError) as info:
            auto_comparison_config(0.3, params_main)
        assert str(info.value).endswith("for s in [0.3, 0.15, 0.075]")

    def test_hypothesis_not_met_reported(self, params_main):
        # d too large: psi at t0 falls below the threshold angle
        rep = comparison_check(0.01, 49.0, 0.5, params_main, grid_n=600)
        assert not rep.hypothesis_met
        assert math.isnan(rep.min_gap)

    def test_supersolution_endpoint_algebra(self, params_main):
        # at psi = pi the bracket is (mu - lam) - sqrt(lam)(q-1) > 0 for mu > lam q
        lam, mu, q = params_main.lam, params_main.mu, params_main.q
        val = (lam - mu) * math.cos(math.pi) - math.sqrt(lam) * (q - 1)
        assert val == pytest.approx(mu - lam - math.sqrt(lam) * (q - 1), abs=1e-15)
        assert val > 0.0

    def test_factor_vanishes_at_threshold(self, params_main):
        from hopfbvp.closed_forms import theta_threshold

        theta = theta_threshold(params_main)
        lam, mu, q = params_main.lam, params_main.mu, params_main.q
        val = (lam - mu) * math.cos(theta) - math.sqrt(lam) * (q - 1)
        assert abs(val) < 1e-13


class TestSolvabilityMap:
    def test_small_threshold_slice(self):
        cells = solvability_map(
            1, 2, (1.0, 2.0), (1.0, 4.0), 2, 3,
            grid_n=500, n_scan=8, s_min=0.05, s_max=1.4, jobs=2,
        )
        by_pair = {(c.lam, c.mu): c.verdict for c in cells}
        assert by_pair[(1.0, 4.0)] == "solution_found"
        assert by_pair[(1.0, 2.5)] == "solution_found"  # mu > lam*q = 2
        assert by_pair[(1.0, 1.0)] == "no_sign_change"
        assert by_pair[(2.0, 1.0)] == "no_sign_change"
        assert by_pair[(2.0, 2.5)] == "no_sign_change"  # mu < lam*q = 4

    def test_q1_diagonal(self):
        cells = solvability_map(
            1, 1, (1.0, 2.0), (1.0, 2.0), 2, 2,
            grid_n=400, n_scan=6, s_min=0.2, s_max=1.3,
        )
        by_pair = {(c.lam, c.mu): c.verdict for c in cells}
        assert by_pair[(1.0, 1.0)] == "solution_found"
        assert by_pair[(2.0, 2.0)] == "solution_found"
        assert by_pair[(1.0, 2.0)] == "no_sign_change"
        assert by_pair[(2.0, 1.0)] == "no_sign_change"

    def test_inconclusive_cell_keeps_the_exception(self, monkeypatch):
        # the map scans all cells together, then each cell finishes its search
        def failing(scan, grid_n, root_tol):
            raise ConvergenceError("injected failure")

        monkeypatch.setattr(analysis, "_finish", failing)
        [cell] = solvability_map(1, 2, (1.0, 1.0), (4.0, 4.0), 1, 1)
        assert cell.verdict == "inconclusive"
        assert cell.reason == "ConvergenceError: injected failure"

    # a Brent root and no sign change (q = 2); the flat family lambda = mu,
    # whose jump meets the tolerance at a scan point, and no sign change (q = 1)
    MAPS = {
        "brent": ((1, 2, (1.0, 2.0), (1.0, 4.0), 2, 2), dict(grid_n=300, n_scan=4)),
        "scan_point": ((1, 1, (1.0, 2.0), (1.0, 2.0), 2, 2),
                       dict(grid_n=500, n_scan=5, s_min=0.3, s_max=1.2)),
    }

    @pytest.mark.parametrize("kind", sorted(MAPS))
    def test_map_is_find_solution_per_cell(self, kind, monkeypatch):
        args, opts = self.MAPS[kind]
        glues = TestRootSearch.record_glues(monkeypatch)
        cells = solvability_map(*args, **opts)
        n_map = len(glues)
        outcomes = [find_solution(HopfParams(*args[:2], c.lam, c.mu), **opts) for c in cells]
        assert [(c.verdict, repr(c.s_star)) for c in cells] == [
            (o.verdict, repr(o.s_star)) for o in outcomes
        ]
        # the same glues: the scan point that meets the tolerance is glued once
        assert len(glues) == 2 * n_map
        verdicts = {c.verdict for c in cells}
        assert verdicts == {"solution_found", "no_sign_change"}
        scanned = {r.s for r in outcomes[0].scan.rows}
        at_scan_point = [c.s_star in scanned for c in cells if c.verdict == "solution_found"]
        assert all(at_scan_point) if kind == "scan_point" else not any(at_scan_point)
        # and the same cells from two worker processes
        assert [repr(c) for c in solvability_map(*args, **opts, jobs=2)] == [repr(c) for c in cells]

    def test_one_side_geometry_per_junction_and_root_glue(self, monkeypatch):
        builds = []

        class Counted(variational.DiscreteEnergy):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(variational, "DiscreteEnergy", Counted)
        variational._junction.cache_clear()
        glues = TestRootSearch.record_glues(monkeypatch)
        args, opts = self.MAPS["brent"]
        cells = solvability_map(*args, **opts)
        root_glues = len(glues) - opts["n_scan"] * len(cells)
        assert root_glues > 0
        # the cells share each scan junction's two sides; a root glue builds its own
        assert len(builds) == 2 * opts["n_scan"] + 2 * root_glues
        assert variational._junction.cache_info().misses == opts["n_scan"] + root_glues

    def test_settings_shared_by_all_cells_raise(self):
        # no cell could run, so the map reports the error instead of its cells
        with pytest.raises(ValueError, match="p, q must be >= 1"):
            solvability_map(0, 2, (1.0, 2.0), (1.0, 2.0), 2, 2)
        with pytest.raises(ValueError, match="s_min < s_max"):
            solvability_map(1, 2, (1.0, 2.0), (1.0, 2.0), 2, 2, s_min=1.0, s_max=0.5)

    def test_map_csv(self, tmp_path):
        cells = solvability_map(
            1, 1, (1.0, 1.0), (1.0, 1.0), 1, 1, grid_n=300, n_scan=4,
            s_min=0.3, s_max=1.2,
        )
        path = tmp_path / "map.csv"
        write_map_csv(cells, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,mu,verdict,s_star"
        assert len(lines) == 2
