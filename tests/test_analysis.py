import ast
import inspect
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

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


def lagrange(x, xs, ys):
    """The polynomial through the points (xs[k], ys[k]) at x, term by term in Lagrange's form."""
    total = 0
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        weight = 1
        for j, xj in enumerate(xs):
            if j != k:
                weight *= (x - xj) / (xk - xj)
        total = total + weight * yk
    return total


def row_fit(mu, mus, curves):
    """A map cell's start from cells of its row: the interior values (the first n of 2n - 1)
    fitted in mu, the exterior ones (the last n) in log mu, then pi/2 at the pin."""
    n = (curves[0].size + 1) // 2
    inner = lagrange(mu, mus, [c[:n] for c in curves])
    outer = lagrange(math.log(mu), [math.log(m) for m in mus], [c[n - 1:] for c in curves])
    start = np.concatenate((inner, outer[1:]))
    start[n - 1] = HALF_PI
    return start


class TestScanJump:
    def test_straight_family_zero_jump(self, params_flat):
        [scan] = scan_jump([params_flat], 0.3, 1.2, 5, grid_n=1200)
        assert all(r.converged for r in scan.rows)
        assert all(abs(r.l) <= 1e-5 for r in scan.rows)

    def test_main_regime_has_bracket(self, params_main):
        [scan] = scan_jump([params_main], 0.05, 1.45, 10, grid_n=800)
        assert scan.brackets
        svals = [r.s for r in scan.rows]
        assert svals == sorted(svals)
        lo, hi = scan.brackets[0]
        l_by_s = {r.s: r.l for r in scan.rows}
        assert l_by_s[lo] * l_by_s[hi] < 0.0

    def test_sign_consistency_and_cross_check(self, params_main):
        [scan] = scan_jump([params_main], 0.05, 1.45, 8, grid_n=800)
        for r in scan.rows:
            if r.converged and abs(r.l) > 1e-7:
                assert math.copysign(1, r.l) == math.copysign(1, r.I_s)
                assert abs(r.l - r.l_tilde) <= max(1e-4, 1e-2 * abs(r.l))

    def test_below_threshold_no_bracket(self):
        params = HopfParams(p=1, q=2, lam=1.0, mu=1.9)
        [scan] = scan_jump([params], 0.05, 1.4, 8, grid_n=600)
        assert not scan.brackets
        assert all(r.l < 0 for r in scan.rows if r.converged)

    def test_parallel_matches_serial(self):
        # the first cell's glues run in the calling process and the others in the pool's
        # junction tasks: both take the same starts at any jobs
        cells = [HopfParams(1, 2, lam, mu) for lam in (1.0, 2.0) for mu in (3.0, 5.0)]
        serial = scan_jump(cells, 0.1, 1.0, 4, grid_n=500, jobs=1)
        pooled = scan_jump(cells, 0.1, 1.0, 4, grid_n=500, jobs=2)

        def bits(scan):
            return [(r.converged, r.reason, repr(r.l), repr(r.l_tilde), repr(r.I_s))
                    for r in scan.rows]

        assert [bits(a) for a in serial] == [bits(b) for b in pooled]
        assert [a.brackets for a in serial] == [b.brackets for b in pooled]

    # a bracket; l moves at s = 1.5, where |l| = 49; attached at both ends only at the
    # 3rd and 4th junctions; attached at the first six only; the flat family
    CHAIN_CELLS = [(1, 2, 1, 4), (1, 3, 1, 1), (1, 2, 0.2, 0.5), (2, 2, 2, 0.5), (1, 1, 1, 1)]

    @pytest.mark.parametrize("cell", CHAIN_CELLS)
    def test_continuation_in_s_keeps_the_cold_answers(self, cell, monkeypatch):
        # a one-cell scan starts each junction from the secant in log s through the
        # cell's last two glues attached at both ends, else a copy of one, else cold
        params, made, real = HopfParams(*cell), [], analysis.glue

        def glue(s, params, n, start=None):
            glued = real(s, params, n=n, start=start)
            made.append((s, None if start is None else start.copy(), glued))
            return glued

        monkeypatch.setattr(analysis, "glue", glue)
        [scan] = scan_jump([params], 0.02, 1.5, 8, grid_n=600)
        cold = []  # (converged, reason, l) of a cold glue at each junction
        for r in scan.rows:
            try:
                cold.append((True, "", variational.glue(r.s, params, n=600).l))
            except ConvergenceError as exc:
                cold.append((False, str(exc), math.nan))
        assert [(r.converged, r.reason) for r in scan.rows] == [c[:2] for c in cold]
        good = [(r.s, l) for r, (ok, _, l) in zip(scan.rows, cold) if ok]
        assert scan.brackets == [(a, b) for (a, la), (b, lb) in zip(good, good[1:]) if la * lb < 0]
        # 1.9e-10 at (1,3,1,1), s = 1.5; no other row moves
        assert all(abs(r.l - l) <= 2.3e-10 * abs(l) for r, (ok, _, l) in zip(scan.rows, cold) if ok)
        # the guard: no start is built from a glue off one of its ends
        held = []
        for s, start, glued in made:
            if not held:
                assert start is None
            elif len(held) == 1:
                assert np.array_equal(start, held[0][1])
            else:
                (xb, b), (xa, a) = held
                assert np.array_equal(start, a + (a - b) * ((math.log(s) - xa) / (xa - xb)))
            if glued.attached:
                held = held[-1:] + [(math.log(s), glued.merged_profile().values)]

    def test_no_start_from_a_glue_off_its_ends(self):
        # the exterior minimizer of (1,2,0.3,0.2) is not attached at pi, and flat
        # (alpha = pi/2 at its end) from s = 0.236 on.  Started from it, the next
        # cell's exterior minimizations stop without a strict decrease at the last
        # four junctions, and its bracket goes; the guard starts that cell cold
        off_ends, cell = HopfParams(1, 2, 0.3, 0.2), HopfParams(1, 2, 0.3, 2.5)
        _, after = scan_jump([off_ends, cell], 0.02, 1.5, 8, grid_n=600)
        [alone] = scan_jump([cell], 0.02, 1.5, 8, grid_n=600)
        assert [(r.converged, r.reason, r.l) for r in after.rows] == [
            (r.converged, r.reason, r.l) for r in alone.rows]
        assert after.brackets == alone.brackets == [(alone.rows[5].s, alone.rows[6].s)]

    def test_energy_bound_over_scan(self, params_main):
        # the glues of scan_jump([params_main], 0.05, 1.45, 8, grid_n=800)
        s_values = np.geomspace(0.05, 1.45, 8)
        glues = [variational.glue(float(s), params_main, n=800) for s in s_values]
        totals = [g.J_interior + g.J_exterior for g in glues]
        assert max(totals) <= 10.0 * float(np.median(totals))

    def test_needs_two_scan_points(self, params_main):
        with pytest.raises(ValueError, match="need at least 2 scan points"):
            scan_jump([params_main], 0.1, 1.0, 1)

    def test_needs_a_cell(self):
        with pytest.raises(ValueError, match="need at least one cell to scan"):
            scan_jump([], 0.1, 1.0, 4)

    def test_csv_write(self, tmp_path, params_main):
        [scan] = scan_jump([params_main], 0.2, 1.0, 3, grid_n=400)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params, named", [
        (HopfParams(1, 2, 1e300, 4.0), "lambda=1e+300, mu=4"),
        (HopfParams(1, 2, 1.0, 1e300), "lambda=1, mu=1e+300"),  # overflows on the exterior
    ])
    def test_overflowing_potential_names_its_cause(self, params, named):
        # Q f w is formed silently and rejected with lambda and mu, not a NaN gradient
        out = find_solution(params, n_scan=3, grid_n=200)
        assert out.verdict == "failed"
        assert out.message.startswith("0 of 3 scan rows converged")
        assert out.message.endswith(f"Q f w is not finite: {named} overflow float64 on this grid")


class TestRootSearch:
    """Brent's method on the jump: glue counts, every exit of the search and its root rule."""

    QUICK = dict(s_min=0.05, s_max=1.45, n_scan=8, grid_n=600)

    @staticmethod
    def record_glues(monkeypatch, fail_after=None, step_at=None):
        """Record the s of every glue; raise ConvergenceError after fail_after.

        With ``step_at``, each glue's l becomes +1e-3 below it and -1e-3 from it
        on: a jump that changes sign with no zero.
        """
        seen = []
        real = analysis.glue

        def glue(s, *args, **kwargs):
            seen.append(s)
            if fail_after is not None and len(seen) > fail_after:
                raise ConvergenceError(f"injected failure at s={s}")
            glued = real(s, *args, **kwargs)
            return glued if step_at is None else replace(glued, l=1e-3 if s < step_at else -1e-3)

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

    def test_root_at_scan_point_glued_once(self, params_flat, monkeypatch):
        seen = self.record_glues(monkeypatch)
        out = find_solution(params_flat, s_min=0.3, s_max=1.2, n_scan=5, grid_n=800)
        assert out.verdict == "solution_found"
        # the scan's five glues, then one of Brent's over (s, s) at the root row: it
        # glues that end once, reads 0 at the other without a glue, and returns there
        assert seen == [r.s for r in out.scan.rows] + [out.s_star]
        assert out.glued.s == out.s_star == out.scan.rows[2].s

    def test_root_row_wins_over_an_earlier_bracket(self, monkeypatch):
        # (1,1,1,1) at n = 600 has a sign change between its 4th and 5th rows, before
        # its 7th, a root row: the search reads the root row, not that bracket
        seen = self.record_glues(monkeypatch)
        out = find_solution(HopfParams(1, 1, 1.0, 1.0), n_scan=8, grid_n=600)
        lo, hi = out.scan.brackets[0]
        assert (round(lo, 3), round(hi, 3)) == (0.127, 0.236)
        assert (out.verdict, out.s_star, out.message) == ("solution_found", 0.8095158645366202, "")
        assert seen[8:] == [out.s_star]

    def test_scan_reads_no_root_rule(self):
        # rows hold values, not solves: the scan.csv columns and the reason of a failure
        assert "root_tol" not in inspect.signature(scan_jump).parameters
        columns = "s,l,l_tilde,I_s,I_s1,I_s2,converged".split(",")
        assert [f.name for f in fields(analysis.ScanRow)] == columns + ["reason"]

    SHRANK = "root search shrank its bracket without reaching the jump tolerance (last |l| = {})"

    # the exits of the search after the scan: find_solution's keywords, the
    # faults record_glues injects, and the verdict, s_star, message ({s}: the
    # last glue's s) and glues.  Keywords None finish a bracket narrower than
    # brentq's xtol (2e-12): brentq returns before its first step, so no glue
    # is made and no last jump is known.  A jump that steps over zero has a
    # sign change and no root, so Brent shrinks its bracket to xtol
    @pytest.mark.parametrize("params, opts, inject, verdict, s_star, message, n_glues", [
        pytest.param(HopfParams(1, 1, 1.0, 1.0), dict(s_min=0.3, s_max=1.2, n_scan=5, grid_n=800),
                     {}, "solution_found", 0.6, "", 6, id="scan_point_hit"),
        pytest.param(HopfParams(1, 2, 1.0, 1.9), QUICK, {}, "no_sign_change", None,
                     "jump kept a single sign over the scanned junctions", 8, id="no_bracket"),
        pytest.param(HopfParams(1, 2, 1.0, 4.0), QUICK, {"fail_after": 8}, "failed", None,
                     "glued solve failed at s={s}, root search stopped: injected failure at s={s}",
                     9, id="glue_failure_in_brent"),
        pytest.param(HopfParams(1, 2, 1.0, 4.0), None, {}, "failed", None, SHRANK.format("nan"),
                     0, id="bracket_below_xtol"),
        pytest.param(HopfParams(1, 2, 1.0, 4.0), QUICK, {"step_at": 0.5}, "failed", None,
                     SHRANK.format("1.000e-03"), 45, id="tolerance_not_met"),
    ])
    def test_exits_of_the_search(self, monkeypatch, params, opts, inject, verdict, s_star,
                                 message, n_glues):
        seen = self.record_glues(monkeypatch, **inject)
        if opts is None:
            lo, hi = 0.5, 0.5 + 1e-12
            rows = [analysis.ScanRow(s=lo, l=1e-3, converged=True),
                    analysis.ScanRow(s=hi, l=-1e-3, converged=True)]
            scan = analysis.ScanResult(params, rows, brackets=[(lo, hi)])
            out = analysis._finish(scan, grid_n=600, root_tol=analysis.ROOT_TOL)
        else:
            out = find_solution(params, **opts)
        assert (out.verdict, out.s_star) == (verdict, s_star)
        assert out.message == message.format(s=seen[-1] if seen else None)
        assert len(seen) == n_glues
        assert (out.glued is None) == (verdict != "solution_found")

    def test_root_tol_compared_only_in_is_root(self):
        # the choice of a root row, Brent's jump and the final check all read the
        # one predicate, so a change of rule edits one place
        def compares(node):
            return [c for c in ast.walk(node) if isinstance(c, ast.Compare) and any(
                getattr(n, "id", getattr(n, "attr", "")).lower() == "root_tol"
                for n in ast.walk(c))]

        tree = ast.parse(Path(analysis.__file__).read_text())
        [rule] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_is_root"]
        assert compares(tree) == compares(rule) != []
        assert len(compares(ast.parse("g if abs(g.l) <= self.root_tol else ROOT_TOL > 0"))) == 2


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
    @pytest.mark.parametrize("lam_lo", [0.0, -1.0])
    def test_lambda_range_must_be_positive(self, lam_lo):
        with pytest.raises(ValueError, match="lambda and mu ranges must be positive"):
            solvability_map(1, 2, (lam_lo, 1.0), (1.0, 2.0), 2, 2)

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

    @pytest.mark.parametrize("lambda_range, mu_range, n_lambda, n_mu", [
        ((1.0, 1.0), (4.0, 4.0), 1, 3), ((1.0, 1.0), (1.0, 4.0), 2, 3)])
    def test_ranges_of_one_value(self, monkeypatch, lambda_range, mu_range, n_lambda, n_mu):
        # --mu 4:4:3 and --lambda 1:1:2 name one value several times: the map refuses
        # them before it glues, where it would solve each repeated cell again
        monkeypatch.setattr(analysis, "scan_jump", None)
        with pytest.raises(ValueError, match=r"range 1:1:2 repeats|range 4:4:3 repeats"):
            solvability_map(1, 2, lambda_range, mu_range, n_lambda, n_mu, grid_n=300, n_scan=6)

    @pytest.mark.parametrize("n_lambda, n_mu, named", [
        (0, 2, "lambda range 1:2:0"), (2, -1, "mu range 3:4:-1")])
    def test_empty_range_refused(self, monkeypatch, n_lambda, n_mu, named):
        # a count below 1 names no cell: refused before any glue, naming the range
        monkeypatch.setattr(analysis, "scan_jump", None)
        with pytest.raises(ValueError, match=f"^{named} has no values; use count >= 1$"):
            solvability_map(1, 2, (1.0, 2.0), (3.0, 4.0), n_lambda, n_mu)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused_before_a_glue(self, params_main, monkeypatch, jobs):
        # the pool refuses them before it draws a task; they would run serially
        seen = TestRootSearch.record_glues(monkeypatch)
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            scan_jump([params_main], 0.05, 1.45, 8, grid_n=600, jobs=jobs)
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            solvability_map(1, 2, (1.0, 2.0), (1.0, 4.0), 2, 2, grid_n=300, n_scan=4, jobs=jobs)
        assert seen == []

    def test_repeated_cell_scans_as_one(self, params_main):
        # scan_jump takes any list of cells.  The third copy's two held glues share
        # their mu, so it copies the second instead of dividing by zero
        scans = scan_jump([params_main] * 3, 0.02, 1.5, 6, grid_n=300)
        [alone] = scan_jump([params_main], 0.02, 1.5, 6, grid_n=300)
        assert alone.brackets
        for scan in scans:
            assert scan.brackets == alone.brackets
            assert [r.l.hex() for r in scan.rows] == [r.l.hex() for r in alone.rows]

    def test_inconclusive_cell_keeps_the_exception(self, monkeypatch):
        # the map scans all cells together, then each cell finishes its search
        def failing(scan, grid_n, root_tol):
            raise ConvergenceError("injected failure")

        monkeypatch.setattr(analysis, "_finish", failing)
        [cell] = solvability_map(1, 2, (1.0, 1.0), (4.0, 4.0), 1, 1)
        assert cell.verdict == "inconclusive"
        assert cell.reason == "ConvergenceError: injected failure"

    # a Brent root and no sign change (q = 2); the flat family lambda = mu,
    # whose jump meets the tolerance at a scan point, and no sign change (q = 1);
    # the map whose Newton work TestWorkCounts pins, at the map's own n_scan; a 3x3
    # map whose scan and root glues start from fits through two cells of a row and from
    # secants in lambda and s; a 2x5 map whose rows give fits through three cells (the
    # counts of the last two are pinned too)
    MAPS = {
        "brent": ((1, 2, (1.0, 2.0), (1.0, 4.0), 2, 2), dict(grid_n=300, n_scan=4)),
        "scan_point": ((1, 1, (1.0, 2.0), (1.0, 2.0), 2, 2),
                       dict(grid_n=500, n_scan=5, s_min=0.3, s_max=1.2)),
        "work_counts": ((1, 2, (1.0, 2.0), (3.0, 5.0), 2, 2), dict(grid_n=300, n_scan=14)),
        "secants": ((1, 2, (1.0, 2.0), (1.0, 6.0), 3, 3), dict(grid_n=300, n_scan=6)),
        "quadratic": ((1, 2, (1.0, 2.0), (1.0, 6.0), 2, 5), dict(grid_n=300, n_scan=6)),
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

    # the start of each scan glue of the 3x3 "secants" map, by (lambda, mu) index:
    # a copy of one cell, the row fit through two cells of its lambda (row_fit) or the
    # secant in lambda through two cells, all glued at the same s.  Cell (0, 0) continues
    # along s instead: cold at junction 0, at junction 1 a copy of its glue at junction 0,
    # then the secant in log s through its glues at the two junctions before.  The map's
    # glues are all attached at both ends here
    SCAN_STARTS = {(0, 0): ("s",), (0, 1): ("copy", (0, 0)), (0, 2): ("mu", (0, 0), (0, 1)),
                   (1, 0): ("copy", (0, 0)), (1, 1): ("copy", (1, 0)),
                   (1, 2): ("mu", (1, 0), (1, 1)), (2, 0): ("lambda", (0, 0), (1, 0)),
                   (2, 1): ("copy", (2, 0)), (2, 2): ("mu", (2, 0), (2, 1))}

    def test_starts_cross_junctions_in_the_first_cell_only(self, monkeypatch):
        # scan glues start from glues at their own s, except the first cell's, which start
        # from its own glues at earlier junctions; root glues from their own cell's
        def secant(x, xb, b, xa, a):
            return a + (a - b) * ((x - xa) / (xa - xb))

        made = self.record_starts(monkeypatch)
        args, opts = self.MAPS["secants"]
        cells = solvability_map(*args, **opts)
        lams, mus = np.linspace(*args[2], 3), np.linspace(*args[3], 3)
        scan, root = made[:9 * opts["n_scan"]], made[9 * opts["n_scan"]:]
        assert all(g.attached for *_, g in made)
        firsts = []  # cell (0, 0) at each junction so far, (log s, union values)
        for task in range(opts["n_scan"]):
            at_s = scan[9 * task: 9 * task + 9]
            assert [(s, p.lam, p.mu) for s, p, _, _ in at_s] == [
                (at_s[0][0], c.lam, c.mu) for c in cells]
            curve = {divmod(k, 3): g.merged_profile().values for k, (*_, g) in enumerate(at_s)}
            for k, (_, _, start, _) in enumerate(at_s):
                (i, j), (kind, *src) = divmod(k, 3), self.SCAN_STARTS[divmod(k, 3)]
                if kind == "s" and task < 2:
                    assert start is None if task == 0 else np.array_equal(start, firsts[0][1])
                elif kind == "s":
                    (xb, b), (xa, a) = firsts[-2:]
                    assert np.array_equal(start, secant(math.log(at_s[0][0]), xb, b, xa, a))
                elif kind == "copy":
                    assert np.array_equal(start, curve[src[0]])
                elif kind == "mu":
                    assert np.array_equal(start, row_fit(mus[j], [mus[jk] for _, jk in src],
                                                         [curve[c] for c in src]))
                else:
                    (ib, _), (ia, _) = src
                    assert np.array_equal(start, secant(lams[i], lams[ib], curve[src[0]],
                                                        lams[ia], curve[src[1]]))
            firsts.append((math.log(at_s[0][0]), curve[(0, 0)]))
        # a cell's first root glue starts cold, its second from a copy of the first, every
        # later one from the secant in s through the two before it; no start crosses cells
        solved = [c for c in cells if c.verdict == "solution_found"]
        by_cell = [[(s, st, g) for s, p, st, g in root if (p.lam, p.mu) == (c.lam, c.mu)]
                   for c in solved]
        assert sum(map(len, by_cell)) == len(root) and min(map(len, by_cell)) >= 3
        for glues in by_cell:
            assert glues[0][1] is None
            assert np.array_equal(glues[1][1], glues[0][2].merged_profile().values)
            for (sb, _, gb), (sa, _, ga), (s, start, _) in zip(glues, glues[1:], glues[2:]):
                assert np.array_equal(start, secant(s, sb, gb.merged_profile().values,
                                                    sa, ga.merged_profile().values))

    @staticmethod
    def record_starts(monkeypatch) -> list:
        """(s, params, a copy of the start, the glue) of every glue from here on."""
        made, real = [], analysis.glue

        def glue(s, params, n, start=None):
            glued = real(s, params, n=n, start=start)
            made.append((s, params, None if start is None else start.copy(), glued))
            return glued

        monkeypatch.setattr(analysis, "glue", glue)
        return made

    def test_row_starts_fit_each_side_through_two_or_three_cells(self, monkeypatch):
        # in the 2x5 map a row's third cell starts from the fit through the two before it,
        # each later one from the fit through the three before it: the interior values by
        # Lagrange in mu, the exterior ones in log mu, and the pin exactly pi/2
        made = self.record_starts(monkeypatch)
        args, opts = self.MAPS["quadratic"]
        solvability_map(*args, **opts)
        mus, n = np.linspace(*args[3], 5), opts["grid_n"]
        scan = made[:10 * opts["n_scan"]]
        assert all(g.attached for *_, g in scan)
        for task in range(opts["n_scan"]):
            at_s = scan[10 * task: 10 * task + 10]
            curve = {divmod(k, 5): g.merged_profile().values for k, (*_, g) in enumerate(at_s)}
            for k, (_, params, start, _) in enumerate(at_s):
                i, j = divmod(k, 5)
                if j < 2:
                    continue
                src = range(max(0, j - 3), j)  # the row's cells among the last three glued
                assert np.array_equal(start, row_fit(mus[j], mus[src], [curve[i, c] for c in src]))
                assert start[n - 1] == HALF_PI
                assert params.mu == mus[j]

    def test_row_start_copies_the_last_cell_at_a_repeated_mu(self):
        # two cells of one mu would divide by zero: the start is the last cell's curve, as
        # analysis._start copies; so are two mu whose logarithms round to one float
        a, b, c = (np.full(5, HALF_PI) + k for k in range(3))
        assert analysis._row_start(5.0, [(2.0, a), (4.0, b), (4.0, c)]) is c
        assert analysis._row_start(5.0, [(4.0, b), (4.0, c)]) is c
        close = np.nextafter(1e10, 2e10)
        assert close != 1e10 and math.log(close) == math.log(1e10)
        assert analysis._row_start(2e10, [(1e10, b), (close, c)]) is c

    def test_only_find_solution_certifies(self, params_main, monkeypatch):
        # find_solution measures its root glue's residual once; the map reads none
        calls, real = [], analysis._certify
        monkeypatch.setattr(analysis, "_certify", lambda *a: calls.append(a) or real(*a))
        out = find_solution(params_main, **TestRootSearch.QUICK)
        assert out.verdict == "solution_found"
        assert calls == [(out.glued, params_main)]
        assert out.max_residual_away == real(out.glued, params_main) <= 5e-3
        calls.clear()
        args, opts = self.MAPS["brent"]
        cells = solvability_map(*args, **opts)
        assert "solution_found" in {c.verdict for c in cells} and calls == []

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
