import math

import numpy as np
import pytest

from hopfbvp import shooting
from hopfbvp.core import HALF_PI, BlowUpError, Grid, HopfParams
from hopfbvp.shooting import (
    _crossings,
    integrate_from_pi2,
    integrate_from_zero,
    match_shooting,
    write_mismatch_csv,
)


class TestIntegrateFromZero:
    def test_exact_straight_solution(self, params_flat):
        grid = Grid(np.linspace(1e-4, HALF_PI - 1e-4, 800))
        prof = integrate_from_zero(2.0, params_flat, HALF_PI - 1e-4, grid=grid)
        assert np.max(np.abs(prof.values - 2.0 * prof.t)) <= 1e-6

    def test_undershoot_for_small_amplitude(self, params_main):
        # a tiny amplitude never reaches the equator on the bulk of the
        # interval (it eventually dives near pi/2, which is the blow-up case)
        prof = integrate_from_zero(1e-3, params_main, 1.4)
        assert np.all(prof.values < HALF_PI)

    def test_seed_step_invariance(self, params_main):
        vals = []
        for t_start in (1e-4, 5e-5):
            grid = Grid(np.linspace(math.pi / 4, math.pi / 4 + 0.01, 5))
            prof = integrate_from_zero(
                1.0, params_main, math.pi / 4 + 0.01, t_start=t_start, grid=grid
            )
            vals.append(prof.values[0])
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_blow_up_reported_with_exit_time(self, params_main):
        # the undershooting branch leaves the band below -pi near pi/2
        with pytest.raises(BlowUpError) as exc:
            integrate_from_zero(1e-3, params_main, HALF_PI - 1e-4)
        assert 0.0 < exc.value.exit_time < HALF_PI

    def test_amplitude_validation(self, params_flat):
        with pytest.raises(ValueError):
            integrate_from_zero(-1.0, params_flat, 1.0)


class TestIntegrateFromPi2:
    def test_exact_straight_solution(self, params_flat):
        grid = Grid(np.linspace(1e-4, HALF_PI - 1e-4, 800))
        prof = integrate_from_pi2(2.0, params_flat, 1e-4, grid=grid)
        assert np.max(np.abs(prof.values - 2.0 * prof.t)) <= 1e-6

    def test_overshoot_for_large_amplitude(self, params_main):
        prof = integrate_from_pi2(50.0, params_main, 0.3)
        assert np.min(prof.values) < HALF_PI

    def test_seed_step_invariance(self, params_main):
        vals = []
        for t_offset in (1e-4, 5e-5):
            grid = Grid(np.linspace(1.0, 1.01, 5))
            prof = integrate_from_pi2(1.0, params_main, 1.0, t_offset=t_offset, grid=grid)
            vals.append(prof.values[0])
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_smooth_in_amplitude(self):
        # at r1 = 2 a seed written as pi - c1 tau^2 keeps only ~7 digits of
        # c1; the end value then jitters by ~5e-8 between amplitudes 1e-9
        # apart, and the matcher's Newton polish cannot reach 1e-8
        params = HopfParams(p=1, q=2, lam=2.0, mu=6.0)
        grid = Grid(np.linspace(math.pi / 4, math.pi / 4 + 0.01, 5))
        ends = [
            integrate_from_pi2(0.5161739 * (1.0 + k * 1e-9), params, math.pi / 4, grid=grid)
            .values[0]
            for k in range(6)
        ]
        assert np.max(np.abs(np.diff(ends, 2))) <= 1e-11

    def test_blow_up_reported_in_t(self):
        # the mirrored integration runs in tau = pi/2 - t; the exit is in t
        with pytest.raises(BlowUpError) as exc:
            integrate_from_pi2(1.0, HopfParams(p=2, q=1, lam=2.0, mu=6.0), 1e-3)
        assert exc.value.exit_time == pytest.approx(0.21333, abs=1e-5)
        assert str(exc.value).endswith(f"at t={exc.value.exit_time:.6g}")


class TestCrossings:
    def test_one_crossing(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, -1.0]])
        [(i, j, s, u)] = _crossings(a, b)
        assert (i, j) == (0, 0) and s == pytest.approx(0.5) and u == pytest.approx(0.5)

    def test_no_crossing(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5]])
        b = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        assert _crossings(a, b) == []

    def test_nan_gap_skipped(self):
        # both segments touching the band exit (NaN) are dropped; the
        # crossing beyond the gap is still found
        a = np.array([[0.0, 0.0], [np.nan, np.nan], [2.0, 2.0], [3.0, 3.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0]])
        [(i, j, s, u)] = _crossings(a, b)
        assert (i, j) == (2, 2) and s == pytest.approx(0.5) and u == pytest.approx(0.5)

    def test_parallel_segments(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[0.0, 0.0], [2.0, 2.0]])  # collinear and overlapping
        c = np.array([[0.0, 1.0], [1.0, 2.0]])
        assert _crossings(a, b) == [] and _crossings(a, c) == []


class TestIntegratorAccuracy:
    def test_error_drops_with_tolerance(self, params_flat):
        errs = []
        for rtol in (1e-6, 1e-9):
            grid = Grid(np.linspace(0.5, 1.5, 11))
            prof = integrate_from_zero(
                2.0, params_flat, 1.5, grid=grid, rtol=rtol, atol=rtol * 1e-2
            )
            errs.append(np.max(np.abs(prof.values - 2.0 * prof.t)))
        assert errs[1] <= errs[0]
        assert errs[1] <= 1e-8


class TestMatchShooting:
    def test_straight_solution_balanced_amplitudes(self, params_flat):
        m = match_shooting(params_flat)
        assert m.verdict == "solution"
        assert m.state.c0 == pytest.approx(2.0, abs=1e-6)
        assert m.state.c1 == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(m.profile.values - 2.0 * m.profile.t)) <= 1e-6
        assert max(abs(v) for v in m.state.mismatch) <= 1e-8

    def test_main_regime_solution(self, params_main):
        m = match_shooting(params_main)
        assert m.verdict == "solution"
        assert np.all(np.diff(m.profile.values) >= -1e-8)
        assert 0.0 < m.profile.values[0] < 1e-2
        assert math.pi - 1e-2 < m.profile.values[-1] < math.pi
        assert m.max_scaled_residual <= 1e-6

    def test_necessary_condition_violated_no_root(self):
        params = HopfParams(p=1, q=2, lam=1.0, mu=1.5)
        m = match_shooting(params)
        assert m.verdict == "no_root"
        assert m.state is None and m.profile is None

    @pytest.mark.parametrize("lam, mu", [(2.0, 6.0), (1.0, 4.0)])
    def test_returns_verdict_without_crossing(self, lam, mu):
        # the variational pipeline reports no_sign_change here
        m = match_shooting(HopfParams(p=2, q=1, lam=lam, mu=mu))
        assert m.verdict == "no_root"
        assert "do not cross" in m.message

    def test_symmetric_family_balanced_member(self):
        # p = q, lambda = mu: the slope mismatch on the diagonal is rounding
        # noise, so only the value mismatch can bracket the balanced member
        m = match_shooting(HopfParams(p=1, q=1, lam=2.0, mu=2.0))
        assert m.verdict == "solution"
        assert m.state.c0 == m.state.c1
        assert abs(m.state.c0 - 2.0) <= 1e-6

    def test_polish_needs_full_precision_backward_seed(self):
        # the slope mismatch here jittered at ~1e-7 with a pi - c1 tau^2 seed,
        # so no polish reached the 1e-8 tolerance; the variational pipeline
        # finds this solution too
        m = match_shooting(HopfParams(p=1, q=3, lam=2.0, mu=8.0))
        assert m.verdict == "solution"
        assert max(abs(v) for v in m.state.mismatch) <= 1e-8

    def test_failed_polish_reports_why(self, monkeypatch, params_main):
        monkeypatch.setattr(shooting, "POLISH_MAX_ITER", 1)
        m = match_shooting(params_main)
        assert m.verdict == "failed" and m.state is None
        assert "no polish was accepted" in m.message
        assert "no convergence in 1 Newton steps" in m.message

    @pytest.mark.parametrize(
        "params, bound",
        [
            (HopfParams(p=1, q=2, lam=1.0, mu=1.5), 2 * 13),  # both curves, nothing more
            (HopfParams(p=1, q=2, lam=1.0, mu=4.0), 98 - 1),
            (HopfParams(p=1, q=1, lam=1.0, mu=1.0), 266 - 1),
        ],
    )
    def test_ivp_solves_per_match(self, monkeypatch, params, bound):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        solve_ivp = shooting.solve_ivp
        monkeypatch.setattr(shooting, "solve_ivp", counted)
        match_shooting(params)
        assert len(calls) <= bound

    def test_each_shot_made_once(self, monkeypatch, params_main):
        # the admissibility probe and the profile reuse the matched pair's
        # shots: 13 + 13 scan shots and the diagonal Brent solve, 40 in all
        shots, ivps = [], []
        shoot, solve_ivp = shooting._shoot, shooting.solve_ivp

        def recorded(params, c, t_offset, t_end, rtol, atol, backward=False):
            shots.append((params, c, backward))
            return shoot(params, c, t_offset, t_end, rtol, atol, backward)

        def counted(*args, **kwargs):
            ivps.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "_shoot", recorded)
        monkeypatch.setattr(shooting, "solve_ivp", counted)
        assert match_shooting(params_main).verdict == "solution"
        assert len(shots) == len(set(shots))
        assert len(ivps) == 40

    def test_mismatch_csv(self, tmp_path, params_main):
        m = match_shooting(params_main)
        path = tmp_path / "mismatch.csv"
        write_mismatch_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "c0,c1,dalpha,ddalpha"
        assert len(lines) == 1 + m.c0_scan.size * m.c1_scan.size
