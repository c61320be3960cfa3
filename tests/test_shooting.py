import ast
import inspect
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from hopfbvp import core, dop853, shooting
from hopfbvp.core import HALF_PI, BlowUpError, HopfParams
from hopfbvp.shooting import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    DEFAULT_T_OFFSET,
    T_MATCH,
    _crossings,
    integrate_from_zero,
    match_shooting,
    write_mismatch_csv,
)

import test_variational


def forward_values(c0, params, t_end, nodes=None, t_offset=DEFAULT_T_OFFSET,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """alpha of the forward shot of amplitude c0 at nodes (default: its step times)."""
    times, _, state = shooting._shoot(params, c0, t_offset, t_end, rtol, atol)
    return state(times if nodes is None else nodes)[0]


def backward_values(c1, params, t_start, nodes=None, t_offset=DEFAULT_T_OFFSET,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """alpha of the backward shot of amplitude c1 at nodes (default: its step times)."""
    times, _, state = shooting._shoot(params, c1, t_offset, t_start, rtol, atol, backward=True)
    return state(times if nodes is None else nodes)[0]


class TestIntegrateFromZero:
    """The forward shot, which integrates from 0: ``_shoot(..., backward=False)``."""

    def test_exact_straight_solution(self, params_flat):
        nodes = np.linspace(1e-4, HALF_PI - 1e-4, 800)
        values = forward_values(2.0, params_flat, HALF_PI - 1e-4, nodes)
        assert np.max(np.abs(values - 2.0 * nodes)) <= 1e-6

    def test_undershoot_for_small_amplitude(self, params_main):
        # a tiny amplitude never reaches the equator on the bulk of the
        # interval (it eventually dives near pi/2, which is the blow-up case)
        values = forward_values(1e-3, params_main, 1.4)
        assert np.all(values < HALF_PI)

    def test_seed_step_invariance(self, params_main):
        vals = []
        for t_offset in (1e-4, 5e-5):
            nodes = np.linspace(math.pi / 4, math.pi / 4 + 0.01, 5)
            vals.append(forward_values(1.0, params_main, math.pi / 4 + 0.01, nodes,
                                       t_offset=t_offset)[0])
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_blow_up_reported_with_exit_time(self, params_main):
        # the undershooting branch leaves the band below -pi near pi/2
        with pytest.raises(BlowUpError) as exc:
            forward_values(1e-3, params_main, HALF_PI - 1e-4)
        assert 0.0 < exc.value.exit_time < HALF_PI

    def test_is_the_forward_shot_at_its_steps(self, params_main):
        # the benchmark's warm-up: the forward shot, read at its step times
        prof = integrate_from_zero(1.0, params_main, 0.5)
        assert prof.values.tobytes() == forward_values(1.0, params_main, 0.5).tobytes()
        assert prof.t[0] == DEFAULT_T_OFFSET and prof.t[-1] == 0.5

    def test_amplitude_validation(self, params_flat):
        with pytest.raises(ValueError):
            integrate_from_zero(-1.0, params_flat, 1.0)

    @pytest.mark.parametrize("t_end", [DEFAULT_T_OFFSET, 1e-5, HALF_PI])
    def test_end_validation(self, params_flat, t_end):
        with pytest.raises(ValueError, match=r"need 0.0001 < t_end < pi/2, got t_end="):
            integrate_from_zero(1.0, params_flat, t_end)


class TestIntegrateFromPi2:
    """The backward shot, which integrates from pi/2: ``_shoot(..., backward=True)``."""

    def test_exact_straight_solution(self, params_flat):
        nodes = np.linspace(1e-4, HALF_PI - 1e-4, 800)
        values = backward_values(2.0, params_flat, 1e-4, nodes)
        assert np.max(np.abs(values - 2.0 * nodes)) <= 1e-6

    def test_overshoot_for_large_amplitude(self, params_main):
        values = backward_values(50.0, params_main, 0.3)
        assert np.min(values) < HALF_PI

    def test_seed_step_invariance(self, params_main):
        vals = []
        for t_offset in (1e-4, 5e-5):
            nodes = np.linspace(1.0, 1.01, 5)
            vals.append(backward_values(1.0, params_main, 1.0, nodes, t_offset=t_offset)[0])
        assert abs(vals[0] - vals[1]) <= 1e-8

    def test_smooth_in_amplitude(self):
        # at r1 = 2 a seed written as pi - c1 tau^2 keeps only ~7 digits of
        # c1; the end value then jitters by ~5e-8 between amplitudes 1e-9
        # apart, and the matcher's Newton polish cannot reach 1e-8
        params = HopfParams(p=1, q=2, lam=2.0, mu=6.0)
        nodes = np.linspace(math.pi / 4, math.pi / 4 + 0.01, 5)
        ends = [
            backward_values(0.5161739 * (1.0 + k * 1e-9), params, math.pi / 4, nodes)[0]
            for k in range(6)
        ]
        assert np.max(np.abs(np.diff(ends, 2))) <= 1e-11

    def test_blow_up_reported_in_t(self):
        # the mirrored integration runs in tau = pi/2 - t; the exit is in t
        with pytest.raises(BlowUpError) as exc:
            backward_values(1.0, HopfParams(p=2, q=1, lam=2.0, mu=6.0), 1e-3)
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


# the stepper as loops over the tableau's rows, the reference for the generated attempt:
# (c, nonzero (j, a)) of stages 1-12 (12: the step end, c = 1, weights B), and (j, e3, e5)
LOOP_STAGES = tuple(
    (float(c), tuple((j, float(w)) for j, w in enumerate(a) if w))
    for c, a in zip(np.append(dop853.C[1:], 1.0), np.vstack((dop853.A[1:], dop853.B)))
)
LOOP_E = tuple(
    (j, float(a), float(b)) for j, (a, b) in enumerate(zip(dop853.E3, dop853.E5)) if a or b
)


def loop_solve(params, t0, y0, t1, rtol, atol, band):
    """``dop853.solve`` with its attempt as loops over the rows and an ``accel`` closure.

    Returns (steps, exit time, rejected attempts).
    """
    p, q, lam, mu = params.p, params.q, params.lam, params.mu

    def accel(t, a, da):  # Q and the drift from T = tan t, sin a cos a from u = tan a
        tt, u = math.tan(t), math.tan(a)
        qq = (lam / (tt * tt) + mu) * (1.0 + tt * tt)
        return -(p / tt - q * tt) * da + qq * (u / (1.0 + u * u))

    def rms(x, y):
        return math.sqrt(x * x + y * y) / math.sqrt(2.0)

    t, (a, da) = t0, y0
    dda = accel(t, a, da)
    if not band[0] < a < band[1]:
        return np.array([(t, a, da, dda)]).T, t, 0
    sa, sd = atol + abs(a) * rtol, atol + abs(da) * rtol
    d0, d1 = rms(a / sa, da / sd), rms(da / sa, dda / sd)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    y1 = da + h0 * dda
    d2 = rms((y1 - da) / sa, (accel(t + h0, a + h0 * da, y1) - dda) / sd) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_next = min(100.0 * h0, h1, t1 - t0)

    rows, n_rejected = [(t, a, da, dda)], 0
    k0, k1 = [0.0] * 13, [0.0] * 13
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h_next, min_step), False
        while True:
            if h < min_step:
                raise RuntimeError("integrator failed: step size below the spacing of t")
            t_new = min(t + h, t1)
            h = t_new - t
            k0[0], k1[0] = da, dda
            for s, (c, row) in enumerate(LOOP_STAGES, start=1):
                x0 = x1 = 0.0
                for j, w in row:
                    x0 += w * k0[j]
                    x1 += w * k1[j]
                k0[s] = da + x1 * h
                k1[s] = accel(t + c * h, a + x0 * h, k0[s])
            a_new, da_new, dda_new = a + x0 * h, k0[12], k1[12]
            e30 = e31 = e50 = e51 = 0.0
            for j, w3, w5 in LOOP_E:
                e30 += w3 * k0[j]
                e31 += w3 * k1[j]
                e50 += w5 * k0[j]
                e51 += w5 * k1[j]
            sa = atol + max(abs(a), abs(a_new)) * rtol
            sd = atol + max(abs(da), abs(da_new)) * rtol
            x3, y3, x5, y5 = e30 / sa, e31 / sd, e50 / sa, e51 / sd
            n3, n5 = x3 * x3 + y3 * y3, x5 * x5 + y5 * y5
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
                h_next = h * (min(1.0, factor) if rejected else factor)
                break
            h, rejected, n_rejected = h * max(0.2, 0.9 * err**-0.125), True, n_rejected + 1
        t_old, t, a, da, dda = t, t_new, a_new, da_new, dda_new
        rows.append((t, a, da, dda))
        if not band[0] < a < band[1]:
            level = band[0] if a <= band[0] else band[1]
            state = dop853.dense_state(params, np.array(rows[-2:]).T)
            t_exit, _ = core.brentq(lambda x: state(x)[0] - level, t_old, t, dop853._XTOL,
                                    dop853._XTOL)
            return np.array(rows).T, t_exit, n_rejected
    return np.array(rows).T, None, n_rejected


def same_shot(params, c, backward, t_end=T_MATCH, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Assert that the stepper gives the loop's bytes; return the loop's (exit, rejected)."""
    params = params.mirrored() if backward else params
    args = (params, DEFAULT_T_OFFSET, shooting._series_seed(c, params, DEFAULT_T_OFFSET),
            HALF_PI - t_end if backward else t_end, rtol, atol,
            (shooting.ALPHA_LOW, shooting.ALPHA_HIGH))
    steps, t_exit, rejected = loop_solve(*args)
    ours, our_exit = dop853.solve(*args)
    assert ours.shape == steps.shape and ours.tobytes() == steps.tobytes()
    assert repr(our_exit) == repr(t_exit)  # None, or the same float
    return t_exit, rejected


class TestGeneratedAttempt:
    @given(
        p=st.sampled_from([1, 2, 3]),
        q=st.sampled_from([1, 2, 3]),
        lam=st.floats(0.2, 9.0),
        mu=st.floats(0.2, 9.0),
        log_c=st.floats(math.log(1e-3), math.log(1e3)),
        backward=st.booleans(),
    )
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_steps_are_the_loops_bits(self, p, q, lam, mu, log_c, backward):
        same_shot(HopfParams(p, q, lam, mu), math.exp(log_c), backward)

    def test_pin_reaches_rejection_band_exit_and_step_failure(self, params_main):
        t_exit, rejected = same_shot(params_main, 1.0, False)
        assert t_exit is None and rejected > 0
        t_exit, _ = same_shot(params_main, 1e-3, False, t_end=HALF_PI - DEFAULT_T_OFFSET)
        assert t_exit is not None and DEFAULT_T_OFFSET < t_exit
        t_exit, _ = same_shot(HopfParams(3, 2, 1.0, 4.0), 1e3, False)  # seed below the band
        assert t_exit == DEFAULT_T_OFFSET
        # no step meets a tolerance below the rounding of alpha, so both steppers give up
        for solve in (loop_solve, dop853.solve):
            with pytest.raises(RuntimeError, match="step size below the spacing of t"):
                solve(params_main, 0.5, (1.0, 1.0), T_MATCH, 1e-30, 0.0, (-10.0, 10.0))

    def test_one_term_per_nonzero_tableau_entry(self):
        lines = dop853._source().splitlines()
        sums = [line.split(" = ", 1)[1] for line in lines if line.lstrip().startswith("x")]
        sums += lines[-2].split("return ys, k0_12, k1_12, ")[1].split(", ")
        rows = [r for r in np.vstack((dop853.A[1:], dop853.B)) for _ in range(2)]
        rows += [dop853.E3, dop853.E3, dop853.E5, dop853.E5]
        assert len(sums) == len(rows) == 28
        for text, row in zip(sums, rows):
            terms = text.split(" + ")
            assert terms[0] == "0.0"  # the loop's start: an all-zero sum stays +0.0
            assert [float(term.split(" * ")[0]) for term in terms[1:]] == [w for w in row if w]

    def test_a_try_makes_23_tans_and_no_sin_cos_or_power(self):
        # one tan per stage angle (12) and per distinct stage time (11: stages 11 and 12
        # share t + h), two in accel; no sin, cos or power in either
        tree = ast.parse(dop853._source())
        funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
        for name, n_tan in (("accel", 2), ("attempt", 23)):
            calls = [c for c in ast.walk(funcs[name]) if isinstance(c, ast.Call)]
            assert {c.func.id for c in calls} == {"tan"} and len(calls) == n_tan
            assert not any(isinstance(b, ast.Pow) for b in ast.walk(funcs[name]))
        args = [ast.unparse(c.args[0]) for c in calls]  # attempt's
        times = [arg for arg in args if arg != "ys"]
        assert len(args) - len(times) == 12 and len(set(times)) == len(times) == 11
        # and the step's error norm squares by products
        solve = ast.parse(textwrap.dedent(inspect.getsource(dop853.solve)))
        assert not [b for b in ast.walk(solve) if isinstance(b, ast.BinOp)
                    and isinstance(b.op, ast.Pow) and ast.unparse(b.right) == "2"]

    @pytest.mark.parametrize("p, q, lam, mu", [(2, 3, 1.3, 2.7), (1, 2, 1.0, 4.0)])
    def test_accel_against_long_double(self, p, q, lam, mu):
        # alpha'' from tan t and tan alpha, against sin and cos in long double (~1e-19) at
        # the same float points.  With tan within 1 ulp and each operation rounding once:
        # Q = (lam/T^2 + mu)(1 + T^2) within 7 eps, u/(1 + u^2) within 4.5 eps, so
        # Q sin a cos a within 12 eps relative; p/T - q T within 2 eps (p cot t + q tan t),
        # absolute, since the drift crosses 0 at tan^2 t = p/q.  Both instantiations: a
        # try's math.tan on floats, the dense replay's np.tan on arrays
        rng = np.random.default_rng(7)
        logs = rng.uniform(math.log(1e-4), math.log(math.pi / 4), (2, 400))
        t = np.concatenate([np.exp(logs[0]), HALF_PI - np.exp(logs[1])])
        a = np.concatenate([rng.uniform(-math.pi, 2 * math.pi, 400),
                            np.repeat(np.arange(4) * HALF_PI, 100) + rng.uniform(-1e-6, 1e-6, 400)])
        rng.shuffle(a)
        tl, al = t.astype(np.longdouble), a.astype(np.longdouble)
        sn, cs = np.sin(tl), np.cos(tl)
        potential = (lam / (sn * sn) + mu / (cs * cs)) * np.sin(al) * np.cos(al)
        drift = p * cs / sn - q * sn / cs
        scale = p * np.abs(cs / sn) + q * np.abs(sn / cs)
        for tan in (math.tan, np.tan):
            accel_ = dop853._compiled()(p, q, lam, mu, tan)[0]

            def accel(t, a, da):  # at the arrays t and a
                if tan is np.tan:
                    return accel_(t, a, da)
                return np.array([accel_(ti, ai, da) for ti, ai in zip(t, a)])
            assert test_variational.ulps_apart(accel(t, a, 0.0), potential) <= 12.0
            got = accel(t, np.zeros_like(t), 1.0).astype(np.longdouble)
            assert float(np.max(np.abs(got + drift) / scale)) <= 2.0 * np.finfo(float).eps


class TestIntegratorAccuracy:
    def test_error_drops_with_tolerance(self, params_flat, params_main):
        # DOP853 integrates alpha = 2t to rounding at any tolerance, so the
        # flat family checks only the error level; the main-regime shots over
        # most of the interval carry a truncation error that must fall with
        # the tolerance, measured against an rtol = 1e-13 reference
        nodes = np.linspace(0.5, 1.5, 11)
        flat = forward_values(2.0, params_flat, 1.5, nodes, rtol=1e-9, atol=1e-11)
        assert np.max(np.abs(flat - 2.0 * nodes)) <= 1e-8

        fwd_nodes = np.linspace(DEFAULT_T_OFFSET, 1.2, 11)
        bwd_nodes = np.linspace(0.3, HALF_PI - DEFAULT_T_OFFSET, 11)

        def shots(rtol, atol):
            fwd = forward_values(1.0, params_main, 1.2, fwd_nodes, rtol=rtol, atol=atol)
            bwd = backward_values(1.0, params_main, 0.3, bwd_nodes, rtol=rtol, atol=atol)
            return fwd, bwd

        ref = shots(1e-13, 1e-15)
        errs = [
            [np.max(np.abs(v - r)) for v, r in zip(shots(rtol, rtol * 1e-2), ref)]
            for rtol in (1e-6, 1e-9)
        ]
        for loose, tight in zip(*errs):
            assert tight <= 1e-2 * loose
            assert tight <= 1e-8

    @staticmethod
    def scipy_shot(params, c, t_end, events=None):
        """solve_ivp's DOP853 from the series seed, the reference for the stepper."""
        p, q, lam, mu = params.p, params.q, params.lam, params.mu

        def rhs(t, y):  # the stepper's formula: tan of t and of alpha
            tt, u = math.tan(t), math.tan(y[0])
            qq = (lam / (tt * tt) + mu) * (1.0 + tt * tt)
            return (y[1], -(p / tt - q * tt) * y[1] + qq * (u / (1.0 + u * u)))

        seed = shooting._series_seed(c, params, DEFAULT_T_OFFSET)
        return solve_ivp(rhs, (DEFAULT_T_OFFSET, t_end), seed, method="DOP853",
                         rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, dense_output=True, events=events)

    @pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"])
    def test_tableau_is_scipy_dop853(self, name):
        # read by path from scipy's coefficient file, sliced as scipy's class slices it
        ours, theirs = getattr(dop853, name), getattr(DOP853, name)
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("params", [HopfParams(1, 2, 1.0, 4.0), HopfParams(2, 1, 2.0, 6.0)])
    @pytest.mark.parametrize("backward", [False, True])
    def test_stepper_is_scipy_dop853(self, params, backward):
        # the same accepted steps (their times differ in the last digits: the
        # error estimate is a difference of stage sums, so summation order
        # moves it), end states and dense states
        for c in np.geomspace(1e-3, 1e3, 7):
            times, shot_end, state = shooting._shoot(
                params, c, DEFAULT_T_OFFSET, T_MATCH, DEFAULT_RTOL, DEFAULT_ATOL, backward
            )
            sol = self.scipy_shot(params.mirrored() if backward else params, c, T_MATCH)
            assert times.size == sol.t.size
            t = np.linspace(T_MATCH, HALF_PI - DEFAULT_T_OFFSET, 401) if backward else (
                np.linspace(DEFAULT_T_OFFSET, T_MATCH, 401))
            if backward:
                beta, dbeta = sol.sol(HALF_PI - t)
                end = np.array([math.pi - sol.y[0, -1], sol.y[1, -1]])
                dense = (math.pi - beta, dbeta)
            else:
                end, dense = sol.y[:, -1], sol.sol(t)
            assert np.all(np.abs(shot_end - end) <= 1e-12 * np.maximum(1.0, np.abs(end)))
            assert np.all(np.abs(state(t) - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))

    def test_band_exit_is_scipy_terminal_event(self, params_main):
        def low(t, y):
            return y[0] - shooting.ALPHA_LOW

        def high(t, y):
            return y[0] - shooting.ALPHA_HIGH

        low.terminal = high.terminal = True
        sol = self.scipy_shot(params_main, 1e-3, HALF_PI - 1e-4, events=[low, high])
        assert sol.status == 1
        with pytest.raises(BlowUpError) as exc:
            forward_values(1e-3, params_main, HALF_PI - 1e-4)
        assert abs(exc.value.exit_time - min(te[0] for te in sol.t_events if te.size)) <= 1e-9

    def test_seed_outside_band_exits_at_t0(self, monkeypatch):
        # a seed above the band, and the (3, 2, 1, 4) series seed at c = 1000,
        # which lies below it: each is an exit at t0, found without a Brent search
        params = HopfParams(p=3, q=2, lam=1.0, mu=4.0)
        below = shooting._series_seed(1e3, params, DEFAULT_T_OFFSET)
        assert below[0] < shooting.ALPHA_LOW
        monkeypatch.setattr(dop853, "brentq", None)
        for seed in ((7.0, 0.0), below):
            steps, t_exit = dop853.solve(params, DEFAULT_T_OFFSET, seed, T_MATCH, DEFAULT_RTOL,
                                         DEFAULT_ATOL, (shooting.ALPHA_LOW, shooting.ALPHA_HIGH))
            assert t_exit == DEFAULT_T_OFFSET
            assert steps.shape == (4, 1) and steps[0, 0] == DEFAULT_T_OFFSET


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

    def test_main_regime_residual_bits(self, params_main):
        # the 5-point residual of the merged profile, pinned to its last bit
        m = match_shooting(params_main)
        assert m.max_scaled_residual.hex() == float.fromhex("0x1.f262004985c91p-25").hex()

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

    @pytest.mark.parametrize("lam, mu", [(1e300, 4.0), (1.0, 1e300)])
    def test_no_finite_scan_shot_is_failed(self, lam, mu):
        # Q overflows float64, so every scan shot leaves the band: the map is all NaN
        # and says nothing about crossings, which is a failed search, not "no root"
        m = match_shooting(HopfParams(p=1, q=2, lam=lam, mu=mu))
        assert np.isnan(m.dalpha_map).all() and m.dalpha_map.size == shooting.SCAN_POINTS**2
        assert m.verdict == "failed" and m.state is None and m.profile is None
        assert m.message == (
            "no pair of scan shots stayed finite: every entry of the mismatch map is NaN"
        )

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
        assert "no root was accepted" in m.message
        assert "no convergence in 1 Newton steps" in m.message

    def test_diagonal_brent_failures_tally_under_one_reason(self, monkeypatch):
        # (2, 2, 1, 1) has three diagonal brackets; with the crossings hidden and
        # Brent cut to one iteration, all three end unconverged and count as one reason
        monkeypatch.setattr(shooting, "_crossings", lambda a, b: [])
        monkeypatch.setattr(shooting, "brentq", lambda f, a, b: core.brentq(f, a, b, maxiter=1))
        m = match_shooting(HopfParams(p=2, q=2, lam=1.0, mu=1.0))
        assert m.verdict == "failed"
        assert m.message == (
            "0 curve crossings and 3 diagonal brackets, but no root was accepted: "
            "3x a diagonal Brent search did not converge"
        )

    def test_diagonal_band_exit_is_recorded(self, monkeypatch):
        # (2, 2, 1, 1) again, with every shot strictly inside a diagonal bracket
        # leaving the band: each search stops at its first shot and says so
        cs = np.geomspace(*shooting.C_RANGE, shooting.SCAN_POINTS)
        inside = [(cs[k] * (1 + 1e-9), cs[k + 1] * (1 - 1e-9)) for k in (6, 8, 10)]
        shoot = shooting._shoot

        def leaving(params, c, *args):
            if any(lo < c < hi for lo, hi in inside):
                raise BlowUpError("left the band", exit_time=0.5)
            return shoot(params, c, *args)

        monkeypatch.setattr(shooting, "_crossings", lambda a, b: [])
        monkeypatch.setattr(shooting, "_shoot", leaving)
        m = match_shooting(HopfParams(p=2, q=2, lam=1.0, mu=1.0))
        assert m.verdict == "failed"
        assert m.message == (
            "0 curve crossings and 3 diagonal brackets, but no root was accepted: "
            "3x a diagonal shot left the band"
        )

    def test_roots_accepted_only_in_add_root(self):
        # both searches hand their amplitudes to the one acceptance rule, and a band
        # exit is an exception only where a shot leaves the band
        def calls(node, name):
            return [c for c in ast.walk(node)
                    if isinstance(c, ast.Call) and getattr(c.func, "id", "") == name]

        def blowups(node):
            return [r for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is not None
                    and "BlowUpError" in ast.unparse(r.exc).split("(")[0]]

        def function(tree, name):
            [f] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
            return f

        package = Path(shooting.__file__).parent
        src = {f.name: ast.parse(f.read_text()) for f in package.glob("*.py")}
        tree = src["shooting.py"]
        assert calls(tree, "ShootState") == calls(function(tree, "add_root"), "ShootState") != []
        assert sum(map(blowups, src.values()), []) == blowups(function(tree, "_shoot")) != []
        assert len(blowups(ast.parse("raise core.BlowUpError('x', exit_time=1.0)"))) == 1

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

        def counted(*args):
            calls.append(1)
            return solve(*args)

        solve = dop853.solve
        monkeypatch.setattr(dop853, "solve", counted)
        match_shooting(params)
        assert len(calls) <= bound

    def test_each_shot_made_once(self, monkeypatch):
        # once per amplitude and tolerance: the diagonal Brent search reads its bracket
        # ends from the scan, and the admissibility probe and the profile reuse the
        # matched pair's shots: in the main regime that is 13 + 13 scan shots and the
        # polish's 14, 40 in all
        shots, ivps = [], []
        shoot, solve = shooting._shoot, dop853.solve

        def recorded(params, c, t_offset, t_end, rtol, atol, backward=False):
            shots.append((params, c, backward, rtol, atol))
            return shoot(params, c, t_offset, t_end, rtol, atol, backward)

        def counted(*args):
            ivps.append(1)
            return solve(*args)

        monkeypatch.setattr(shooting, "_shoot", recorded)
        monkeypatch.setattr(dop853, "solve", counted)
        for params, n_ivps in [(HopfParams(1, 2, 1.0, 4.0), 40),
                               (HopfParams(2, 2, 2.0, 2.0), 66),
                               (HopfParams(2, 3, 1.0, 4.0), 124)]:
            shots.clear()
            ivps.clear()
            assert match_shooting(params).verdict == "solution"
            assert len(shots) == len(set(shots))
            assert len(ivps) == n_ivps
            # nor does a side shoot an amplitude again at one tolerance under another rounding
            for side_tol in {shot[2:] for shot in shots}:
                cs = sorted(c for _, c, *rest in shots if tuple(rest) == side_tol)
                assert all(b - a > 4 * math.ulp(b) for a, b in zip(cs, cs[1:]))

    @pytest.mark.parametrize("params", [HopfParams(1, 2, 1.0, 4.0), HopfParams(1, 2, 1.0, 1.5),
                                        HopfParams(2, 2, 2.0, 2.0)])
    def test_only_the_scan_shoots_at_the_scan_tolerance(self, monkeypatch, params):
        # the 26 scan shots run at SCAN_TOL; every root is accepted on the mismatch of
        # its two contract shots, and the probe and the profile read contract shots only
        contract = (DEFAULT_RTOL, DEFAULT_ATOL)
        calls, ends, read, states = [], {}, [], []
        shoot, shoot_state = shooting._shoot, shooting.ShootState

        def recorded(params, c, t_offset, t_end, rtol, atol, backward=False):
            key = (c, backward, (rtol, atol))
            calls.append(key)
            times, end, dense = shoot(params, c, t_offset, t_end, rtol, atol, backward)
            ends[key] = end

            def reading(t):
                read.append(key)
                return dense(t)

            return times, end, reading

        def state(**fields):
            states.append(shoot_state(**fields))
            return states[-1]

        monkeypatch.setattr(shooting, "_shoot", recorded)
        monkeypatch.setattr(shooting, "ShootState", state)
        m = match_shooting(params)
        cs = np.geomspace(*shooting.C_RANGE, shooting.SCAN_POINTS).tolist()
        assert sorted(k for k in calls if k[2] == shooting.SCAN_TOL) == sorted(
            (c, backward, shooting.SCAN_TOL) for c in cs for backward in (False, True))
        assert {k[2] for k in calls} - {shooting.SCAN_TOL} <= {contract}
        assert {k[2] for k in read} <= {contract}
        for r in states:
            m_contract = ends[(r.c1, True, contract)] - ends[(r.c0, False, contract)]
            assert r.mismatch == tuple(m_contract.tolist())
        if m.verdict == "solution":
            assert m.state in states and read
        else:
            assert len(calls) == 26 and not states and not read

    @pytest.mark.parametrize("mu", [4.0, 1.5])
    def test_scan_end_states_near_the_contract_shots(self, mu):
        # measured: at most 1.8e-7 (mu = 4) and 1.1e-7 (mu = 1.5) apart.  The bound
        # allows 5x that and is still 1/3900 of the smallest move of an end state
        # between neighbouring scan amplitudes (3.9e-3), so the scan's polylines
        # keep their signs and crossings
        params = HopfParams(1, 2, 1.0, mu)
        for c in np.geomspace(*shooting.C_RANGE, shooting.SCAN_POINTS):
            for backward in (False, True):
                scan, full = (shooting._shoot(params, float(c), DEFAULT_T_OFFSET, T_MATCH, *tol,
                                              backward)[1]
                              for tol in (shooting.SCAN_TOL, (DEFAULT_RTOL, DEFAULT_ATOL)))
                assert np.max(np.abs(scan - full)) <= 1e-6

    def test_scan_tolerance_keeps_the_answers(self, monkeypatch):
        # the scan decides only where each search starts: a contract-tolerance scan
        # gives the same verdicts, messages and roots
        sets = [HopfParams(1, 2, 1.0, 4.0), HopfParams(1, 2, 1.0, 1.5), HopfParams(1, 1, 1.0, 1.0),
                HopfParams(2, 2, 2.0, 2.0), HopfParams(2, 3, 1.0, 4.0), HopfParams(3, 2, 1.0, 4.0)]
        coarse = [match_shooting(params) for params in sets]
        monkeypatch.setattr(shooting, "SCAN_TOL", (DEFAULT_RTOL, DEFAULT_ATOL))
        for params, m in zip(sets, coarse):
            full = match_shooting(params)
            assert (m.verdict, m.message) == (full.verdict, full.message)
            if m.verdict == "solution":
                assert (m.state.c0, m.state.c1) == pytest.approx(
                    (full.state.c0, full.state.c1), rel=1e-9)

    def test_dense_state_built_once_per_shot(self, monkeypatch, params_main):
        # the probe and the profile each read both shots of the root
        built, dense_state = [], dop853.dense_state

        def counted(*args):
            built.append(1)
            return dense_state(*args)

        monkeypatch.setattr(dop853, "dense_state", counted)
        assert match_shooting(params_main).verdict == "solution"
        assert len(built) == 2

    @pytest.mark.parametrize("params, counts", [
        (HopfParams(1, 2, 1.0, 4.0), (40, 1607, 185, 21584)),
        (HopfParams(1, 2, 1.0, 1.5), (26, 786, 119, 10912)),  # the scan shots alone
        (HopfParams(2, 2, 2.0, 2.0), (66, 2906, 360, 39324)),
        (HopfParams(2, 3, 1.0, 4.0), (124, 11487, 475, 143792)),
    ])
    def test_work_counts(self, monkeypatch, params, counts):
        # solves, accepted steps, rejected tries and right-hand sides (12 per try, 2
        # per initial step) of one match: a stepper change that moves the steps fails
        steps, tries = [], []
        solve, make = dop853.solve, dop853._compiled()

        def counted_solve(*args):
            rows, t_exit = solve(*args)
            steps.append(rows.shape[1] - 1)
            return rows, t_exit

        def counted_make(*args):
            accel, attempt = make(*args)

            def counted(*state):
                tries.append(1)
                return attempt(*state)

            return accel, counted

        monkeypatch.setattr(dop853, "solve", counted_solve)
        monkeypatch.setattr(dop853, "_compiled", lambda: counted_make)
        match_shooting(params)
        n_rhs = 12 * len(tries) + 2 * len(steps)
        assert (len(steps), sum(steps), len(tries) - sum(steps), n_rhs) == counts

    @pytest.mark.parametrize("p, q, lam, mu", [(3, 2, 1.0, 4.0), (2, 2, 1.5, 0.5), (2, 3, 1.0, 1.0)])
    def test_seeds_outside_band_count_as_band_exits(self, p, q, lam, mu):
        # a small indicial exponent puts the seeds of the box's top amplitudes
        # outside the band; those shots are band exits, not errors
        m = match_shooting(HopfParams(p, q, lam, mu))
        assert m.verdict == "solution"
        # the c = 1e3 forward (row) or backward (column) shots left the band
        assert np.isnan(m.dalpha_map[-1]).all() or np.isnan(m.dalpha_map[:, -1]).all()
        if (p, q) == (3, 2):
            assert (m.state.c0, m.state.c1) == pytest.approx((0.7200626, 6.2839165), abs=1e-7)

    def test_mismatch_csv(self, tmp_path, params_main):
        m = match_shooting(params_main)
        path = tmp_path / "mismatch.csv"
        write_mismatch_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "c0,c1,dalpha,ddalpha"
        assert len(lines) == 1 + m.c0_scan.size**2
