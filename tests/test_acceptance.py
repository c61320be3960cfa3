"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full suite budget is dominated by the solvability map (criterion 6).
"""

import math
import time

import numpy as np
import pytest

from hopfbvp.analysis import (
    comparison_check,
    find_solution,
    scan_jump,
    small_s_report,
    solvability_map,
)
from hopfbvp.cli import main as cli_main
from hopfbvp.closed_forms import blowup_constant_exact
from hopfbvp.core import HALF_PI, Grid, HopfParams, Profile
from hopfbvp.hopf import (
    alpha_hopf_eval,
    eigenvalue_check,
    multiplication_by_name,
    orthmul_eval,
)
from hopfbvp.oracles import run_oracle_suite
from hopfbvp.shooting import match_shooting
from hopfbvp.variational import glue

_state: dict = {}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_closed_form_oracles():
    t0 = time.perf_counter()
    rows = {r.name: r for r in run_oracle_suite()}
    elapsed = time.perf_counter() - t0
    checks = {
        "phi residual <= 1e-6": rows["limit_profile_residual"].value <= 1e-6,
        "psi residual <= 1e-6": rows["comparison_profile_residual"].value <= 1e-6,
        "slope identity <= 1e-8": rows["slope_identity"].value <= 1e-8,
        "A(4) tanh-sinh vs beta <= 1e-8": rows["blowup_constant_lam4"].value <= 1e-8,
        "all rows pass": all(r.passed for r in rows.values()),
        "runtime < 5 s": elapsed < 5.0,
    }
    ok = all(checks.values())
    _report(1, ok, f"{elapsed:.2f}s; " + "; ".join(
        f"{k}={'y' if v else 'N'}" for k, v in checks.items()))
    assert ok, checks


def test_criterion_2_exact_recovery():
    params = HopfParams(p=1, q=1, lam=1.0, mu=1.0)
    t0 = time.perf_counter()
    g = glue(math.pi / 4.0, params, n=2000)
    prof = g.merged_profile()
    var_err = float(np.max(np.abs(prof.values - 2.0 * prof.t)))
    m = match_shooting(params)
    shoot_err = float(np.max(np.abs(m.profile.values - 2.0 * m.profile.t)))
    [scan] = scan_jump([params], 0.3, 1.2, 5, grid_n=2000)
    max_l = max(abs(r.l) for r in scan.rows)
    elapsed = time.perf_counter() - t0
    checks = {
        "variational sup err <= 1e-6": var_err <= 1e-6,
        "shooting sup err <= 1e-6": m.verdict == "solution" and shoot_err <= 1e-6,
        "|l| <= 1e-5 at 5 junctions": max_l <= 1e-5,
        "runtime < 10 s": elapsed < 10.0,
    }
    ok = all(checks.values())
    _report(2, ok, f"{elapsed:.1f}s; var={var_err:.2e} shoot={shoot_err:.2e} "
                   f"max|l|={max_l:.2e}")
    assert ok, checks


def test_criterion_3_main_theorem_regime():
    params = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
    t0 = time.perf_counter()
    [scan] = scan_jump([params], 0.01, 1.5, 40, grid_n=2000)
    _state["main_scan"] = scan
    has_bracket = bool(scan.brackets)
    out = find_solution(params, s_min=0.01, s_max=1.5, n_scan=40, grid_n=2000)
    _state["main_outcome"] = out
    m = match_shooting(params)
    prof = out.glued.merged_profile()
    lo, hi = m.profile.t[0], m.profile.t[-1]
    mask = (prof.t >= lo) & (prof.t <= hi)
    sup_dist = float(
        np.max(np.abs(prof.values[mask] - m.profile.interpolate(prof.t[mask])))
    )
    elapsed = time.perf_counter() - t0
    increasing = bool(np.all(np.diff(prof.values) > 0.0))
    checks = {
        "sign change found": has_bracket,
        "|l(s*)| <= 1e-6": out.verdict == "solution_found"
        and abs(out.glued.l) <= 1e-6,
        "pipelines agree <= 1e-4": m.verdict == "solution" and sup_dist <= 1e-4,
        "strictly increasing": increasing,
        "boundary 0 within 1e-3": out.boundary_error_zero <= 1e-3,
        "boundary pi within 1e-3": out.boundary_error_pi <= 1e-3,
        "runtime < 60 s": elapsed < 60.0,
    }
    ok = all(checks.values())
    _report(3, ok, f"{elapsed:.1f}s; s*={out.s_star:.6f} |l|={abs(out.glued.l):.2e} "
                   f"dist={sup_dist:.2e}")
    assert ok, checks


def test_criterion_4_sign_structure(tmp_path):
    scan = _state.get("main_scan")
    if scan is None:
        pytest.fail("criterion 3 scan unavailable")
    rows = sorted(scan.rows, key=lambda r: r.s)
    smallest = rows[:3]
    near_end = [r for r in rows if HALF_PI - r.s <= 0.1]
    from hopfbvp.analysis import write_scan_csv

    write_scan_csv(scan, tmp_path / "scan.csv")
    checks = {
        "I_s > 0 at three smallest s": all(r.I_s > 0 for r in smallest),
        "l > 0 at three smallest s": all(r.l > 0 for r in smallest),
        "scan reaches within 0.1 of pi/2": bool(near_end),
        "l < 0 near pi/2": all(r.l < 0 for r in near_end),
        "recorded in scan.csv": (tmp_path / "scan.csv").exists(),
    }
    ok = all(checks.values())
    _report(4, ok, f"smallest l: {[f'{r.l:.3e}' for r in smallest]}; "
                   f"near-pi/2 l: {[f'{r.l:.3e}' for r in near_end]}")
    assert ok, checks


def test_criterion_5_necessary_condition(tmp_path):
    results = {}
    for mu in (1.5, 1.9):
        [scan] = scan_jump([HopfParams(p=1, q=2, lam=1.0, mu=mu)], 0.01, 1.5, 40, grid_n=1200)
        rc = cli_main([
            "solve", "--p", "1", "--q", "2", "--lambda", "1", "--mu", str(mu),
            "--n", "1200", "--n-scan", "40", "--s-min", "0.01", "--s-max", "1.5",
            "--out-dir", str(tmp_path / f"mu{mu}"),
        ])
        results[mu] = (len(scan.brackets), rc)
    checks = {
        f"mu={mu}: no sign change and exit 2": brackets == 0 and rc == 2
        for mu, (brackets, rc) in results.items()
    }
    ok = all(checks.values())
    _report(5, ok, str(results))
    assert ok, checks


def test_criterion_6_solvability_map():
    t0 = time.perf_counter()
    cells = solvability_map(
        1, 2, (1.0, 2.0), (1.0, 6.0), 5, 10,
        grid_n=1000, n_scan=14, s_min=0.02, s_max=1.5, jobs=4,
    )
    elapsed = time.perf_counter() - t0
    above = [c for c in cells if c.mu > c.lam * 2 + 0.2]
    below = [c for c in cells if c.mu < c.lam * 2 - 0.2]
    checks = {
        "every cell above threshold solvable": all(
            c.verdict == "solution_found" for c in above
        ),
        "every cell below threshold unsolvable": all(
            c.verdict == "no_sign_change" for c in below
        ),
        "bands nonempty": bool(above) and bool(below),
        "runtime < 15 min": elapsed < 900.0,
    }
    ok = all(checks.values())
    _report(6, ok, f"{elapsed:.0f}s; {len(above)} above / {len(below)} below; "
                   f"verdicts above={set(c.verdict for c in above)} "
                   f"below={set(c.verdict for c in below)}")
    assert ok, checks


S_SEQUENCE = (0.04, 0.02, 0.01)


def test_criterion_7_blowup_convergence():
    params = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
    rows = small_s_report(params, S_SEQUENCE, 0.1, grid_n=2000)
    dists = [r.sup_distance for r in rows]
    checks = {
        "strictly decreasing": dists[0] > dists[1] > dists[2],
        "final distance <= 0.05": dists[2] <= 0.05,
    }
    ok = all(checks.values())
    _report(7, ok, f"distances: {[f'{d:.4f}' for d in dists]}")
    assert ok, checks


def test_criterion_8_is1_asymptotics():
    strong = HopfParams(p=1, q=2, lam=4.0, mu=12.0)
    vals4 = [r.Is1_scaled for r in small_s_report(strong, S_SEQUENCE, 0.1, grid_n=2000)]
    target = 0.95 * blowup_constant_exact(4.0)  # A(4) = pi/2
    weak = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
    vals1 = [r.Is1_scaled for r in small_s_report(weak, S_SEQUENCE, 0.1, grid_n=2000)]
    checks = {
        "lam=4: s^-2 I_s1 >= 0.95 A(4)": vals4[-1] >= target,
        "lam=1: strictly increasing": vals1[0] < vals1[1] < vals1[2],
    }
    ok = all(checks.values())
    _report(8, ok, f"lam4: {[f'{v:.5f}' for v in vals4]} (target {target:.5f}); "
                   f"lam1: {[f'{v:.3f}' for v in vals1]}")
    assert ok, checks


def test_criterion_9_comparison_lemma():
    params = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
    rng = np.random.default_rng(2024)
    met = []
    attempts = 0
    while len(met) < 10 and attempts < 40:
        attempts += 1
        s = float(np.exp(rng.uniform(math.log(0.004), math.log(0.02))))
        r_scale = float(rng.uniform(35.0, 65.0))
        d = float(rng.uniform(2.0, 12.0))
        t0 = r_scale * s
        rep = comparison_check(s, d, t0, params, grid_n=1500)
        if rep.hypothesis_met:
            met.append(rep)
    checks = {
        "10 admissible configurations": len(met) == 10,
        "ordering holds on all nodes": all(r.min_gap >= -1e-6 for r in met),
        "supersolution positive above theta": all(r.supersolution_ok for r in met),
    }
    ok = all(checks.values())
    worst_gap = min((r.min_gap for r in met), default=float("nan"))
    _report(9, ok, f"{len(met)} configs from {attempts} draws; "
                   f"worst gap {worst_gap:.2e}")
    assert ok, checks


def test_criterion_10_eigenmap_algebra():
    rng = np.random.default_rng(7)
    kinds = ["complex", "quaternion", "octonion", "restricted3", "restricted5",
             "restricted9"]
    worst_norm_mult = 0.0
    for kind in kinds:
        m = multiplication_by_name(kind)
        x = rng.normal(size=(1000, m.k))
        y = rng.normal(size=(1000, m.l))
        out = orthmul_eval(m, x, y)
        err = np.abs(
            np.linalg.norm(out, axis=1)
            - np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        )
        worst_norm_mult = max(worst_norm_mult, float(np.max(err)))
    eigenvalues = tuple(
        eigenvalue_check(multiplication_by_name(k))
        for k in ("complex", "quaternion", "octonion")
    )
    traces_zero = True
    for kind in ("complex", "quaternion", "octonion"):
        m = multiplication_by_name(kind)
        dim = m.k + m.l
        for comp in range(m.n_out):
            h = np.zeros((dim, dim), dtype=np.int64)
            h[: m.k, m.k :] = 2 * m.tensor[comp]
            h[m.k :, : m.k] = 2 * m.tensor[comp].T
            traces_zero &= int(np.trace(h)) == 0

    t = np.linspace(1e-4, HALF_PI - 1e-4, 2001)
    prof = Profile(Grid(t), 2.0 * t)
    m = multiplication_by_name("complex")
    worst_u = 0.0
    for _ in range(10000):
        tt = rng.uniform(t[0], t[-1])
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        u = alpha_hopf_eval(prof, m, tt, x / np.linalg.norm(x), y / np.linalg.norm(y))
        worst_u = max(worst_u, abs(float(np.linalg.norm(u)) - 1.0))
    checks = {
        "norm multiplicativity <= 1e-12": worst_norm_mult <= 1e-12,
        "Hessian traces exactly zero": traces_zero,
        "eigenvalues (8, 16, 32)": eigenvalues == (8, 16, 32),
        "join map norm <= 1e-10 over 1e4 samples": worst_u <= 1e-10,
    }
    ok = all(checks.values())
    _report(10, ok, f"norm-mult {worst_norm_mult:.1e}; eig {eigenvalues}; "
                    f"|u|-1 max {worst_u:.1e}")
    assert ok, checks
