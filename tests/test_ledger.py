"""The ledger of known wrong answers: one row per call whose answer is wrong today.

Each row asserts the right answer, at the smallest mesh that shows the fault,
and is a strict xfail whose reason names the ROADMAP item that fixes it.  A fix
turns its row into XPASS, which fails the run until the change that made it
removes the marker and lists the flip in CHANGES.md.  Only a wrong answer counts
(``raises=AssertionError``): a row that raises is a failure.  The right answer is
never edited to match a run; a wrong answer found later is added as a new row.
"""

import math

import numpy as np
import pytest

from hopfbvp import HopfParams
from hopfbvp.analysis import find_solution
from hopfbvp.shooting import match_shooting

N600 = dict(grid_n=600, n_scan=8)
NOT_FOUND = {"no_sign_change", "failed"}  # any verdict of find_solution but solution_found


def solve(cell, **opts) -> tuple[str, float | None]:
    """find_solution's verdict and s*."""
    out = find_solution(HopfParams(*cell), **opts)
    return out.verdict, out.s_star


def shoot(cell) -> tuple[str, float | None]:
    """match_shooting's verdict and s*, where its (increasing) profile crosses pi/2."""
    out = match_shooting(HopfParams(*cell))
    if out.profile is None:
        return out.verdict, None
    return out.verdict, float(np.interp(math.pi / 2, out.profile.values, out.profile.t))


def row(item: str, why: str, call, cell, opts: dict, verdicts: set, s_near=None, *, id: str):
    """A ledger row: the call, the verdicts that may stand and, for a solution, s* and its bound."""
    return pytest.param(call, cell, opts, verdicts, s_near, id=id,
                        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                reason=f"item {item}: {why}"))


LEDGER = [
    # today: solution_found at s = 0.4369, a scan-point root on a flat glue; shooting
    # says no_root, and at that s l = 0.0 while l-tilde is NaN (both sides flat)
    row("2, 8", "a flat glue is no root", solve, (3, 3, 1.0, 0.05), N600, NOT_FOUND,
        id="flat_glue_3_3_1_0.05"),
    # today: the same, at the same s
    row("2, 8", "a flat glue is no root", solve, (2, 2, 0.2, 0.2), N600, NOT_FOUND,
        id="flat_glue_2_2_0.2_0.2"),
    # today: solution_found at pi/4, unattached at both ends (b = 0.13 at each);
    # shooting says no_root
    row("8", "a solution is a curve from 0 to pi", solve, (4, 4, 2.0, 2.0), N600, NOT_FOUND,
        id="unattached_4_4_2_2"),
    # today: solution_found at s = 0.00575; l-tilde keeps one sign down to s = 2e-4,
    # and shooting says no_root
    row("2", "drive l-tilde to zero, not l", solve, (1, 2, 1.0, 2.05),
        dict(s_min=2e-4, n_scan=30, grid_n=600), {"no_sign_change"}, id="small_s_1_2_1_2.05"),
    # today: solution_found at s = 0.0252 on mu = lambda q, where item 5's identity
    # forbids a root for p = 1; no_sign_change at n = 2000, and shooting says no_root
    row("2", "drive l-tilde to zero, not l", solve, (1, 2, 3.0, 6.0), N600, {"no_sign_change"},
        id="mu_eq_lam_q_1_2_3_6"),
    # today: solution with c1 = 250; item 5's g forbids a root
    row("1", "seed each shot on the leading-order profile", shoot, (2, 1, 1.0, 0.5), {},
        {"no_root"}, id="shoot_2_1_1_0.5"),
    # today: failed; g = 2x(1 - x)(mu - lambda) forbids a root (one of 15 such sets)
    row("5", "the integral identity as a closed-form obstruction", shoot, (1, 1, 1.0, 4.0), {},
        {"no_root"}, id="shoot_1_1_1_4"),
    # today: no_root; the variational s* is 0.3882, and item 1's prototype solves it
    row("1", "seed each shot on the leading-order profile", shoot, (2, 2, 1.0, 0.2), {},
        {"solution"}, (0.3882, 1e-3), id="shoot_2_2_1_0.2"),
    # today: no_sign_change over the default scan from s = 0.02; shooting finds the
    # solution, and the root of l-tilde converges in n at s = 0.00294
    row("6", "follow the jump below s_min", solve, (1, 2, 1.0, 2.111), {},
        {"solution_found"}, (0.00294, 1e-5), id="below_s_min_1_2_1_2.111"),
    # today: solution with c0 = 296.8, seeded at w = c t0^r near 0.4; p = 1 and
    # mu <= lambda q, so item 5's g < 0 forbids a root
    row("1", "seed each shot on the leading-order profile", shoot, (1, 2, 0.5, 0.5), {},
        {"no_root"}, id="shoot_1_2_0.5_0.5"),
    # today: solution with c0 = 250.2; the same g < 0
    row("1", "seed each shot on the leading-order profile", shoot, (1, 2, 0.5, 1.0), {},
        {"no_root"}, id="shoot_1_2_0.5_1"),
    # today: solution with c0 = 321.8; the same g < 0
    row("1", "seed each shot on the leading-order profile", shoot, (1, 3, 0.5, 0.5), {},
        {"no_root"}, id="shoot_1_3_0.5_0.5"),
    # today: solution with c0 = 300.0; the same g < 0
    row("1", "seed each shot on the leading-order profile", shoot, (1, 3, 0.5, 1.0), {},
        {"no_root"}, id="shoot_1_3_0.5_1"),
    # today: solution with c1 = 296.8, the mirror of (1, 2, 0.5, 0.5); q = 1 and
    # mu p >= lambda, so g > 0 forbids a root
    row("1", "seed each shot on the leading-order profile", shoot, (2, 1, 0.5, 0.5), {},
        {"no_root"}, id="shoot_2_1_0.5_0.5"),
    # today: no_sign_change from s_min = 0.02; the root of l-tilde is 0.0069404,
    # 0.0069409 and 0.0069410 at n = 1000, 2000 and 4000, and shooting crosses pi/2 there
    row("6", "follow the jump below s_min", solve, (1, 3, 0.5, 2.0), N600,
        {"solution_found"}, (0.006941, 1e-5), id="below_s_min_1_3_0.5_2"),
    # today: solution_found at s = 0.81 (0.8435 at the default mesh) on a flat glue:
    # the boundary error is 1.57 at both ends, and shooting says no_root
    row("2, 8", "a flat glue is no root", solve, (3, 3, 0.5, 1.0), N600, NOT_FOUND,
        id="flat_glue_3_3_0.5_1"),
    # today: the same at s = 0.81 (0.4743 at the default mesh)
    row("2, 8", "a flat glue is no root", solve, (3, 3, 1.0, 0.5), N600, NOT_FOUND,
        id="flat_glue_3_3_1_0.5"),
]


@pytest.mark.parametrize("call, cell, opts, verdicts, s_near", LEDGER)
def test_right_answer(call, cell, opts, verdicts, s_near):
    verdict, s_star = call(cell, **opts)
    assert verdict in verdicts
    if s_near is not None:
        s_right, bound = s_near
        assert abs(s_star - s_right) <= bound
