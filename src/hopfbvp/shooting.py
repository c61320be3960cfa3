"""Independent BVP pipeline: shoot from both singular endpoints and match.

Near t = 0 every solution attaching to 0 behaves like ``c0 * t**r0``; near
t = pi/2 every solution attaching to pi behaves like ``pi - c1 * tau**r1``
with tau = pi/2 - t.  Seeding an adaptive integrator a small offset away from
each endpoint with those expansions turns the singular BVP into a two-
parameter matching problem: find (c0, c1) such that the forward and backward
trajectories agree in value and slope at a matching point.

A coarse log-grid scan over (c0, c1) locates candidate basins (forward shots
depend only on c0 and backward shots only on c1, so the scan costs one sweep
of each); a derivative-free root finder then polishes cells around which the
mismatch vector field winds.  "No root" is reported only when no scan cell
carries a winding and every polish attempt fails -- numerical evidence of
unsolvability, distinct from a solver failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root

from .core import (
    HALF_PI,
    BlowUpError,
    Grid,
    HopfParams,
    Profile,
    graded_grid,
)
from .core import fd_weights  # noqa: F401  (bound here for perfbench's traced run)
from .ode import coeff_Q, drift_coeff, stencil_residual

__all__ = [
    "ShootState",
    "MatchResult",
    "integrate_from_zero",
    "integrate_from_pi2",
    "match_shooting",
    "write_mismatch_csv",
]

DEFAULT_T_OFFSET = 1e-4
DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-12
MISMATCH_TOL = 1e-8
ALPHA_LOW = -math.pi
ALPHA_HIGH = 2.0 * math.pi


@dataclass(frozen=True)
class ShootState:
    """Matched amplitudes and the residual mismatch at the matching point."""

    c0: float
    c1: float
    t_match: float
    mismatch: tuple[float, float]


@dataclass
class MatchResult:
    """Outcome of the two-sided shooting match."""

    verdict: str  # "solution", "no_root", or "failed"
    state: Optional[ShootState]
    profile: Optional[Profile]
    c0_scan: np.ndarray
    c1_scan: np.ndarray
    dalpha_map: np.ndarray
    ddalpha_map: np.ndarray
    message: str = ""
    max_scaled_residual: float = math.nan


def _rhs(params: HopfParams) -> Callable:
    p, q, lam, mu = params.p, params.q, params.lam, params.mu

    def rhs(t, y):
        sn, cs = math.sin(t), math.cos(t)
        drift = p * cs / sn - q * sn / cs
        qq = lam / sn**2 + mu / cs**2
        return (y[1], -drift * y[1] + qq * math.sin(y[0]) * math.cos(y[0]))

    return rhs


def _series_seed(
    c: float, p: int, q: int, lam: float, mu: float, t0: float
) -> tuple[float, float]:
    """(value, slope) of the three-term endpoint expansion at t0.

    Near the regular singular point the branch attaching to 0 expands as
    ``c t^r + beta t^(r+2) + gamma t^(3r)`` where, with
    P(x) = x^2 + (p-1)x - lambda (so P(r) = 0),

        beta  = c * (r*(p/3 + q) + lam/3 + mu) / P(r + 2)
        gamma = -(2/3) * lam * c^3 / P(3 r)

    Both denominators are positive (their arguments exceed the positive
    indicial root), so the expansion never degenerates.  The pi/2 end uses the
    same formulas with (p, q, lam, mu) -> (q, p, mu, lam), which is the exact
    symmetry t -> pi/2 - t, alpha -> pi - alpha of the equation.
    """
    r = 0.5 * (-(p - 1) + math.sqrt((p - 1) ** 2 + 4.0 * lam))

    def char(x: float) -> float:
        return x * x + (p - 1) * x - lam

    beta = c * (r * (p / 3.0 + q) + lam / 3.0 + mu) / char(r + 2.0)
    gamma = -(2.0 / 3.0) * lam * c**3 / char(3.0 * r)
    value = c * t0**r + beta * t0 ** (r + 2.0) + gamma * t0 ** (3.0 * r)
    slope = (
        c * r * t0 ** (r - 1.0)
        + beta * (r + 2.0) * t0 ** (r + 1.0)
        + gamma * 3.0 * r * t0 ** (3.0 * r - 1.0)
    )
    return value, slope


def _seed_from_zero(c0: float, params: HopfParams, t_start: float):
    return _series_seed(c0, params.p, params.q, params.lam, params.mu, t_start)


def _seed_from_pi2(c1: float, params: HopfParams, t_offset: float):
    """State (alpha, dalpha/dt) at pi/2 - t_offset for amplitude c1."""
    value, slope = _series_seed(c1, params.q, params.p, params.mu, params.lam, t_offset)
    return math.pi - value, slope


def _band_events():
    def low(t, y):
        return y[0] - ALPHA_LOW

    def high(t, y):
        return y[0] - ALPHA_HIGH

    low.terminal = True
    high.terminal = True
    return [low, high]


def _solve(params: HopfParams, t0: float, y0, t1: float, rtol: float, atol: float):
    sol = solve_ivp(
        _rhs(params),
        (t0, t1),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=_band_events(),
    )
    if sol.status == 1:
        exit_time = float(
            min((te[0] for te in sol.t_events if te.size), default=sol.t[-1])
        )
        raise BlowUpError(
            f"trajectory left [{ALPHA_LOW:.4f}, {ALPHA_HIGH:.4f}] at t={exit_time:.6g}",
            exit_time=exit_time,
        )
    if sol.status != 0:
        raise RuntimeError(f"integrator failed: {sol.message}")
    return sol


def integrate_from_zero(
    c0: float,
    params: HopfParams,
    t_end: float,
    t_start: float = DEFAULT_T_OFFSET,
    grid: Optional[Grid] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Profile:
    """Integrate forward from the t = 0 end of the branch with amplitude c0.

    The state at t_start comes from the three-term series seed (leading
    behavior ``c0 * t**r0``).  Raises :class:`BlowUpError` (with the exit
    time) if the trajectory leaves the band [-pi, 2*pi].
    """
    if c0 <= 0:
        raise ValueError("amplitude c0 must be positive")
    if not (0.0 < t_start < t_end < HALF_PI):
        raise ValueError("need 0 < t_start < t_end < pi/2")
    sol = _solve(params, t_start, _seed_from_zero(c0, params, t_start), t_end, rtol, atol)
    if grid is None:
        t = sol.t if sol.t.size >= 3 else np.linspace(t_start, t_end, 5)
        grid = Grid(t)
    return Profile(grid, sol.sol(grid.nodes)[0])


def integrate_from_pi2(
    c1: float,
    params: HopfParams,
    t_start: float,
    t_offset: float = DEFAULT_T_OFFSET,
    grid: Optional[Grid] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> Profile:
    """Integrate backward from pi/2 along the branch with amplitude c1.

    The seed state at pi/2 - t_offset comes from the mirrored series
    expansion, with leading behavior ``pi - c1 * tau**r1``, tau = pi/2 - t.
    """
    if c1 <= 0:
        raise ValueError("amplitude c1 must be positive")
    t0 = HALF_PI - t_offset
    if not (0.0 < t_start < t0):
        raise ValueError("need 0 < t_start < pi/2 - t_offset")
    sol = _solve(params, t0, _seed_from_pi2(c1, params, t_offset), t_start, rtol, atol)
    if grid is None:
        t = sol.t[::-1] if sol.t.size >= 3 else np.linspace(t_start, t0, 5)
        grid = Grid(t)
    return Profile(grid, sol.sol(grid.nodes)[0])


def _scaled_residual(
    profile: Profile, params: HopfParams, seam: Optional[float] = None
) -> float:
    """Max of |equation residual| / (1 + Q) using 5-point interior stencils.

    The merged trajectory comes from a high-order integrator, so the limiting
    factor here is the differentiation stencil; fourth-order weights keep the
    check's own truncation well below the certification level.  Stencils
    straddling the seam at ``t_match`` are skipped: the branches join there
    only to the mismatch tolerance, which the matcher certifies separately.
    """
    t = profile.t
    q = coeff_Q(t, params)
    res = stencil_residual(t, profile.values, drift_coeff(t, params), q, width=5)
    res /= 1.0 + q
    if seam is not None:
        res[2:-2][(t[:-4] <= seam) & (seam <= t[4:])] = np.nan
    return float(np.nanmax(np.abs(res)))


def _merged_values(
    params: HopfParams,
    state: ShootState,
    t_offset: float,
    rtol: float,
    atol: float,
    nodes: np.ndarray,
) -> np.ndarray:
    """Evaluate the matched trajectory pair on the given nodes."""
    fwd = _solve(
        params, t_offset, _seed_from_zero(state.c0, params, t_offset),
        state.t_match, rtol, atol,
    )
    bwd = _solve(
        params, HALF_PI - t_offset, _seed_from_pi2(state.c1, params, t_offset),
        state.t_match, rtol, atol,
    )
    return np.where(
        nodes <= state.t_match,
        fwd.sol(np.minimum(nodes, state.t_match))[0],
        bwd.sol(np.maximum(nodes, state.t_match))[0],
    )


def match_shooting(
    params: HopfParams,
    t_match: float = math.pi / 4.0,
    t_offset: float = DEFAULT_T_OFFSET,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    mismatch_tol: float = MISMATCH_TOL,
    c_range: tuple[float, float] = (1e-3, 1e3),
    scan_points: int = 13,
    max_seeds: int = 8,
    profile_n: int = 2001,
) -> MatchResult:
    """Two-parameter match of forward and backward shots at ``t_match``.

    Returns a :class:`MatchResult` whose verdict is ``"solution"`` (state,
    merged profile, and residual check populated), ``"no_root"`` (scan plus
    polish found no admissible pair), or ``"failed"`` (ambiguous map but no
    converged polish).

    The boundary problem can carry several genuine trajectory pairs, and in
    degenerate cases a whole curve of them, so every converged root is
    collected; the returned one is the increasing, in-band profile with the
    most balanced amplitudes (smallest ``|log(c0/c1)|``, ties to smaller c0).
    A bisection along the balanced diagonal c0 = c1 pins the symmetric member
    of a degenerate family exactly.
    """
    if not (t_offset < t_match < HALF_PI - t_offset):
        raise ValueError("t_match must lie strictly between the seed offsets")
    # scanning and polishing run at a staged (looser) tolerance; the returned
    # root and profile are re-verified at the full contract tolerance
    rtol_stage = max(rtol, 1e-9)
    atol_stage = max(atol, 1e-10)

    caches: dict[tuple, Optional[tuple[float, float]]] = {}

    def end_state(side: str, c: float, tight: bool) -> Optional[tuple[float, float]]:
        key = (side, c, tight)
        if key not in caches:
            rt = rtol if tight else rtol_stage
            at = atol if tight else atol_stage
            try:
                if side == "fwd":
                    sol = _solve(
                        params, t_offset, _seed_from_zero(c, params, t_offset),
                        t_match, rt, at,
                    )
                else:
                    sol = _solve(
                        params, HALF_PI - t_offset, _seed_from_pi2(c, params, t_offset),
                        t_match, rt, at,
                    )
                y = sol.sol(t_match)
                caches[key] = (float(y[0]), float(y[1]))
            except (BlowUpError, RuntimeError):
                caches[key] = None
        return caches[key]

    def mismatch(c0: float, c1: float, tight: bool = False):
        f = end_state("fwd", c0, tight)
        b = end_state("bwd", c1, tight)
        if f is None or b is None:
            return None
        return (b[0] - f[0], b[1] - f[1])

    # coarse scan: one sweep per side thanks to the caches
    cs = np.geomspace(c_range[0], c_range[1], scan_points)
    da = np.full((scan_points, scan_points), np.nan)
    dd = np.full((scan_points, scan_points), np.nan)
    for i, c0 in enumerate(cs):
        for j, c1 in enumerate(cs):
            m = mismatch(float(c0), float(c1))
            if m is not None:
                da[i, j], dd[i, j] = m

    # cells around whose boundary the mismatch vector winds: a nonzero
    # winding certifies a zero of the map inside, sign flips alone do not
    candidate_cells = []
    for i in range(scan_points - 1):
        for j in range(scan_points - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if any(np.isnan(da[c]) or np.isnan(dd[c]) for c in corners):
                continue
            angles = [math.atan2(dd[c], da[c]) for c in corners]
            total = 0.0
            for k in range(4):
                dth = angles[(k + 1) % 4] - angles[k]
                while dth > math.pi:
                    dth -= 2.0 * math.pi
                while dth <= -math.pi:
                    dth += 2.0 * math.pi
                total += dth
            if abs(total) > math.pi:
                candidate_cells.append((i, j))

    norms = np.maximum(np.abs(da), np.abs(dd))
    seeds: list[tuple[float, float]] = []
    for i, j in sorted(
        candidate_cells,
        key=lambda ij: np.nanmin(norms[ij[0] : ij[0] + 2, ij[1] : ij[1] + 2]),
    ):
        seeds.append(
            (float(math.sqrt(cs[i] * cs[i + 1])), float(math.sqrt(cs[j] * cs[j + 1])))
        )
    if not seeds:
        for flat in np.argsort(norms, axis=None):
            i, j = np.unravel_index(flat, norms.shape)
            if np.isnan(norms[i, j]):
                continue
            seeds.append((float(cs[i]), float(cs[j])))
    seeds = seeds[:max_seeds]

    def objective(z: np.ndarray) -> np.ndarray:
        m = mismatch(math.exp(z[0]), math.exp(z[1]))
        if m is None:
            return np.array([1e3, 1e3]) * (1.0 + float(np.sum(np.abs(z))))
        return np.asarray(m)

    def as_root(c0: float, c1: float) -> Optional[ShootState]:
        # amplitudes outside the scanned box are rejected: ever-steeper
        # near-jump trajectory pairs drive the mismatch below any tolerance
        # without an actual zero crossing (widen c_range to chase them)
        if not (0.99 * c_range[0] <= c0 <= 1.01 * c_range[1]):
            return None
        if not (0.99 * c_range[0] <= c1 <= 1.01 * c_range[1]):
            return None
        m = mismatch(c0, c1, tight=True)
        if m is None or float(np.max(np.abs(m))) > mismatch_tol:
            return None
        return ShootState(c0=c0, c1=c1, t_match=t_match, mismatch=m)

    roots: list[ShootState] = []

    def add_root(state: Optional[ShootState]) -> None:
        if state is None:
            return
        if all(
            abs(math.log(state.c0 / r.c0)) + abs(math.log(state.c1 / r.c1)) > 1e-6
            for r in roots
        ):
            roots.append(state)

    # balanced-diagonal bisection: both components must flip across the same
    # diagonal segment, which happens where a degenerate root curve crosses it
    diag = [mismatch(float(c), float(c)) for c in cs]
    for k in range(scan_points - 1):
        m_lo, m_hi = diag[k], diag[k + 1]
        if m_lo is None or m_hi is None:
            continue
        if m_lo[0] * m_hi[0] >= 0.0 or m_lo[1] * m_hi[1] >= 0.0:
            continue
        lo, hi, f_lo = float(cs[k]), float(cs[k + 1]), m_lo[0]
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            m_mid = mismatch(mid, mid)
            if m_mid is None:
                break
            if abs(m_mid[0]) < 0.25 * mismatch_tol or hi / lo < 1.0 + 1e-14:
                add_root(as_root(mid, mid))
                break
            if f_lo * m_mid[0] < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, m_mid[0]

    # derivative-free polish from the candidate cells; a balanced root from
    # the diagonal already wins the selection, so keep the polish short then
    max_polish = 2 if roots else len(seeds)
    for c0_seed, c1_seed in seeds[:max_polish]:
        sol = root(
            objective,
            np.log([c0_seed, c1_seed]),
            method="hybr",
            options={"xtol": 1e-13},
        )
        state = as_root(math.exp(sol.x[0]), math.exp(sol.x[1]))
        if state is None and float(np.max(np.abs(objective(sol.x)))) <= 100.0 * mismatch_tol:
            # converged at the staged tolerance; re-polish tightly
            tight_obj = lambda z: (
                np.asarray(mismatch(math.exp(z[0]), math.exp(z[1]), tight=True))
                if mismatch(math.exp(z[0]), math.exp(z[1]), tight=True) is not None
                else np.array([1e3, 1e3])
            )
            sol = root(tight_obj, sol.x, method="hybr", options={"xtol": 1e-13})
            state = as_root(math.exp(sol.x[0]), math.exp(sol.x[1]))
        add_root(state)

    best: Optional[ShootState] = None
    if roots:
        admissible = []
        for state in roots:
            try:
                probe = _merged_values(
                    params, state, t_offset, rtol_stage, atol_stage,
                    graded_grid(t_offset, HALF_PI - t_offset, 401),
                )
            except (BlowUpError, RuntimeError):
                continue
            monotone = bool(np.all(np.diff(probe) >= -1e-8))
            in_band = bool(np.all((probe > -0.1) & (probe < math.pi + 0.1)))
            if monotone and in_band:
                admissible.append(state)
        pool = admissible if admissible else roots
        best = min(pool, key=lambda r: (abs(math.log(r.c0 / r.c1)), r.c0))

    if best is None:
        if candidate_cells:
            return MatchResult(
                verdict="failed",
                state=None,
                profile=None,
                c0_scan=cs,
                c1_scan=cs,
                dalpha_map=da,
                ddalpha_map=dd,
                message=(
                    f"{len(candidate_cells)} ambiguous scan cells but no polish "
                    f"converged from {len(seeds)} seeds"
                ),
            )
        return MatchResult(
            verdict="no_root",
            state=None,
            profile=None,
            c0_scan=cs,
            c1_scan=cs,
            dalpha_map=da,
            ddalpha_map=dd,
            message=(
                "no cell of the mismatch map carries a sign change in both "
                f"components and no polish converged from {len(seeds)} seeds"
            ),
        )

    # merged profile on a graded grid, forward branch up to t_match
    nodes = graded_grid(t_offset, HALF_PI - t_offset, profile_n)
    grid = Grid(nodes)
    profile = Profile(grid, _merged_values(params, best, t_offset, rtol, atol, nodes))
    max_scaled = _scaled_residual(profile, params, seam=t_match)
    return MatchResult(
        verdict="solution",
        state=best,
        profile=profile,
        c0_scan=cs,
        c1_scan=cs,
        dalpha_map=da,
        ddalpha_map=dd,
        message="matched",
        max_scaled_residual=max_scaled,
    )


def write_mismatch_csv(result: MatchResult, path) -> None:
    """Diagnostic dump of the coarse mismatch map: ``c0,c1,dalpha,ddalpha``."""
    lines = ["c0,c1,dalpha,ddalpha"]
    for i, c0 in enumerate(result.c0_scan):
        for j, c1 in enumerate(result.c1_scan):
            lines.append(
                f"{c0:.17g},{c1:.17g},"
                f"{result.dalpha_map[i, j]:.17g},{result.ddalpha_map[i, j]:.17g}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
