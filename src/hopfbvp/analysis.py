"""Jump-function scans, root finding, asymptotic trend checks, solvability maps.

The glued curve alpha_s solves the full boundary problem exactly when its
derivative jump l(s) vanishes.  This module scans l over geometrically spaced
junction values, finds a root by Brent's method in one bracket, and turns the
asymptotic statements about the small-s regime into finite numerical trend
checks.  :func:`small_s_report` reads three of them from one glue per s:
convergence of the stretched profiles to the limit profile, growth of s^-2
I_s^1, and smallness of I_s^2 relative to I_s^1.  :func:`comparison_check`
tests the comparison-family ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .closed_forms import phi_limit, psi_comparison, theta_threshold
from .core import HALF_PI, ConvergenceError, Grid, HopfParams, Profile, brentq, simpson_weights, write_csv
from .ode import _sin_cos_power, _trig_squares, residual
from .variational import DEFAULT_N, GluedSolution, glue

__all__ = [
    "ScanRow",
    "ScanResult",
    "SolveOutcome",
    "SolvabilityCell",
    "SmallSRow",
    "ComparisonReport",
    "scan_jump",
    "find_solution",
    "small_s_report",
    "comparison_check",
    "auto_comparison_config",
    "solvability_map",
    "write_scan_csv",
    "write_map_csv",
]

ROOT_TOL = 1e-6
S_MIN, S_MAX = 0.02, 1.5  # the default scanned junction range
N_SCAN = 16
RESIDUAL_MARGIN = 0.05  # "away from endpoints" band for residual certification
MAP_GRID_N = 1000  # mesh size per map cell; the CLI caps its --n here
MAP_N_SCAN = 14
N_BLOWUP_SAMPLES = 2001  # points of [eps, 1/eps] in the blow-up sup distance


@dataclass
class ScanRow:
    s: float
    l: float = math.nan
    l_tilde: float = math.nan
    I_s: float = math.nan
    I_s1: float = math.nan
    I_s2: float = math.nan
    converged: bool = False
    # why the glued solve failed; empty for converged rows, not written to CSV
    reason: str = ""


@dataclass
class ScanResult:
    """Table of jump values over junction angles plus sign-change brackets."""

    params: HopfParams
    rows: list[ScanRow]
    brackets: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SolveOutcome:
    """Result of the scan-bracket-Brent pipeline for one parameter set."""

    verdict: str  # "solution_found", "no_sign_change", or "failed"
    s_star: Optional[float]
    glued: Optional[GluedSolution]
    scan: ScanResult
    max_residual_away: float = math.nan
    boundary_error_zero: float = math.nan
    boundary_error_pi: float = math.nan
    message: str = ""


@dataclass
class SolvabilityCell:
    lam: float
    mu: float
    verdict: str  # "solution_found", "no_sign_change", "inconclusive"
    s_star: Optional[float] = None
    # why the cell is inconclusive; empty otherwise, not written to CSV
    reason: str = ""


def _pool_map(fn, tasks: Iterable, jobs: int) -> list:
    """[fn(t) for t in tasks], over ``jobs`` processes if jobs > 1; tasks are drawn one at a time.

    Every pool of the library runs here, so here it refuses jobs < 1, before drawing a task.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [fn(t) for t in tasks]
    # imported here: concurrent.futures.process loads multiprocessing, socket and logging
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _is_root(l: float, root_tol: float) -> bool:
    """The root rule of the search: the jump meets the tolerance (never for NaN)."""
    return abs(l) <= root_tol


def _start(x: float, held: list) -> Optional[np.ndarray]:
    """Newton start at x from [(x_k, union values)]: cold, a copy of one, or the secant of two."""
    if len(held) < 2 or held[0][0] == held[1][0]:
        return held[-1][1] if held else None
    (xb, b), (xa, a) = held  # a + (a - b) c: the pin stays pi/2, where a - b is 0
    return a + (a - b) * ((x - xa) / (xa - xb))


def _row_start(mu: float, row: list) -> np.ndarray:
    """Newton start at mu from 2 or 3 glues [(mu_k, union values)] of its row: the Lagrange fit
    in mu of the interior values, in log mu of the exterior ones (r1(mu) moves along the row),
    and pi/2 at the pin.  A repeated log mu, so any repeated mu, gives a copy of the last."""
    logs = [math.log(m) for m, _ in row]
    if len(set(logs)) < len(logs):
        return row[-1][1]
    n, start = (row[-1][1].size + 1) // 2, np.full_like(row[-1][1], HALF_PI)
    for side, x, xs in ((np.s_[:n - 1], mu, [m for m, _ in row]), (np.s_[n:], math.log(mu), logs)):
        start[side] = sum(math.prod((x - xj) / (xk - xj) for xj in xs if xj != xk) * v[side]
                          for xk, (_, v) in zip(xs, row))
    return start


def _scan_glue(s: float, params: HopfParams, grid_n: int,
               start: Optional[np.ndarray]) -> tuple[ScanRow, Optional[np.ndarray]]:
    """A scan glue's row, and its curve if attached at both ends: a flat side is no start."""
    try:
        g = glue(s, params, n=grid_n, start=start)
    except ConvergenceError as exc:
        return ScanRow(s=s, reason=str(exc)), None
    row = ScanRow(s=s, l=g.l, l_tilde=g.l_tilde, I_s=g.I_s, I_s1=g.I_s1, I_s2=g.I_s2,
                  converged=True)
    return row, g.merged_profile().values if g.attached else None


def _glue_junction(task: tuple[float, Sequence[HopfParams], int, tuple]) -> list[ScanRow]:
    """The scan rows of all cells at junction s, the first one given (see :func:`scan_jump`);
    it holds the last three attached glues, and a row start reads those at the cell's lambda."""
    s, cells, grid_n, lead = task
    rows, held, firsts = [], [], []  # the last three attached glues, and row starts
    for k, params in enumerate(cells):
        row = [(c.mu, v) for c, v in held if c.lam == params.lam]
        col = [(c.lam, v) for c, v in firsts if c.mu == params.mu]
        start = _row_start(params.mu, row) if len(row) > 1 else _start(params.lam, col or held[-1:])
        scan_row, values = _scan_glue(s, params, grid_n, start) if k else lead
        if values is not None:
            held = held[-2:] + [(params, values)]
            firsts = firsts[-1:] + held[-1:] if k == 0 or params.lam != cells[k - 1].lam else firsts
        rows.append(scan_row)
    return rows


def scan_jump(
    cells: Sequence[HopfParams],
    s_min: float,
    s_max: float,
    n: int,
    grid_n: int = DEFAULT_N,
    jobs: int = 1,
) -> list[ScanResult]:
    """Glued solves at n geometrically spaced junctions; one ScanResult per cell.

    The first cell is glued here, junction by junction, from the secant in log s through
    its last two glues (the junctions are even in log s), else a copy, else cold.  A task
    glues the others at that s (sharing ``glue``'s junction record) in lambda-major order,
    fitting each side through its row's last two or three glues (:func:`_row_start`), else
    by the secant in lambda through the last two first cells of rows at their mu, else a
    copy, else of the last glue, else cold.  Only attached glues count; the closing step
    keeps l a cold start's, to rounding.  Starts read only earlier glues: rows match at any
    ``jobs``.  Rows hold a glue's values, not the glue, and read no root rule; failures are rows.
    """
    if not (0.0 < s_min < s_max < HALF_PI):
        raise ValueError(f"need 0 < s_min < s_max < pi/2, got s_min={s_min}, s_max={s_max}")
    if n < 2:
        raise ValueError(f"need at least 2 scan points, got n_scan={n}")
    if not cells:
        raise ValueError("need at least one cell to scan")

    def tasks():
        held = []  # the first cell's last two attached glues, (log s, union values)
        for s in map(float, np.geomspace(s_min, s_max, n)):
            lead = _scan_glue(s, cells[0], grid_n, _start(math.log(s), held))
            held = held if lead[1] is None else held[-1:] + [(math.log(s), lead[1])]
            yield s, cells, grid_n, lead

    rows = _pool_map(_glue_junction, tasks(), jobs)
    scans = []
    for cell, cell_rows in zip(cells, map(list, zip(*rows))):
        good = [r for r in cell_rows if r.converged and np.isfinite(r.l)]
        brackets = [(lo.s, hi.s) for lo, hi in zip(good[:-1], good[1:]) if lo.l * hi.l < 0.0]
        scans.append(ScanResult(params=cell, rows=cell_rows, brackets=brackets))
    return scans


def _certify(glued: GluedSolution, params: HopfParams) -> float:
    """Max equation residual away from the endpoints; the boundary errors are the glue's.

    "Away" means more than ``RESIDUAL_MARGIN`` from each endpoint.  The
    residual is evaluated on a strided subset of the union nodes (about 700
    per side), keeping the exact solver values but widening the stencils: the
    finest graded spacings (~1e-7 at the junction) would otherwise amplify
    value rounding by 1/h^2 and swamp the true residual.  The junction node is kept and marked so its kinked stencil is skipped;
    :func:`residual` also skips the stencils still finer than ``H_FLOOR``.
    """
    prof = glued.merged_profile()
    t, v = prof.t, prof.values
    j = prof.grid.junction_index
    # stride each side separately so the thinned spacing varies as smoothly as
    # the grading itself (mixing the sides' nodes would alternate gap sizes
    # and second-difference the solver's nodal error field)
    ki = max(1, (j + 1) // 700)
    ke = max(1, (t.size - j) // 700)
    # sorted and unique as they stand (np.union1d would import numpy.ma for np.unique)
    idx = np.concatenate((np.arange(0, j, ki), np.arange(j, t.size - 1, ke), [t.size - 1]))
    ts, j_pos = t[idx], int(np.nonzero(idx == j)[0][0])
    sub = Profile(Grid(ts, junction_index=j_pos), v[idx],
                  d_left=glued.d_minus, d_right=glued.d_plus)
    res = residual(sub, params)
    band = (ts > RESIDUAL_MARGIN) & (ts < HALF_PI - RESIDUAL_MARGIN)
    vals = np.abs(res[band])
    return float(np.nanmax(vals)) if vals.size else math.nan


def find_solution(
    params: HopfParams,
    s_min: float = S_MIN,
    s_max: float = S_MAX,
    n_scan: int = N_SCAN,
    grid_n: int = DEFAULT_N,
    root_tol: float = ROOT_TOL,
) -> SolveOutcome:
    """Drive l(s) to zero by Brent's method over the first sign-change bracket.

    The search stops at the first glue that is a root (:func:`_is_root`), and
    :func:`_certify` measures that glue's residual here.  Returns ``no_sign_change``
    (numerical evidence of unsolvability, not a proof) when the scan shows a single-signed jump,
    ``failed`` on numerical breakdown or when the bracket shrinks to rounding
    without meeting the tolerance, and ``solution_found`` with the
    residual-certified glued curve otherwise.
    """
    [scan] = scan_jump([params], s_min, s_max, n_scan, grid_n=grid_n)
    outcome = _finish(scan, grid_n, root_tol)
    if outcome.glued is not None:
        outcome.max_residual_away = _certify(outcome.glued, params)
    return outcome


def _finish(scan: ScanResult, grid_n: int, root_tol: float) -> SolveOutcome:
    """Brent's method on l over one bracket; the map reads no certificate, so none is made.

    The bracket is (s, s) at the first scan row that is a root (:func:`_is_root`;
    e.g. the q = 1, lambda = mu family, where l vanishes identically), else the
    first sign change: a root row wins over every bracket, also one before it in s.
    With neither, fewer than two converged rows are ``failed``, not ``no_sign_change``.
    """
    root = next((r.s for r in scan.rows if _is_root(r.l, root_tol)), None)
    bracket = (root, root) if root is not None else next(iter(scan.brackets), None)
    if bracket is None:
        converged = sum(r.converged for r in scan.rows)
        if converged < 2:  # too few jump values for a sign change
            first = next(r for r in scan.rows if not r.converged)
            return SolveOutcome("failed", None, None, scan, message=(
                f"{converged} of {len(scan.rows)} scan rows converged, too few to show a "
                f"sign; the first failure, at s={first.s}: {first.reason}"))
        return SolveOutcome(
            "no_sign_change", None, None, scan,
            message="jump kept a single sign over the scanned junctions",
        )
    # Brent evaluates both ends first; glue is deterministic, so the scan's
    # values stand in for gluing them again, except at a root: that end is
    # glued (cold), so the certified glue is one that Brent made
    known = {r.s: r.l for r in scan.rows if r.s in bracket and not _is_root(r.l, root_tol)}
    glued, held = None, []  # the last glue made; the last two attached, (s, union values)

    def jump(s: float) -> float:
        """l(s), read as 0 at a root: brentq returns at f == 0.  Each s is glued once."""
        nonlocal glued
        if s in known:
            return known[s]
        try:
            glued = glue(s, scan.params, n=grid_n, start=_start(s, held))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"glued solve failed at s={s}, root search stopped: {exc}"
            ) from None
        if glued.attached:
            held[:] = held[-1:] + [(s, glued.merged_profile().values)]
        known[s] = 0.0 if _is_root(glued.l, root_tol) else glued.l
        return known[s]

    try:
        brentq(jump, *bracket)
    except ConvergenceError as exc:
        return SolveOutcome("failed", None, None, scan, message=str(exc))
    if glued is None or not _is_root(glued.l, root_tol):
        # NaN when the bracket was already below brentq's xtol and no glue was made
        last_l = math.nan if glued is None else glued.l
        return SolveOutcome("failed", None, None, scan, message=(
            "root search shrank its bracket without reaching the jump "
            f"tolerance (last |l| = {abs(last_l):.3e})"))
    return SolveOutcome("solution_found", glued.s, glued, scan, math.nan,
                        glued.boundary_error_zero, glued.boundary_error_pi)


@dataclass
class SmallSRow:
    """The small-junction checks at one s, all read from a single glue."""

    s: float
    sup_distance: float  # max |gamma_s - phi| over t in [eps, 1/eps]
    Is1_scaled: float  # s^-2 * I_s^1
    Is2_ratio: float  # I_s^2 / I_s^1
    A_s: float  # part of I_s^2 over t > s/eps
    B_s: float  # part of I_s^2 over t < s/eps
    bound_ok: bool  # B_s <= tan(s/eps)^2 * I_s^1


def small_s_report(
    params: HopfParams,
    s_values: Sequence[float],
    eps: float,
    grid_n: int = DEFAULT_N,
) -> list[SmallSRow]:
    """Blow-up distance and I_s^1, I_s^2 asymptotics from one glue per s.

    gamma_s(t) = alpha_s(s*t) is compared with the limit profile pinned at
    pi/2 at t = 1, over t in [eps, 1/eps].  For lambda > 1, s^-2 I_s^1
    approaches the finite limit A(lambda); for lambda = 1 it grows without
    bound as s -> 0.  I_s^2 is split at the outer edge t = s/eps of the
    blow-up window: the inner integrand equals tan(t)^2 times the I_s^1
    integrand, so B_s <= tan(s/eps)^2 I_s^1 holds exactly, and the ratio
    I_s^2/I_s^1 shrinks along s -> 0.  Limit and split are p = 1's: other p raise ValueError.
    """
    if params.p != 1:
        raise ValueError("the small-s checks hold for p = 1 only: the limit profile for p >= 2 "
                         "(the rescaled leading-order profile) is not computed")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    s_values = [float(s) for s in s_values]
    if any(s / eps >= HALF_PI for s in s_values):
        raise ValueError("s/eps must stay below pi/2")
    tt = np.geomspace(eps, 1.0 / eps, N_BLOWUP_SAMPLES)
    phi = phi_limit(tt, 1.0, params.lam)
    rows = []
    for s in s_values:
        glued = glue(s, params, n=grid_n)
        prof = glued.merged_profile()
        cut = s / eps
        b_s, a_s = _split_Is2(prof, params.q, cut)
        bound = math.tan(cut) ** 2 * glued.I_s1
        rows.append(SmallSRow(
            s=s,
            sup_distance=float(np.max(np.abs(prof.interpolate(s * tt) - phi))),
            Is1_scaled=glued.I_s1 / s**2,
            Is2_ratio=glued.I_s2 / glued.I_s1,
            A_s=a_s,
            B_s=b_s,
            bound_ok=bool(b_s <= bound * (1.0 + 1e-12) + 1e-300),
        ))
    return rows


def _split_Is2(prof: Profile, q: int, cut: float) -> tuple[float, float]:
    """Simpson quadratures of the I_s^2 integrand below and above t = cut.

    ``cut`` ends the one part and starts the other; a node equal to it is
    that shared end, so no interval has zero length.
    """
    t, v = prof.t, prof.values

    def chunk(ts: np.ndarray, vs: np.ndarray) -> float:
        g = _sin_cos_power(_trig_squares(ts), 3, 2 * q - 3) * _trig_squares(vs)[1]
        return float(simpson_weights(ts) @ g)

    v_cut = float(prof.interpolate(cut))
    inner, outer = t < cut, t > cut
    t_in = np.concatenate(([0.0], t[inner], [cut]))
    v_in = np.concatenate(([0.0], v[inner], [v_cut]))
    t_out = np.concatenate(([cut], t[outer], [HALF_PI]))
    v_out = np.concatenate(([v_cut], v[outer], [math.pi]))
    return chunk(t_in, v_in), chunk(t_out, v_out)


@dataclass
class ComparisonReport:
    s: float
    d: float
    t0: float
    theta: float
    alpha_t0: float
    psi_t0: float
    hypothesis_met: bool
    min_gap: float = math.nan  # min over nodes in (t0, pi/2) of alpha - psi
    ordering_ok: bool = False
    supersolution_min: float = math.nan
    supersolution_ok: bool = False
    n_nodes_checked: int = 0


def comparison_check(
    s: float,
    d: float,
    t0: float,
    params: HopfParams,
    grid_n: int = DEFAULT_N,
) -> ComparisonReport:
    """Ordering of the glued curve above the scaled comparison profile.

    Hypothesis: alpha_s(t0) > psi_{d*s}(t0) > max(theta, 3*pi/4).  When it is
    met, the glued curve must dominate psi_{d*s} (up to 1e-6) on every
    node in (t0, pi/2), and the comparison profile's flux defect

        (f psi')' - f Q sin(psi) cos(psi)
            = sin(t) cos(t)^(q-2) * ((lam - mu) cos(psi) - sqrt(lam)(q-1)) * sin(psi)

    must be positive wherever psi exceeds the threshold angle.
    """
    theta = theta_threshold(params)
    glued = glue(s, params, n=grid_n)
    prof = glued.merged_profile()
    ds = d * s
    alpha_t0 = float(prof.interpolate(t0))
    psi_t0 = float(psi_comparison(t0, ds, params.lam))
    hypothesis = alpha_t0 > psi_t0 > max(theta, 0.75 * math.pi)
    report = ComparisonReport(
        s=s, d=d, t0=t0, theta=theta,
        alpha_t0=alpha_t0, psi_t0=psi_t0, hypothesis_met=hypothesis,
    )
    if not hypothesis:
        return report
    t = prof.t
    mask = t > t0
    psi = psi_comparison(t[mask], ds, params.lam)
    gap = prof.values[mask] - psi
    factor = (
        np.sin(t[mask])
        * np.cos(t[mask]) ** (params.q - 2)
        * (
            (params.lam - params.mu) * np.cos(psi)
            - math.sqrt(params.lam) * (params.q - 1)
        )
        * np.sin(psi)
    )
    above = psi > theta
    report.min_gap = float(np.min(gap))
    report.ordering_ok = bool(report.min_gap >= -1e-6)
    report.supersolution_min = float(np.min(factor[above])) if np.any(above) else math.inf
    report.supersolution_ok = bool(report.supersolution_min > 0.0)
    report.n_nodes_checked = int(mask.sum())
    return report


def auto_comparison_config(
    s: float,
    params: HopfParams,
    R: float = 50.0,
) -> tuple[float, float, float]:
    """Pick (s, d, t0) with psi_{d*s}(R*s) above max(theta, 3*pi/4) + 0.01.

    Searches d over (1, R); if no admissible d exists at the given s, s is
    halved and the search retried, at most twice.
    """
    theta = theta_threshold(params)
    target = max(theta, 0.75 * math.pi) + 0.01
    tried = [s * 0.5**k for k in range(3)]
    for s in tried:
        if R * s < HALF_PI:
            dd = np.geomspace(1.0 + 1e-6, R, 400)
            vals = np.array(
                [psi_comparison(R * s, float(d) * s, params.lam) for d in dd]
            )
            ok = np.nonzero(vals >= target)[0]
            if ok.size:
                # the largest admissible d leaves the most room under alpha_s
                return s, float(dd[ok[-1]]), R * s
    raise ValueError(
        f"no comparison scale d in (1, {R}) reaches the threshold for s in {tried}"
    )


def _map_cell(task: tuple[ScanResult, int, float]) -> SolvabilityCell:
    scan, grid_n, root_tol = task
    lam, mu = scan.params.lam, scan.params.mu
    try:
        outcome = _finish(scan, grid_n, root_tol)
    except (ValueError, ConvergenceError, RuntimeError) as exc:
        return SolvabilityCell(lam=lam, mu=mu, verdict="inconclusive",
                               reason=f"{type(exc).__name__}: {exc}")
    failed = outcome.verdict == "failed"
    return SolvabilityCell(lam=lam, mu=mu, verdict="inconclusive" if failed else outcome.verdict,
                           s_star=outcome.s_star, reason=outcome.message if failed else "")


def solvability_map(
    p: int,
    q: int,
    lambda_range: tuple[float, float],
    mu_range: tuple[float, float],
    n_lambda: int,
    n_mu: int,
    grid_n: int = MAP_GRID_N,
    n_scan: int = MAP_N_SCAN,
    jobs: int = 1,
    s_min: float = S_MIN,
    s_max: float = S_MAX,
    root_tol: float = ROOT_TOL,
) -> list[SolvabilityCell]:
    """The scan/Brent pipeline of :func:`find_solution` over a (lambda, mu) grid.

    All cells are scanned together (see :func:`scan_jump`), then each
    finishes its own search; the cells are find_solution's at any ``jobs``.
    They are laid out lambda-major; per-cell failures of the search are
    marked ``inconclusive`` rather than raised.  A range is refused with an end not in (0, inf),
    a count below 1, or equal ends and a count above 1 (it would solve one cell that often).
    """
    for name, (lo, hi), count in (("lambda", lambda_range, n_lambda), ("mu", mu_range, n_mu)):
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise ValueError(f"lambda and mu ranges must be positive and finite, got {name} "
                             f"range {lo:g}:{hi:g}:{count}")
        if count < 1:
            raise ValueError(f"{name} range {lo:g}:{hi:g}:{count} has no values; use count >= 1")
        if lo == hi and count > 1:
            raise ValueError(f"{name} range {lo:g}:{hi:g}:{count} repeats one value; use count 1")
    lams = np.linspace(lambda_range[0], lambda_range[1], n_lambda)
    mus = np.linspace(mu_range[0], mu_range[1], n_mu)
    cells = [HopfParams(p=p, q=q, lam=lam, mu=mu) for lam in lams for mu in mus]
    scans = scan_jump(cells, s_min, s_max, n_scan, grid_n=grid_n, jobs=jobs)
    return _pool_map(_map_cell, [(scan, grid_n, root_tol) for scan in scans], jobs)


# --- CSV writers ---------------------------------------------------------------


def write_scan_csv(scan: ScanResult, path) -> None:
    rows = scan.rows
    write_csv(path, "s,l,l_tilde,I_s,I_s1,I_s2,converged",
              [r.s for r in rows], [r.l for r in rows], [r.l_tilde for r in rows],
              [r.I_s for r in rows], [r.I_s1 for r in rows], [r.I_s2 for r in rows],
              [int(r.converged) for r in rows])


def write_map_csv(cells: list[SolvabilityCell], path) -> None:
    write_csv(path, "lambda,mu,verdict,s_star", [c.lam for c in cells],
              [c.mu for c in cells], [c.verdict for c in cells], [c.s_star for c in cells])
