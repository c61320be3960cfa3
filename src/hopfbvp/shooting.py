"""Independent BVP pipeline: shoot from both singular endpoints and match.

Near t = 0 every solution attaching to 0 behaves like ``c0 * t**r0``; near
t = pi/2 every solution attaching to pi behaves like ``pi - c1 * tau**r1``
with tau = pi/2 - t.  Seeding an adaptive integrator a small offset away from
each endpoint with those expansions turns the singular BVP into a two-
parameter matching problem: find (c0, c1) such that the forward and backward
trajectories agree in value and slope at a matching point.

The forward end state (alpha, alpha') at the matching point depends only on
c0 and the backward one only on c1, so a matching pair is a crossing of two
planar curves, Gamma_f(c0) and Gamma_b(c1).  Both curves are sampled once on
a log grid of amplitudes.  A Brent search on the diagonal c0 = c1 starts from
their values at a bracket's ends, and each crossing of the polylines seeds a
Newton iteration in (log c0, log c1) whose separable Jacobian costs one extra
shot per side; one rule accepts the roots of both.  "No root" (no crossing, no
diagonal bracket) is numerical evidence of unsolvability, not a failed search.

Shots run the float DOP853 stepper of :mod:`hopfbvp.dop853` and keep only their
step ends; a shot's dense state is built from them on first read (a root's pair), once.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dop853
from .core import (
    HALF_PI,
    BlowUpError,
    Grid,
    HopfParams,
    Profile,
    brentq,
    graded_grid,
    write_csv,
)
from .core import fd_weights  # noqa: F401  (bound here for perfbench's traced run)
from .ode import coefficients, stencil_residual

__all__ = [
    "ShootState",
    "MatchResult",
    "integrate_from_zero",
    "match_shooting",
    "write_mismatch_csv",
]

DEFAULT_T_OFFSET = 1e-4
DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-12
MISMATCH_TOL = 1e-8
T_MATCH = math.pi / 4.0
# amplitudes c0, c1 scanned on a log grid of SCAN_POINTS values over C_RANGE
C_RANGE = (1e-3, 1e3)
SCAN_POINTS = 13
PROFILE_N = 2001  # nodes of the merged profile
POLISH_MAX_ITER = 20
ALPHA_LOW = -math.pi
ALPHA_HIGH = 2.0 * math.pi


def __getattr__(name: str):
    """scipy's ``solve_ivp`` and ``root``, imported on first access (PEP 562).

    Shooting calls neither.  They are bound here for the benchmark's traced run, which
    wraps both (``perfbench/layers.py``); only that run imports their modules.
    """
    if name not in ("solve_ivp", "root"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate, optimize

    return getattr(integrate if name == "solve_ivp" else optimize, name)


@dataclass(frozen=True)
class ShootState:
    """Matched amplitudes and the residual mismatch at the matching point."""

    c0: float
    c1: float
    mismatch: tuple[float, float]


@dataclass
class MatchResult:
    """Outcome of the two-sided shooting match."""

    verdict: str  # "solution", "no_root", or "failed"
    state: Optional[ShootState]
    profile: Optional[Profile]
    c0_scan: np.ndarray  # the amplitudes scanned, for c0 and c1 alike
    dalpha_map: np.ndarray
    ddalpha_map: np.ndarray
    message: str = ""
    max_scaled_residual: float = math.nan


def _series_seed(c: float, params: HopfParams, t0: float) -> tuple[float, float]:
    """(value, slope) of the three-term endpoint expansion at t0.

    Near the regular singular point the branch attaching to 0 expands as
    ``c t^r + beta t^(r+2) + gamma t^(3r)`` where, with
    P(x) = x^2 + (p-1)x - lambda (so P(r) = 0),

        beta  = c * (r*(p/3 + q) + lam/3 + mu) / P(r + 2)
        gamma = -(2/3) * lam * c^3 / P(3 r)

    Both denominators are positive (their arguments exceed the positive
    indicial root), so the expansion never degenerates.  The pi/2 end uses the
    same formulas on the mirrored problem (see :func:`_shoot`).
    """
    p, q, lam, mu, r = params.p, params.q, params.lam, params.mu, params.r0

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


def _shoot(
    params: HopfParams,
    c: float,
    t_offset: float,
    t_end: float,
    rtol: float,
    atol: float,
    backward: bool = False,
) -> tuple[np.ndarray, np.ndarray, Callable]:
    """Shoot the branch of amplitude c from t_offset off its end to t_end.

    Returns the step times in increasing t, the last step's (alpha, alpha') at
    t_end, and the dense state ``t -> (alpha, alpha')``, built on its first call and kept.
    A backward shot integrates the mirrored problem
    beta(tau) = pi - alpha(pi/2 - tau) with (p, q, lam, mu) -> (q, p, mu, lam),
    an exact symmetry of the equation, forward from its seed ``c tau**r1``.
    That keeps the seed's deviation from pi to full relative precision;
    seeding ``pi - c tau**r1`` directly rounds c to eps*pi/(c tau**r1), about
    1e-7 relative for c = 0.5 at r1 = 2, and the matched amplitudes inherit
    that noise.
    """
    if backward:
        params, t_end = params.mirrored(), HALF_PI - t_end
    steps, t_exit = dop853.solve(params, t_offset, _series_seed(c, params, t_offset), t_end,
                                 rtol, atol, (ALPHA_LOW, ALPHA_HIGH))
    if t_exit is not None:
        t_exit = HALF_PI - t_exit if backward else t_exit
        raise BlowUpError(f"trajectory left [{ALPHA_LOW:.4f}, {ALPHA_HIGH:.4f}] at t={t_exit:.6g}",
                          exit_time=t_exit)
    dense = functools.cache(lambda: dop853.dense_state(params, steps))
    if not backward:
        return steps[0], steps[1:3, -1], lambda t: dense()(t)

    def mirrored(t):
        beta, dbeta = dense()(HALF_PI - np.asarray(t))
        return np.array([math.pi - beta, dbeta])

    return HALF_PI - steps[0, ::-1], np.array([math.pi - steps[1, -1], steps[2, -1]]), mirrored


def integrate_from_zero(c0: float, params: HopfParams, t_end: float) -> Profile:
    """The forward shot of amplitude c0 to t_end, as alpha at its step times.

    It is the shot :func:`match_shooting` makes: from the three-term series
    seed (leading behavior ``c0 * t**r0``) at DEFAULT_T_OFFSET, at the
    contract tolerances.  Raises :class:`BlowUpError` (with the exit time) if
    the trajectory leaves the band [-pi, 2*pi].
    """
    if c0 <= 0:
        raise ValueError("amplitude c0 must be positive")
    if not (DEFAULT_T_OFFSET < t_end < HALF_PI):
        raise ValueError(f"need {DEFAULT_T_OFFSET:g} < t_end < pi/2, got t_end={t_end}")
    times, _, state = _shoot(params, c0, DEFAULT_T_OFFSET, t_end, DEFAULT_RTOL, DEFAULT_ATOL)
    grid = Grid(times if times.size >= 3 else np.linspace(DEFAULT_T_OFFSET, t_end, 5))
    return Profile(grid, state(grid.nodes)[0])


def _scaled_residual(profile: Profile, params: HopfParams) -> float:
    """Max of |equation residual| / (1 + Q) using 5-point interior stencils.

    The merged trajectory comes from a high-order integrator, so the limiting
    factor here is the differentiation stencil; fourth-order weights keep the
    check's own truncation well below the certification level.  Stencils
    straddling the seam at ``T_MATCH`` are skipped: the branches join there
    only to the mismatch tolerance, which the matcher certifies separately.
    """
    t = profile.t
    drift, q = coefficients(t, params)
    res = stencil_residual(t, profile.values, drift, q, width=5)
    res /= 1.0 + q
    res[2:-2][(t[:-4] <= T_MATCH) & (T_MATCH <= t[4:])] = np.nan
    return float(np.nanmax(np.abs(res)))


def _crossings(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int, float, float]]:
    """Crossings of the polylines ``a`` (m, 2) and ``b`` (n, 2).

    Returns ``(i, j, s, u)`` for each pair where segment ``a[i] a[i+1]`` at
    fraction s meets segment ``b[j] b[j+1]`` at fraction u (both in [0, 1]).
    A segment with a NaN vertex (a band exit) and a parallel pair never cross.
    """
    da = np.diff(a, axis=0)[:, None, :]
    db = np.diff(b, axis=0)[None, :, :]
    r = b[None, :-1, :] - a[:-1, None, :]

    def cross(x, y):
        return x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]

    den = cross(da, db)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = cross(r, db) / den
        u = cross(r, da) / den
    hit = (den != 0.0) & (s >= 0.0) & (s <= 1.0) & (u >= 0.0) & (u <= 1.0)
    return [
        (int(i), int(j), float(s[i, j]), float(u[i, j])) for i, j in zip(*np.nonzero(hit))
    ]


def match_shooting(params: HopfParams) -> MatchResult:
    """Two-parameter match of forward and backward shots at ``T_MATCH``.

    Returns a :class:`MatchResult` whose verdict is ``"solution"`` (state,
    merged profile, and residual check populated), ``"no_root"`` (the sampled
    end-state curves do not cross and the diagonal holds no bracket), or
    ``"failed"`` (no scan shot pair stayed finite, or crossings or brackets
    exist but no root was accepted).

    The boundary problem can carry several genuine trajectory pairs, and in
    degenerate cases a whole curve of them, so every accepted root is
    collected; the returned one is the increasing, in-band profile with the
    most balanced amplitudes (smallest ``|log(c0/c1)|``, ties to smaller c0).
    The balanced diagonal c0 = c1 is searched first (Brent, from the scan's
    values at each bracket's ends): a root there pins the symmetric member of
    a degenerate family, and when admissible no other root can beat it.  Both
    searches hand their last pair to ``add_root``, the one acceptance rule.
    """
    # each shot is made once: its end state at T_MATCH, and its dense state
    # for the admissibility probe and the profile (None after a band exit)
    shots: dict[tuple[bool, float], tuple[np.ndarray, Optional[Callable]]] = {}

    def end_state(backward: bool, c: float) -> np.ndarray:
        """(alpha, alpha') at T_MATCH, NaN when the shot leaves the band."""
        key = (backward, c)
        if key not in shots:
            try:
                shots[key] = _shoot(params, c, DEFAULT_T_OFFSET, T_MATCH, DEFAULT_RTOL,
                                    DEFAULT_ATOL, backward)[1:]
            except (BlowUpError, RuntimeError):
                shots[key] = np.full(2, np.nan), None
        return shots[key][0]

    def merged_values(root: ShootState, nodes: np.ndarray) -> np.ndarray:
        # a root's two shots stayed in band, so both dense states are cached
        fwd, bwd, t = shots[(False, root.c0)][1], shots[(True, root.c1)][1], T_MATCH
        return np.where(nodes <= t, fwd(np.minimum(nodes, t))[0], bwd(np.maximum(nodes, t))[0])

    # the two end-state curves, sampled once; the map is their difference
    cs = np.geomspace(C_RANGE[0], C_RANGE[1], SCAN_POINTS)
    zs = np.log(cs)
    fwd = np.array([end_state(False, float(c)) for c in cs])
    bwd = np.array([end_state(True, float(c)) for c in cs])
    da = bwd[None, :, 0] - fwd[:, None, 0]
    dd = bwd[None, :, 1] - fwd[:, None, 1]

    roots: list[ShootState] = []
    admissible: list[ShootState] = []
    ends: Counter = Counter()

    def add_root(c0: float, c1: float, failure: str) -> None:
        """Accept (c0, c1) if its mismatch meets the tolerance, else tally ``failure``."""
        m = end_state(True, c1) - end_state(False, c0)
        if not float(np.max(np.abs(m))) <= MISMATCH_TOL:
            ends[failure] += 1
            return
        if any(abs(math.log(c0 / r.c0)) + abs(math.log(c1 / r.c1)) <= 1e-6 for r in roots):
            return
        state = ShootState(c0=c0, c1=c1, mismatch=(float(m[0]), float(m[1])))
        roots.append(state)
        probe = merged_values(
            state, graded_grid(DEFAULT_T_OFFSET, HALF_PI - DEFAULT_T_OFFSET, 401)
        )
        monotone = bool(np.all(np.diff(probe) >= -1e-8))
        in_band = bool(np.all((probe > -0.1) & (probe < math.pi + 0.1)))
        if monotone and in_band:
            admissible.append(state)

    # balanced diagonal: the value mismatch flips sign, and the slope
    # mismatch flips too or vanishes to tolerance at both ends (for an exactly
    # symmetric family it is pure rounding noise there)
    diag = bwd - fwd
    brackets = [
        k for k in range(SCAN_POINTS - 1)
        if diag[k, 0] * diag[k + 1, 0] < 0.0
        and (
            diag[k, 1] * diag[k + 1, 1] < 0.0
            or max(abs(diag[k, 1]), abs(diag[k + 1, 1])) <= MISMATCH_TOL
        )
    ]

    # Brent's first two calls are a bracket's ends: there it reads the scan's shots
    scanned = dict(zip(zs.tolist(), cs.tolist()))

    def diag_mismatch(z: float) -> float:
        c = scanned.get(z, math.exp(z))
        return float(end_state(True, c)[0] - end_state(False, c)[0])

    for k in brackets:
        try:
            z, converged = brentq(diag_mismatch, zs[k], zs[k + 1])
        except ValueError:  # the ends are finite and of opposite sign: a NaN inside
            ends["a diagonal shot left the band"] += 1
            continue
        if not converged:
            ends["a diagonal Brent search did not converge"] += 1
            continue
        add_root(math.exp(z), math.exp(z), "a diagonal root was not accepted")

    # forward-difference step in log c: balances truncation against the
    # integrator's relative error
    h = math.sqrt(DEFAULT_RTOL)
    # a polish that steps out of the scanned box is stopped: ever-steeper
    # near-jump trajectory pairs drive the mismatch below any tolerance
    # without an actual zero crossing (widen C_RANGE to chase them)
    z_lo, z_hi = math.log(0.99 * C_RANGE[0]), math.log(1.01 * C_RANGE[1])

    def polish(z0: float, z1: float) -> tuple[float, float, str]:
        """Newton in (log c0, log c1) from a crossing: its last pair, and why it stopped."""
        for _ in range(POLISH_MAX_ITER):
            c0, c1 = math.exp(z0), math.exp(z1)
            f, b = end_state(False, c0), end_state(True, c1)
            m = b - f
            if not np.all(np.isfinite(m)):
                return c0, c1, "a shot left the band"
            if float(np.max(np.abs(m))) <= MISMATCH_TOL:
                return c0, c1, ""
            jac = np.column_stack((
                (f - end_state(False, math.exp(z0 + h))) / h,
                (end_state(True, math.exp(z1 + h)) - b) / h,
            ))
            if not np.all(np.isfinite(jac)):
                return c0, c1, "a shot left the band"
            try:
                step = np.linalg.solve(jac, -m)
            except np.linalg.LinAlgError:
                return c0, c1, "the Jacobian was singular"
            z0, z1 = z0 + float(step[0]), z1 + float(step[1])
            if not (z_lo <= z0 <= z_hi and z_lo <= z1 <= z_hi):
                return c0, c1, "a step left the scanned box"
        return c0, c1, f"no convergence in {POLISH_MAX_ITER} Newton steps"

    crossings = _crossings(fwd, bwd)
    if not admissible:
        for i, j, s, u in crossings:
            add_root(*polish(zs[i] + s * (zs[i + 1] - zs[i]), zs[j] + u * (zs[j + 1] - zs[j])))

    scan = dict(c0_scan=cs, dalpha_map=da, ddalpha_map=dd)
    pool = admissible or roots
    if not np.isfinite(da).any():
        return MatchResult("failed", None, None, **scan, message="no pair of scan shots "
                           "stayed finite: every entry of the mismatch map is NaN")
    if not pool and (crossings or brackets):
        return MatchResult("failed", None, None, **scan, message=(
            f"{len(crossings)} curve crossings and {len(brackets)} diagonal "
            "brackets, but no root was accepted: "
            + "; ".join(f"{n}x {reason}" for reason, n in ends.items())
        ))
    if not pool:
        return MatchResult("no_root", None, None, **scan, message=(
            "the forward and backward end-state curves do not cross in the "
            "scanned box and the diagonal c0 = c1 holds no bracket"
        ))
    best = min(pool, key=lambda r: (abs(math.log(r.c0 / r.c1)), r.c0))

    # merged profile on a graded grid, forward branch up to T_MATCH
    nodes = graded_grid(DEFAULT_T_OFFSET, HALF_PI - DEFAULT_T_OFFSET, PROFILE_N)
    profile = Profile(Grid(nodes), merged_values(best, nodes))
    return MatchResult("solution", best, profile, **scan, message="matched",
                       max_scaled_residual=_scaled_residual(profile, params))


def write_mismatch_csv(result: MatchResult, path) -> None:
    """Diagnostic dump of the coarse mismatch map: ``c0,c1,dalpha,ddalpha``, c0-major."""
    c = result.c0_scan
    write_csv(path, "c0,c1,dalpha,ddalpha", np.repeat(c, c.size), np.tile(c, c.size),
              result.dalpha_map.ravel(), result.ddalpha_map.ravel())
