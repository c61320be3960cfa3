"""Closed-form oracle suite: residuals and identities with hard tolerances.

Every row checks an explicit formula against an independent numerical route:
finite-difference residuals of the exact profiles under their operators,
a high-order numerical derivative against the slope identity, and the
double-exponential (tanh-sinh) rule of Takahasi & Mori against the
beta-function value of the blow-up constant; its tail runs after the
substitution v = w^(a/(a-2)), which makes the integrand bounded.

The limit and comparison residuals use 5-point stencils (see ``ode``) on
grids uniform in log t and in log(tan t), so the stencils see locally
log-uniform spacing at every scale of the solution.  Each stacks its profiles
on its grid, so the suite builds the stencil weights twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import (
    blowup_constant,
    blowup_constant_exact,
    identity_solution,
    phi_limit,
    psi_comparison,
    psi_derivative_identity,
)
from .core import HALF_PI, Grid, HopfParams, Profile
from .core import fd_weights  # noqa: F401  (bound here for perfbench's traced run)
from .ode import residual, stencil_residual

__all__ = ["OracleRow", "run_oracle_suite"]


@dataclass
class OracleRow:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.tol)


def _phi_residual_max() -> float:
    """Max limit-equation residual of three limit profiles on 2000 log-spaced t in [0.02, 120]."""
    t = np.geomspace(0.02, 120.0, 2000)
    cases = ((1.0, 1.0), (1.0, 3.0), (2.25, 1.0))  # (lambda, s)
    y = np.stack([phi_limit(t, s, lam) for lam, s in cases])
    lam = np.array([[lam] for lam, _ in cases])
    res = stencil_residual(t, y, 1.0 / t, lam / t**2, width=5)
    return float(np.nanmax(np.abs(res)))


def _psi_residual_max() -> float:
    """Max comparison-equation residual of five comparison profiles.

    The grid has 2000 nodes uniform in x = log(tan t) over [-4, 2.5].  The
    upper end stops where the spacing compresses enough that value rounding on
    O(pi) angles would rise above the tolerance, which loses no coverage
    because the family obeys the exact mirror identity
    pi - psi_s(pi/2 - t) = psi_{pi/2 - s}(t).
    """
    t = np.arctan(np.exp(np.linspace(-4.0, 2.5, 2000)))
    cases = ((1.0, 0.05), (1.0, math.pi / 4.0), (1.0, 1.3), (2.25, math.pi / 4.0), (2.25, 0.05))
    y = np.stack([psi_comparison(t, s, lam) for lam, s in cases])
    lam = np.array([[lam] for lam, _ in cases])
    drift = np.cos(t) / np.sin(t) - np.tan(t)
    potential = lam / (np.sin(t) * np.cos(t)) ** 2
    res = stencil_residual(t, y, drift, potential, width=5)
    return float(np.nanmax(np.abs(res)))


def _slope_identity_max() -> float:
    worst = 0.0
    ts = np.linspace(0.1, HALF_PI - 0.1, 41)
    for lam in (1.0, 2.25):
        for s in (math.pi / 6.0, math.pi / 4.0, 1.0):
            lhs, rhs = psi_derivative_identity(ts, s, lam)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _identity_2t_residual() -> float:
    params = HopfParams(p=1, q=1, lam=1.0, mu=1.0)
    nodes = np.linspace(1e-3, HALF_PI - 1e-3, 2000)
    prof = Profile(Grid(nodes), identity_solution(nodes))
    return float(np.nanmax(np.abs(residual(prof, params))))


def _phi_scaling_max() -> float:
    t = np.geomspace(0.01, 100.0, 500)
    worst = 0.0
    for lam in (1.0, 2.25, 4.0):
        for s in (0.5, 1.0, 3.0):
            worst = max(
                worst,
                float(np.max(np.abs(phi_limit(t, s, lam) - phi_limit(t / s, 1.0, lam)))),
            )
    return worst


def _psi_sin2_identity_max() -> float:
    """sin^2(psi_{ds}) against 4 e^a u^a / (e^a + u^a)^2, e = tan(ds), u = tan t."""
    t = np.linspace(0.05, HALF_PI - 0.05, 400)
    worst = 0.0
    for lam in (1.0, 2.25):
        a = 2.0 * math.sqrt(lam)
        for ds in (0.02, 0.3, 1.0):
            eps = math.tan(ds)
            u = np.tan(t)
            closed = 4.0 * eps**a * u**a / (eps**a + u**a) ** 2
            direct = np.sin(psi_comparison(t, ds, lam)) ** 2
            worst = max(worst, float(np.max(np.abs(direct - closed))))
    return worst


def run_oracle_suite() -> list[OracleRow]:
    rows = [
        OracleRow("limit_profile_residual", _phi_residual_max(), 1e-6),
        OracleRow("comparison_profile_residual", _psi_residual_max(), 1e-6),
        OracleRow("slope_identity", _slope_identity_max(), 1e-8),
        OracleRow(
            "blowup_constant_lam4",
            abs(blowup_constant(4.0) - blowup_constant_exact(4.0)),
            1e-8,
        ),
        OracleRow(
            "blowup_constant_lam2p25",
            abs(blowup_constant(2.25) - blowup_constant_exact(2.25)),
            1e-8,
        ),
        OracleRow("straight_profile_residual", _identity_2t_residual(), 1e-8),
        OracleRow("limit_profile_scaling", _phi_scaling_max(), 1e-12),
        OracleRow("comparison_sin2_identity", _psi_sin2_identity_max(), 1e-12),
    ]
    return rows
