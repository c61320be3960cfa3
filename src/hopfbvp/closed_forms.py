"""Exact solutions and constants used as oracles throughout the package.

* ``phi_limit``      -- the one-parameter family solving the small-t limit
                        equation on (0, inf) with data 0 at 0 and pi at inf.
* ``psi_comparison`` -- the family solving the comparison equation on
                        (0, pi/2) with data 0 and pi.
* ``theta_threshold``-- the angle above which the comparison family is a
                        strict supersolution of the full equation.
* ``blowup_constant``-- A(lambda) = integral_0^inf 4 t^(a+1) / (1+t^a)^2 dt,
                        a = 2*sqrt(lambda); finite iff a > 2.
* ``identity_solution`` -- alpha(t) = 2t, the exact solution for
                        p = q = 1, lambda = mu = 1.
"""

from __future__ import annotations

import math
import warnings
from functools import cache

import numpy as np

from .core import (
    HALF_PI,
    DomainError,
    HopfParams,
    OutsideProvenRegimeWarning,
    _maybe_scalar,
)

__all__ = [
    "phi_limit",
    "psi_comparison",
    "psi_derivative_identity",
    "theta_threshold",
    "blowup_constant",
    "blowup_constant_exact",
    "identity_solution",
]


def phi_limit(t, s: float, lam: float):
    """Limit-equation profile ``arccos((s^a - t^a)/(s^a + t^a))``, a = 2*sqrt(lam).

    Evaluated in the overflow-safe equivalent form ``2*arctan((t/s)^(a/2))``;
    the two expressions agree identically since
    cos(2*arctan(u)) = (1 - u^2)/(1 + u^2).
    """
    if not (s > 0) or not (lam > 0):
        raise DomainError("phi_limit requires s > 0 and lambda > 0")
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= 0.0):
        raise DomainError("phi_limit requires t > 0")
    out = 2.0 * np.arctan((ta / s) ** math.sqrt(lam))
    return _maybe_scalar(out, t)


def psi_comparison(t, s: float, lam: float):
    """Comparison profile ``2*arctan(cot(s)^(a/2) * tan(t)^(a/2))``, a = 2*sqrt(lam).

    The same exponent a/2 applies to both factors; this form is pinned down by
    the derivative identity psi' = sqrt(lam) * sin(psi) / (sin t cos t), which
    only the symmetric-exponent family satisfies.
    """
    if not (0.0 < s < HALF_PI):
        raise DomainError("psi_comparison requires s in (0, pi/2)")
    if not (lam > 0):
        raise DomainError("psi_comparison requires lambda > 0")
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= 0.0) or np.any(ta >= HALF_PI):
        raise DomainError("psi_comparison requires t in (0, pi/2)")
    half_a = math.sqrt(lam)
    # log/exp form keeps tan(t)**(a/2) from overflowing before the arctan
    with np.errstate(over="ignore"):
        u = np.exp(half_a * (np.log(np.tan(ta)) - math.log(math.tan(s))))
    out = 2.0 * np.arctan(u)
    return _maybe_scalar(out, t)


def psi_derivative_identity(t, s: float, lam: float, step: float = 1e-3):
    """(lhs, rhs) of the slope identity psi' = sqrt(lam) sin(psi)/(sin t cos t).

    lhs is a 5-point fourth-order numerical derivative of the comparison
    profile at t; rhs is the analytic right-hand side.  Their difference is a
    discretization-error diagnostic, vanishing as step -> 0.  Broadcasts over
    an array t, each point with its own step kept clear of 0 and pi/2.
    """
    ta = np.asarray(t, dtype=float)
    if not np.all((ta > 0.0) & (ta < HALF_PI)):
        raise DomainError("psi_derivative_identity requires t in (0, pi/2)")
    h = np.minimum(step, 0.25 * np.minimum(ta, HALF_PI - ta))
    offsets = h[..., None] * np.array([-2.0, -1.0, 1.0, 2.0])
    pts = psi_comparison(ta[..., None] + offsets, s, lam)
    lhs = (pts[..., 0] - 8.0 * pts[..., 1] + 8.0 * pts[..., 2] - pts[..., 3]) / (12.0 * h)
    psi = psi_comparison(ta, s, lam)
    rhs = math.sqrt(lam) * np.sin(psi) / (np.sin(ta) * np.cos(ta))
    return _maybe_scalar(lhs, t), _maybe_scalar(rhs, t)


def theta_threshold(params: HopfParams) -> float:
    """Threshold angle ``arccos(-sqrt(lambda)*(q-1)/(mu-lambda))`` in [pi/2, pi].

    Above theta the comparison family's flux defect

        (f psi')' - f Q sin(psi) cos(psi)
            = sin(t) cos(t)^(q-2) * ((lam - mu) cos(psi) - sqrt(lam)(q-1)) * sin(psi)

    is strictly positive; the sqrt(lam) comes from differentiating
    f*psi' = sqrt(lam) cos(t)^(q-1) sin(psi) (slope identity), so the
    bracket is positive exactly when -cos(psi) > sqrt(lam)(q-1)/(mu-lam).
    Requires mu > lambda and sqrt(lambda)*(q-1) <= mu - lambda (guaranteed
    whenever mu >= lambda*q and lambda >= 1).
    """
    if params.mu <= params.lam:
        raise DomainError("theta_threshold requires mu > lambda")
    ratio = math.sqrt(params.lam) * (params.q - 1) / (params.mu - params.lam)
    if ratio > 1.0:
        raise DomainError(
            f"theta_threshold undefined: sqrt(lambda)*(q-1)/(mu-lambda) = {ratio} > 1"
        )
    return math.acos(-ratio)


@cache
def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the double-exponential rule on [0, 1] (Takahasi & Mori 1974).

    t = (1 + tanh(pi/2 sinh k))/2 at k = j/32, |k| <= 3.5.  For an integrand
    bounded on [0, 1] and analytic inside, the error falls like exp(-c/h):
    over lambda in [1.0001, 100], halving h or running k to 4.5 moves no sum
    of :func:`blowup_constant` by more than 4.4e-16 relative.
    """
    k = np.arange(-112, 113) / 32.0
    u = 0.5 * math.pi * np.sinh(k)
    t = 1.0 / (1.0 + np.exp(-2.0 * u))
    w = (math.pi / 128.0) * np.cosh(k) / np.cosh(u) ** 2
    return t, w


def blowup_constant(lam: float) -> float:
    """A(lambda) by a double-exponential rule; ``inf`` when the integral diverges.

    The integrand 4 t^(a+1)/(1+t^a)^2 decays like 4 t^(1-a), so the integral
    converges iff a = 2*sqrt(lambda) > 2, i.e. lambda > 1.  The head t < 1 goes
    to :func:`_tanh_sinh_rule` as it stands.  The substitutions u = t^a,
    v = 1/u map the tail t > 1 to (4/a) * integral_0^1 v^(-2/a) / (1+v)^2 dv,
    and v = w^m with m = a/(a-2) absorbs that endpoint singularity: the
    tail is (4/a) * integral_0^1 m / (1+w^m)^2 dw, bounded on [0, 1].
    """
    if lam < 1.0:
        warnings.warn(
            f"lambda = {lam} < 1 is outside the proven regime",
            OutsideProvenRegimeWarning,
            stacklevel=2,
        )
    a = 2.0 * math.sqrt(lam)
    if a <= 2.0:
        return math.inf
    t, w = _tanh_sinh_rule()
    m = a / (a - 2.0)
    head = float(np.dot(w, 4.0 * t ** (a + 1.0) / (1.0 + t**a) ** 2))
    tail = float(np.dot(w, (4.0 / a) * m / (1.0 + t**m) ** 2))
    return head + tail


def blowup_constant_exact(lam: float) -> float:
    """Closed form of A(lambda): (4/a)*B(1+2/a, 1-2/a) = 8*pi/(a^2 sin(2*pi/a)).

    Independent of the quadrature route; used as its cross-check.
    """
    a = 2.0 * math.sqrt(lam)
    if a <= 2.0:
        return math.inf
    return 8.0 * math.pi / (a**2 * math.sin(2.0 * math.pi / a))


def identity_solution(t):
    """The straight profile alpha(t) = 2t (exact for p = q = 1, lambda = mu = 1)."""
    ta = np.asarray(t, dtype=float)
    return _maybe_scalar(2.0 * ta, t)
