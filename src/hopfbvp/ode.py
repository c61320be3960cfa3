"""Coefficient functions and the finite-difference residual of the equations.

Every equation checked in this package has the form

    y'' + a(t) y' - b(t) sin(y) cos(y) = 0

and :func:`stencil_residual` evaluates its left-hand side for given drift a
and potential b on any strictly increasing grid:

* original:  a = p*cot t - q*tan t,  b = Q = lambda/sin^2 t + mu/cos^2 t
  (:func:`residual`);
* rescaled:  gamma(t) = alpha(s t) solves it with a = s*a(s t), b = s^2 Q(s t);
* limit:     a = 1/t, b = lambda/t^2 on (0, inf), solved by ``phi_limit``;
* comparison: a = cot t - tan t, b = lambda/(sin t cos t)^2 on (0, pi/2),
  solved by ``psi_comparison``.  In x = log(tan t) it is the autonomous
  pendulum psi_xx = lambda sin(psi) cos(psi), whose heteroclinic orbits are
  the closed-form family.  (With a bare cot t drift the family's slope
  identity psi' = sqrt(lambda) sin(psi)/(sin t cos t) would leave a
  nonvanishing defect sqrt(lambda) sin(psi)/cos^2 t.)

The 3-point stencil (closed-form weights, exact for quadratics) serves the
glued profiles; its first derivative is :func:`core.nodal_first_derivative`,
which also gives the ``dalpha`` column of ``profile.csv``.  The 5-point
stencil (Fornberg weights, fourth order) serves the shooting and closed-form
checks, whose wide logarithmic grids would squeeze a 3-point stencil between
truncation and rounding near the ends.  A stack of profiles on one grid
shares one build of the weights.  Every CSV is written by
:func:`core.write_csv`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    HALF_PI,
    DomainError,
    Grid,
    HopfParams,
    Profile,
    _maybe_scalar,
    fd3_second_weights,
    fd_weights,
    nodal_first_derivative,
    write_csv,
)

__all__ = [
    "H_FLOOR",
    "coeff_Q",
    "weight_f",
    "drift_coeff",
    "stencil_residual",
    "residual",
    "write_profile_csv",
    "read_profile_csv",
]

# below this adjacent spacing the 3-point stencil amplifies value rounding
# (eps/h^2) past any meaningful residual level
H_FLOOR = 1e-5


def _trig_squares(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sin t cos t, sin^2 t, cos^2 t) from one ``tan`` pass, T = tan t.

    cos^2 = 1/(1+T^2), sin^2 = T^2 cos^2 and sin t cos t = T cos^2.  numpy vectorises
    float64 tan on CPUs with AVX-512 and runs sin and cos through scalar libm, so this
    is the cheap trigonometric pass.  Exact at t = 0; at t = fl(pi/2), T = 1.6e16 and
    every value is finite.
    """
    sc = np.tan(t)
    sin2 = sc * sc
    cos2 = 1.0 / (sin2 + 1.0)
    sin2 *= cos2
    sc *= cos2
    return sc, sin2, cos2


def _sin_cos_power(squares: tuple, a: int, b: int) -> np.ndarray:
    """sin^a t cos^b t on [0, pi/2] from :func:`_trig_squares`, for integers a >= 0, b, a + b > 0.

    (sin^2)^(a//2) (cos^2)^(b//2), times sin t cos t when a and b are odd and times
    sqrt(sin^2) or sqrt(cos^2) when one is: a ``sqrt`` only for an odd a + b.  Each
    factor but a negative power of cos^2 is at most 1, so no power of tan t can
    overflow.  A single factor is returned as it is, so it may be one of ``squares``.
    """
    sc, sin2, cos2 = squares
    factors = [x if k == 1 else x**k for x, k in ((sin2, a // 2), (cos2, b // 2)) if k]
    if a % 2 and b % 2:
        factors.append(sc)
    elif a % 2 or b % 2:
        factors.append(np.sqrt(sin2 if a % 2 else cos2))
    return functools.reduce(np.multiply, factors)


def coeff_Q(t, params: HopfParams):
    """Potential coefficient ``Q(t) = lambda/sin^2(t) + mu/cos^2(t)``.

    Defined (and positive) on the open interval (0, pi/2) only.  sin^2 and
    cos^2 come from one ``tan`` pass (:func:`_trig_squares`), the values that
    ``variational.DiscreteEnergy`` uses.
    """
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= 0.0) or np.any(ta >= HALF_PI):
        raise DomainError("coeff_Q requires t in the open interval (0, pi/2)")
    _, sin2, cos2 = _trig_squares(ta)
    return _maybe_scalar(params.lam / sin2 + params.mu / cos2, t)


def weight_f(t, params: HopfParams):
    """Reduction weight ``f(t) = sin^p(t) * cos^q(t)``.

    Total on [0, pi/2]: zero at both endpoints, positive inside.  Formed from
    one ``tan`` pass (:func:`_sin_cos_power`), the values that
    ``variational.DiscreteEnergy`` uses.
    """
    ta = np.asarray(t, dtype=float)
    return _maybe_scalar(_sin_cos_power(_trig_squares(ta), params.p, params.q), t)


def drift_coeff(t, params: HopfParams):
    """First-order coefficient ``p*cot(t) - q*tan(t)``."""
    ta = np.asarray(t, dtype=float)
    if np.any(ta <= 0.0) or np.any(ta >= HALF_PI):
        raise DomainError("drift_coeff requires t in (0, pi/2)")
    out = params.p * np.cos(ta) / np.sin(ta) - params.q * np.tan(ta)
    return _maybe_scalar(out, t)


def stencil_residual(t, y, drift, potential, width: int = 3) -> np.ndarray:
    """``y'' + drift*y' - potential*sin(y)*cos(y)`` at every node.

    ``y`` holds one profile on the strictly increasing grid t, or a stack of
    them along leading axes; ``drift`` and ``potential`` hold the coefficients
    at the nodes (or are scalars) and broadcast to ``y``.  Derivatives come
    from centred stencils of odd ``width``; the ``width // 2`` nodes at each
    end, which have no full stencil, get NaN.  Width 3 uses the closed-form
    weights, wider stencils Fornberg's, built in one call for all windows and
    shared by the whole stack: each row has the bits of its own call.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if width < 3 or width % 2 == 0:
        raise ValueError(f"stencil width must be odd and >= 3, got {width}")
    if t.size < width:
        raise ValueError(f"a {width}-point residual needs at least {width} nodes")
    h = width // 2
    mid = slice(h, t.size - h)
    if width == 3:
        d1 = nodal_first_derivative(t, y)[..., mid]
        v0, v1, v2 = fd3_second_weights(t[:-2], t[1:-1], t[2:])
        d2 = v0 * y[..., :-2] + v1 * y[..., 1:-1] + v2 * y[..., 2:]
    else:
        w = fd_weights(sliding_window_view(t, width), t[mid], 2)[:, 1:]
        d = (w * sliding_window_view(y, width, axis=-1)[..., None, :]).sum(axis=-1)
        d1, d2 = d[..., 0], d[..., 1]
    a = np.broadcast_to(drift, y.shape)[..., mid]
    b = np.broadcast_to(potential, y.shape)[..., mid]
    res = np.full(y.shape, np.nan)
    res[..., mid] = d2 + a * d1 - b * np.sin(y[..., mid]) * np.cos(y[..., mid])
    return res


def residual(profile: Profile, params: HopfParams) -> np.ndarray:
    """Pointwise 3-point residual of the original equation.

    NaN at the two boundary nodes (no full stencil), at a junction node whose
    one-sided derivatives differ (the curve has a corner there, so the
    two-sided stencil does not apply), and where an adjacent spacing is below
    :data:`H_FLOOR`.
    """
    t = profile.t
    res = stencil_residual(
        t, profile.values, drift_coeff(t, params), coeff_Q(t, params)
    )
    h = np.diff(t)
    res[1:-1][np.minimum(h[:-1], h[1:]) < H_FLOOR] = np.nan
    j = profile.grid.junction_index
    if j is not None and profile.has_kink():
        res[j] = np.nan
    return res


# --- profile serialization ----------------------------------------------------


def write_profile_csv(profile: Profile, params: HopfParams, path) -> None:
    """Write ``t,alpha,dalpha,residual`` rows through :func:`core.write_csv`.

    At a junction node with distinct one-sided slopes, dalpha records their
    mean.  The residual column is :func:`residual`, NaN wherever its stencil
    does not apply or is dominated by rounding.
    """
    d = nodal_first_derivative(profile.t, profile.values)
    j = profile.grid.junction_index
    if j is not None and profile.d_left is not None and profile.d_right is not None:
        d[j] = 0.5 * (profile.d_left + profile.d_right)
    write_csv(path, "t,alpha,dalpha,residual",
              profile.t, profile.values, d, residual(profile, params))


def read_profile_csv(path) -> Profile:
    """Read a profile written by :func:`write_profile_csv` (t, alpha columns)."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1))
    except ValueError as exc:  # fewer than two columns, or a field that is not a number
        raise ValueError(f"{path} is not a profile CSV: {exc}") from None
    return Profile(Grid(data[:, 0]), data[:, 1])
