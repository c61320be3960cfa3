"""DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-6) for one shot, on floats.

:func:`solve` uses scipy's tableau, initial step, step control and error norm, so it
takes solve_ivp's accepted steps without its per-step event and interpolant work;
:func:`dense_state` rebuilds the 7th-order dense output from the steps.  Each try of a step is
one call of straight-line code that :func:`_source` writes from the tableau and the first shot
compiles.  Its alpha'' takes Q and the drift from one ``tan`` of each distinct stage time and
sin(alpha) cos(alpha) from one ``tan`` of each stage angle: 23 ``tan`` calls and no ``sin``,
``cos`` or power, 7.3 us per try on a 2-vCPU Xeon against 9.2 us for the sin/cos form.  The
dense output replays the stages with the same alpha'', compiled with ``np.tan`` for arrays.
The tableau is scipy's ``integrate._ivp.dop853_coefficients``, run by :func:`core.scipy_module`
and sliced as scipy's ``DOP853`` class slices it: that file imports only numpy, so no scipy
package is imported; if it moves, import raises ImportError.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .core import HopfParams, brentq, scipy_module

__all__ = ["solve", "dense_state"]

_tab = scipy_module("integrate._ivp.dop853_coefficients")
_N = _tab.N_STAGES
A, B, C, E3, E5, D = _tab.A[:_N, :_N], _tab.B, _tab.C[:_N], _tab.E3, _tab.E5, _tab.D
A_EXTRA, C_EXTRA = _tab.A[_N + 1:], _tab.C[_N + 1:]

# (s, c, a[:s]) of stages 1-11 and 13-15 for the dense replay
_REPLAY = [(s, c, a[:s]) for s, c, a in zip(
    (*range(1, 12), 13, 14, 15), (*C[1:], *C_EXTRA), (*A[1:], *A_EXTRA))]
_XTOL, _SQRT2 = 4 * np.finfo(float).eps, math.sqrt(2.0)  # _XTOL: solve_ivp's event tolerance
# alpha'' = -drift(t) alpha' + Q(t) sin(alpha) cos(alpha) as source, from one tan of t and one
# of alpha: with T = tan t, Q = (lam/T^2 + mu)(1 + T^2) and drift = p/T - q T, set by _TIME at
# a stage time; with u = tan alpha, sin alpha cos alpha = u/(1 + u^2).  _RHS: {out} = alpha''
_TIME = "T = tan({t}); TT = T * T; Q, drift = (lam / TT + mu) * (1.0 + TT), p / T - q * T"
_RHS = "u = tan({a}); {out} = -drift * {da} + Q * (u / (1.0 + u * u))"


def _source() -> str:
    """``make(p, q, lam, mu, tan) -> (accel, attempt)`` as Python source, written from the tableau.

    ``tan`` is ``math.tan`` in :func:`solve` and ``np.tan`` for :func:`dense_state`'s arrays.
    ``attempt(t, a, da, dda, h)`` returns (alpha, alpha', alpha'') at t + h and the error sums
    e3, e5 of alpha and alpha'.  Stages 1-11 weigh by A, stage 12 (the step end) by B.  A sum
    is ``0.0 + w * k_j + ...`` over the row's nonzero weights in order: a loop's running sum
    from 0.0, written out, so with the loop's bits.  alpha'' takes one ``tan`` per stage angle
    and one per distinct stage time: stages 11 and 12 both sit at t + h and share Q and the
    drift, so a try makes 23 ``tan`` calls and no ``sin``, ``cos`` or power.
    """
    def total(row, k: str) -> str:
        return " + ".join(["0.0", *(f"{float(w)!r} * {k}{j}" for j, w in enumerate(row) if w)])

    src = ["def make(p, q, lam, mu, tan):", "  def accel(t, a, da):", "    " + _TIME.format(t="t"),
           "    " + _RHS.format(out="dda", a="a", da="da"), "    return dda",
           "  def attempt(t, a, k0_0, k1_0, h):"]
    last = None
    for s, (c, row) in enumerate(zip(np.append(C[1:], 1.0), np.vstack((A[1:], B))), start=1):
        src += [f"    x0 = {total(row, 'k0_')}", f"    x1 = {total(row, 'k1_')}",
                f"    k0_{s} = k0_0 + x1 * h", "    ys = a + x0 * h"]
        if c != last:
            src.append("    " + _TIME.format(t=f"t + {float(c)!r} * h"))
        src.append("    " + _RHS.format(out=f"k1_{s}", a="ys", da=f"k0_{s}"))
        last = c
    sums = ", ".join(total(e, k) for e in (E3, E5) for k in ("k0_", "k1_"))
    return "\n".join(src + [f"    return ys, k0_12, k1_12, {sums}", "  return accel, attempt"])


@functools.cache
def _compiled() -> Callable:
    """:func:`_source`'s ``make``, compiled on first use: an import never pays for it."""
    exec(compile(_source(), "<dop853 attempt>", "exec"), namespace := {})
    return namespace["make"]


def solve(params: HopfParams, t0: float, y0, t1: float, rtol: float, atol: float,
          band: tuple[float, float]) -> tuple[np.ndarray, Optional[float]]:
    """Accepted steps from t0 to t1 as rows (t, alpha, alpha', alpha''), and the exit time.

    The exit time is None, or the time alpha left the open ``band``: t0 for a seed outside
    it, else checked at each step end and located on the exit step's dense output as
    solve_ivp locates a terminal event.
    Raises RuntimeError when the step size falls below the spacing of t.
    """
    accel, attempt = _compiled()(params.p, params.q, params.lam, params.mu, math.tan)

    def rms(x: float, y: float) -> float:
        return math.sqrt(x * x + y * y) / _SQRT2

    t, (a, da) = t0, y0
    dda = accel(t, a, da)
    if not band[0] < a < band[1]:
        return np.array([(t, a, da, dda)]).T, t
    sa, sd = atol + abs(a) * rtol, atol + abs(da) * rtol
    d0, d1 = rms(a / sa, da / sd), rms(da / sa, dda / sd)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    y1 = da + h0 * dda
    d2 = rms((y1 - da) / sa, (accel(t + h0, a + h0 * da, y1) - dda) / sd) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_next = min(100.0 * h0, h1, t1 - t0)

    rows = [(t, a, da, dda)]
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h_next, min_step), False
        while True:
            if h < min_step:
                raise RuntimeError("integrator failed: step size below the spacing of t")
            t_new = min(t + h, t1)
            h = t_new - t
            a_new, da_new, dda_new, e30, e31, e50, e51 = attempt(t, a, da, dda, h)
            sa = atol + max(abs(a), abs(a_new)) * rtol
            sd = atol + max(abs(da), abs(da_new)) * rtol
            x3, y3, x5, y5 = e30 / sa, e31 / sd, e50 / sa, e51 / sd
            n3, n5 = x3 * x3 + y3 * y3, x5 * x5 + y5 * y5
            err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
                h_next = h * (min(1.0, factor) if rejected else factor)
                break
            h, rejected = h * max(0.2, 0.9 * err**-0.125), True
        t_old, t, a, da, dda = t, t_new, a_new, da_new, dda_new
        rows.append((t, a, da, dda))
        if not band[0] < a < band[1]:
            level = band[0] if a <= band[0] else band[1]
            state = dense_state(params, np.array(rows[-2:]).T)
            # Brent's last iterate stays inside the exit step even when it did not converge
            t_exit, _ = brentq(lambda x: state(x)[0] - level, t_old, t, _XTOL, _XTOL)
            return np.array(rows).T, t_exit
    return np.array(rows).T, None


def dense_state(params: HopfParams, steps: np.ndarray) -> Callable:
    """DOP853's 7th-order dense output over recorded steps, ``t -> (alpha, alpha')``.

    One numpy pass replays every step's stages with the stepper's ``accel`` on ``np.tan`` and
    forms scipy's ``Dop853DenseOutput`` coefficients; outside the steps' span the ends extrapolate.
    """
    accel = _compiled()(params.p, params.q, params.lam, params.mu, np.tan)[0]
    t, y, dy = steps[0], steps[1:3], steps[2:4]
    t0, h, y0 = t[:-1], np.diff(t), y[:, :-1]
    k = np.empty((16, 2, t0.size))
    k[0], k[12] = dy[:, :-1], dy[:, 1:]
    for s, c, a in _REPLAY:
        ts, (ys, dys) = t0 + c * h, y0 + np.tensordot(a, k[:s], axes=1) * h
        k[s] = dys, accel(ts, ys, dys)
    delta, high = y[:, 1:] - y0, h * np.tensordot(D, k, axes=1)
    coeffs = [*high[::-1], 2.0 * delta - h * (k[12] + k[0]), h * k[0] - delta, delta]

    def state(x):  # x: a float or an array
        i = np.clip(np.searchsorted(t, x) - 1, 0, t0.size - 1)
        u = (x - t0[i]) / h[i]
        out = np.zeros((2,) + np.shape(x))
        for n, f in enumerate(coeffs):
            out += f[:, i]
            out *= u if n % 2 == 0 else 1.0 - u
        return out + y0[:, i]

    return state
