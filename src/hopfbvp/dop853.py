"""DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-6) for one shot, on floats.

:func:`solve` uses scipy's tableau, initial step, step control and error norm, so it
takes solve_ivp's accepted steps without its per-step event and interpolant work;
:func:`dense_state` rebuilds the 7th-order dense output from the steps.  The tableau is
scipy's ``integrate/_ivp/dop853_coefficients.py``, loaded by path and sliced as scipy's
``DOP853`` class slices it: that file imports only numpy, so ``scipy.integrate`` is never
imported, and if it moves, importing this module raises FileNotFoundError.
"""

from __future__ import annotations

import importlib.util
import math
from typing import Callable, Optional

import numpy as np
import scipy

from .core import HopfParams, brentq
from .ode import coeff_Q, drift_coeff

__all__ = ["solve", "dense_state"]

_spec = importlib.util.spec_from_file_location(
    "hopfbvp._dop853_coefficients", f"{scipy.__path__[0]}/integrate/_ivp/dop853_coefficients.py")
_tab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tab)
_N = _tab.N_STAGES
A, B, C, E3, E5, D = _tab.A[:_N, :_N], _tab.B, _tab.C[:_N], _tab.E3, _tab.E5, _tab.D
A_EXTRA, C_EXTRA = _tab.A[_N + 1:], _tab.C[_N + 1:]

# (c, nonzero (j, a)) of stages 1-12 for the stepper (12: the step end, c = 1,
# weights B); (s, c, a[:s]) of stages 1-11 and 13-15 for the dense replay
_STAGES = tuple(
    (float(c), tuple((j, float(w)) for j, w in enumerate(a) if w))
    for c, a in zip(np.append(C[1:], 1.0), np.vstack((A[1:], B)))
)
_E = tuple((j, float(a), float(b)) for j, (a, b) in enumerate(zip(E3, E5)) if a or b)
_REPLAY = [(s, c, a[:s]) for s, c, a in zip(
    (*range(1, 12), 13, 14, 15), (*C[1:], *C_EXTRA), (*A[1:], *A_EXTRA))]
_XTOL, _SQRT2 = 4 * np.finfo(float).eps, math.sqrt(2.0)  # _XTOL: solve_ivp's event tolerance


def solve(params: HopfParams, t0: float, y0, t1: float, rtol: float, atol: float,
          band: tuple[float, float]) -> tuple[np.ndarray, Optional[float]]:
    """Accepted steps from t0 to t1 as rows (t, alpha, alpha', alpha''), and the exit time.

    The exit time is None, or the time alpha left the open ``band`` (checked at each step
    end, located on the exit step's dense output as solve_ivp locates a terminal event).
    Raises RuntimeError when the step size falls below the spacing of t.
    """
    p, q, lam, mu = params.p, params.q, params.lam, params.mu

    def accel(t: float, a: float, da: float) -> float:
        sn, cs = math.sin(t), math.cos(t)
        drift, qq = p * cs / sn - q * sn / cs, lam / sn**2 + mu / cs**2
        return -drift * da + qq * math.sin(a) * math.cos(a)

    def rms(x: float, y: float) -> float:
        return math.sqrt(x * x + y * y) / _SQRT2

    t, (a, da) = t0, y0
    dda = accel(t, a, da)
    sa, sd = atol + abs(a) * rtol, atol + abs(da) * rtol
    d0, d1 = rms(a / sa, da / sd), rms(da / sa, dda / sd)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    y1 = da + h0 * dda
    d2 = rms((y1 - da) / sa, (accel(t + h0, a + h0 * da, y1) - dda) / sd) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_next = min(100.0 * h0, h1, t1 - t0)

    rows = [(t, a, da, dda)]
    k0, k1 = [0.0] * 13, [0.0] * 13  # stage slopes of alpha and alpha'
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h_next, min_step), False
        while True:
            if h < min_step:
                raise RuntimeError("integrator failed: step size below the spacing of t")
            t_new = min(t + h, t1)
            h = t_new - t
            k0[0], k1[0] = da, dda
            for s, (c, row) in enumerate(_STAGES, start=1):
                x0 = x1 = 0.0
                for j, w in row:
                    x0 += w * k0[j]
                    x1 += w * k1[j]
                k0[s] = da + x1 * h
                k1[s] = accel(t + c * h, a + x0 * h, k0[s])
            a_new, da_new, dda_new = a + x0 * h, k0[12], k1[12]
            e30 = e31 = e50 = e51 = 0.0
            for j, w3, w5 in _E:
                e30 += w3 * k0[j]
                e31 += w3 * k1[j]
                e50 += w5 * k0[j]
                e51 += w5 * k1[j]
            sa = atol + max(abs(a), abs(a_new)) * rtol
            sd = atol + max(abs(da), abs(da_new)) * rtol
            n3 = (e30 / sa) ** 2 + (e31 / sd) ** 2
            n5 = (e50 / sa) ** 2 + (e51 / sd) ** 2
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

    One numpy pass replays every step's stages and forms scipy's ``Dop853DenseOutput``
    coefficients; outside the steps' span the end pieces extrapolate.
    """
    t, y, dy = steps[0], steps[1:3], steps[2:4]
    t0, h, y0 = t[:-1], np.diff(t), y[:, :-1]
    k = np.empty((16, 2, t0.size))
    k[0], k[12] = dy[:, :-1], dy[:, 1:]
    for s, c, a in _REPLAY:
        ts, (ys, dys) = t0 + c * h, y0 + np.tensordot(a, k[:s], axes=1) * h
        k[s] = dys, coeff_Q(ts, params) * np.sin(ys) * np.cos(ys) - drift_coeff(ts, params) * dys
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
