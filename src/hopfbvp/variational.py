"""One-sided energy minimizers, gluing, and the derivative jump at the junction.

For a junction angle s in (0, pi/2) the energy

    J(alpha) = integral (alpha'^2 + Q sin^2(alpha)) f dt

is minimized separately over (0, s] and [s, pi/2) subject to alpha(s) = pi/2,
with natural (free) boundary values at the near-singular ends.  Only the
interior problem is coded: the mirror beta(tau) = pi - alpha(pi/2 - tau)
with (p, q, lambda, mu) -> (q, p, mu, lambda) maps [s, pi/2) onto
(0, pi/2 - s] with the same energy, so the exterior minimizer is the
interior one of the mirrored problem, mapped back.  The two minimizers glue
to a continuous curve alpha_s that solves the equation away from s but
whose slope may jump there; the jump

    l(s) = alpha_s'(s+0) - alpha_s'(s-0)

is the object scanned and driven to zero by the analysis layer.  An exact
integral identity provides an independent route to the same quantity:

    f(s)^2 * (alpha_s'(s+0)^2 - alpha_s'(s-0)^2)
        = integral_0^{pi/2} (f^2 Q)' sin^2(alpha_s) dt  =:  I_s,

so l = I_s / (f(s)^2 * (d_plus + d_minus)), and sign(l) = sign(I_s).

Discretization: piecewise-linear elements on a graded grid with 4-point
Gauss-Legendre quadrature per element (the discrete energy is then exact to
quadrature precision for profiles linear in t), the last node pinned to
pi/2.  Gauss-point arrays are laid out (4, n_el), so every broadcast runs
along the elements, and one ``tan`` pass gives the kernels' sin^2 a and
sin a cos a.  Everything a glue at s builds without (lambda, mu) is one
record, held for the last junction only: both sides' grids and their geometry
at the Gauss points, the exterior grid mapped back to t, the union grid and
its Simpson rows.  Each of its trigonometric tables (a side's geometry, the
Simpson rows) comes from one ``tan`` pass too (:func:`ode._trig_squares`).
The cells of a map glued at one s build it once.  Minimization:
damped Newton with one LAPACK ``dptsv`` (SPD tridiagonal) solve per step of a
Levenberg shift ladder, ``info > 0`` meaning "not positive definite, next
shift"; a strictly decreasing line search; a single stopping rule on the
Newton decrement; and the closing step v + d, which reaches the discrete minimizer
to rounding, so a side may start from (a secant through) neighbours at no cost to l.
"""

from __future__ import annotations

import collections
import copy
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    HALF_PI,
    ConvergenceError,
    Grid,
    HopfParams,
    Profile,
    fd3_first_weights,
    graded_grid,
    scipy_module,
    simpson_weights,
)
from .ode import _sin_cos_power, _trig_squares, weight_f

__all__ = [
    "GluedSolution",
    "MinimizeResult",
    "DiscreteEnergy",
    "interior_grid",
    "minimize_interior",
    "minimize_exterior",
    "glue",
]

DEFAULT_N = 2000
# distance of the free end nodes from the singular endpoints; the natural
# boundary there perturbs the solution by ~ c * offset**min(r0, r1), which
# must stay below the exact-recovery tolerances
DEFAULT_OFFSET = 1e-7
MAX_ITER = 200
# Newton stops once it predicts a decrease below DECREMENT_TOL*(1+|E|).  The
# float64 energy is off by up to about 1.05*eps*(1+|E|) here (measured against
# long double for n = 500..16000, at the guess and the minimizer), so a decrease
# of a few eps*(1+|E|) cannot be confirmed by comparing two energies; 8*eps keeps
# the test above that floor, and the line search can always demand a strict decrease.
DECREMENT_TOL = 8.0 * float(np.finfo(float).eps)
# Levenberg shifts tried per Newton direction: 0, then 1e-10 growing tenfold
MAX_SHIFTS = 30
ATTACH_TOL = 1e-2
_OVERFLOW = "Q f w is not finite: lambda={0.lam:g}, mu={0.mu:g} overflow float64 on this grid"

# numpy.polynomial.legendre.leggauss(4) bit for bit; the closed forms differ in the last bits
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626,
                  0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745357, 0.6521451548625464,
                  0.6521451548625464, 0.34785484513745357])
_GL_X01 = 0.5 * (_GL_X + 1.0)
_GL_W01 = 0.5 * _GL_W
# hat functions at the Gauss points (left _HAT0, right _GL_X01), doubled (_G) for sin 2a / 2
_HAT0 = 1.0 - _GL_X01
_G0, _G1 = 2.0 * _HAT0, 2.0 * _GL_X01
_HAT00, _HAT11, _HAT01 = _HAT0**2, _GL_X01**2, _GL_X01 * _HAT0  # Hessian products


@functools.cache
def _dptsv():
    """LAPACK's dptsv from the f2py module that scipy.linalg.lapack wraps, loaded on first use."""
    return scipy_module("linalg._flapack").dptsv


@functools.lru_cache(maxsize=1)
def _gauss_x(n_el: int) -> np.ndarray:
    """The Gauss abscissae on [0, 1] as one read-only (4, n_el) array, shared by the geometries."""
    x = np.repeat(_GL_X01, n_el).reshape(4, n_el)
    x.flags.writeable = False
    return x


def interior_grid(s: float, n: int = DEFAULT_N) -> Grid:
    """Graded grid on [DEFAULT_OFFSET, s] with the junction as its last node.

    Every glue and minimizer builds its grids here, so here the library refuses n < 16.
    """
    if n < 16:
        raise ValueError(f"grid size n must be >= 16, got {n}")
    if not (DEFAULT_OFFSET < s < HALF_PI):
        raise ValueError(f"need 0 < offset < s < pi/2, got offset={DEFAULT_OFFSET}, s={s}")
    return Grid(graded_grid(DEFAULT_OFFSET, s, n), junction_index=n - 1)


class DiscreteEnergy:
    """Piecewise-linear discretization of J on a fixed grid whose last node is pinned to pi/2.

    ``DiscreteEnergy(grid, p, q)`` is the geometry, built once: quadrature
    points, f and sin^2, cos^2 there (one tan pass, the values of
    ode.weight_f) and the stiffness 2f/h^2.  :meth:`with_params` adds Q f w for
    one (lambda, mu), with the values of ode.coefficients' Q, and gives the energy.  Grid
    keeps the nodes, and so every quadrature point, inside (0, pi/2).
    Per iterate, :meth:`trig` makes the one trigonometric pass in two (4, n_el) buffers:
    the angles a (Gauss layout shared by all geometries with n_el elements), t = tan a,
    then sin a cos a = t/(1+t^2) and sin^2 a = t sin a cos a.  Gradient and Hessian
    accumulate in place; their (4,) @ (4, n_el) contractions stay separate, since a
    stacked one sums in another order.  numpy vectorises float64 tan only on CPUs
    with AVX-512; elsewhere it calls scalar libm.
    """

    def __init__(self, grid: Grid, p: int, q: int):
        t = grid.nodes
        self.grid, self.n = grid, t.size
        self.h = np.diff(t)
        self._x = _gauss_x(self.h.size)
        squares = _trig_squares(t[:-1] + self._x * self.h)  # at the (4, n_el) quadrature points
        self._sin2, self._cos2 = squares[1:]
        self.fw = _sin_cos_power(squares, p, q) * (_GL_W01[:, None] * self.h)
        self.f_el = self.fw.sum(axis=0)  # integral of f over each element
        self.f_el2 = 2.0 * self.f_el
        self.stiff = self.f_el2 / self.h**2

    def with_params(self, params: HopfParams) -> DiscreteEnergy:
        """The energy on this geometry for (lambda, mu) and the same (p, q): it adds Q f w.

        Raises :class:`ConvergenceError` naming lambda and mu when Q f w overflows float64
        at a quadrature point (:func:`minimize_exterior` names the caller's, not the mirror's).
        """
        disc = copy.copy(self)
        with np.errstate(over="ignore", invalid="ignore"):
            disc.qfw = np.divide(params.lam, self._sin2)
            disc.qfw += params.mu / self._cos2
            disc.qfw *= self.fw
        if not math.isfinite(disc.qfw.max()):  # Q f w >= 0, and max keeps a NaN
            raise ConvergenceError(_OVERFLOW.format(params))
        return disc

    def trig(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slopes, sin a cos a, sin^2 a) at a = v_i + x (v_(i+1) - v_i); NaN for NaN or inf v."""
        dv = v[1:] - v[:-1]
        tn = self._x * dv
        np.tan(np.add(tn, v[:-1], out=tn), out=tn)  # the quadrature angles a, then t = tan a
        sc = tn * tn
        sc += 1.0
        np.divide(tn, sc, out=sc)
        return np.divide(dv, self.h, out=dv), sc, np.multiply(sc, tn, out=tn)

    def energy(self, v: np.ndarray, trig=None) -> float:
        slope, _, sin2 = self.trig(v) if trig is None else trig
        return float(np.dot(self.f_el, slope**2)) + float(np.vdot(self.qfw, sin2))

    def gradient(self, v: np.ndarray, trig=None) -> np.ndarray:
        """Full-length gradient of the discrete energy (pinned entry zeroed)."""
        slope, sc, _ = self.trig(v) if trig is None else trig
        pot = self.qfw * sc  # (4, n_el)
        gd = self.f_el2 * slope
        gd /= self.h
        g, left, right = np.zeros(self.n), _G0 @ pot, _G1 @ pot
        left -= gd
        right += gd
        g[:-1] += left
        g[1:] += right
        g[-1] = 0.0
        return g

    def _hessian(self, sin2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hessian on the free nodes from sin^2 a: (diagonal, d01), d01[i] couples i and i+1."""
        curv = np.multiply(sin2, -4.0)  # 2 Q f w cos 2a, as (2 - 4 sin^2 a) Q f w
        curv += 2.0
        curv *= self.qfw
        diag, right, off = _HAT00 @ curv, _HAT11 @ curv, _HAT01 @ curv
        diag += self.stiff
        right += self.stiff
        off -= self.stiff
        diag[1:] += right[:-1]
        return diag, off[:-1]

    def newton_direction(self, v: np.ndarray, g: np.ndarray, trig=None) -> tuple[np.ndarray, float]:
        """Descent direction d and the Levenberg shift that produced it.

        Solves (H + shift*diag(|H_ii|+1)) d = -g on the free nodes (all but
        the last, so the reduced Hessian stays tridiagonal): one ``dptsv`` call
        per shift 0, 1e-10, 1e-9, ..., moving on when info > 0 (not positive
        definite) or d is no finite descent direction.  Raises
        :class:`ConvergenceError` after MAX_SHIFTS attempts.
        """
        diag, off = self._hessian((self.trig(v) if trig is None else trig)[2])
        d, dptsv = np.zeros(self.n), _dptsv()
        sol, shift, shifted = d[:-1], 0.0, diag
        for _ in range(MAX_SHIFTS):
            np.negative(g[:-1], out=sol)
            info = dptsv(shifted, off, sol, overwrite_b=True)[3]  # solves into sol, so into d
            # sol.g = -sol.(-g) bit for bit; a NaN or inf entry of sol makes it NaN or infinite
            if info == 0 and -math.inf < np.dot(sol, g[:-1]) <= 0.0:
                return d, shift
            shift = max(10.0 * shift, 1e-10)
            shifted = diag + shift * (np.abs(diag) + 1.0)
        raise ConvergenceError(f"no descent direction after {MAX_SHIFTS} Levenberg shifts")


@dataclass
class MinimizeResult:
    """Outcome of one side's energy minimization; :func:`glue` measures its free end."""

    profile: Profile  # v + d: the last iterate v plus its closing Newton step
    energy: float  # E(v); E(v + d) is lower by at most the decrement, below float64's resolution
    grad_norm: float  # max|g(v)|
    iterations: int
    energy_history: np.ndarray
    # one-sided slope at the junction, from the three nodes nearest it
    slope: float


_Junction = collections.namedtuple("_Junction", "inner outer outer_grid union rows")


@functools.lru_cache(maxsize=1)
def _junction(s: float, n: int, p: int, q: int) -> _Junction:
    """What a glue at s builds without (lambda, mu), held for the last junction only.

    The interior DiscreteEnergy on interior_grid(s, n), the mirrored
    exterior one on interior_grid(pi/2 - s, n), the exterior grid
    mapped back to t (its junction node s exactly), the union grid and its
    Simpson rows.  The next cell of a map glued at this s forms only its own
    Q f w (:meth:`DiscreteEnergy.with_params`) and sin^2 alpha.
    """
    if not (DEFAULT_OFFSET < s < HALF_PI - DEFAULT_OFFSET):
        raise ValueError(f"need 0 < offset < s < pi/2 - offset, got offset={DEFAULT_OFFSET}, s={s}")
    inner = DiscreteEnergy(interior_grid(s, n), p, q)
    outer = DiscreteEnergy(interior_grid(HALF_PI - s, n), q, p)
    t = HALF_PI - outer.grid.nodes[::-1]
    t[0] = s
    union = Grid(np.concatenate([inner.grid.nodes, t[1:]]), junction_index=n - 1)
    return _Junction(inner, outer, Grid(t, junction_index=0), union,
                     _simpson_rows(union.nodes, p, q))


def _minimize(disc: DiscreteEnergy, params: HopfParams, what: str, start=None) -> MinimizeResult:
    """Damped Newton on disc's grid (0, s] with alpha(s) = pi/2, from ``start`` or pi/2 (t/s)^r0.

    The one stopping rule is the Newton decrement of Boyd & Vandenberghe,
    Convex Optimization, section 9.5.1: stop when the unshifted step d predicts
    a decrease lambda^2/2 = -d.g/2 of at most DECREMENT_TOL*(1+|E|), i.e. one
    that the float64 energy cannot resolve, and return v + d.  That closing step
    needs no kernel call and leaves the slope at s that of a cold start.  Every
    other end raises :class:`ConvergenceError` naming ``what``, the exit that
    fired and the gradient norm max|g| of the failing iterate, formed only there.
    """
    grid, t = disc.grid, disc.grid.nodes
    s = t[-1]
    if start is not None and (np.shape(start) != (disc.n,) or start[-1] != HALF_PI):
        raise ValueError(f"{what}: start needs {disc.n} values with pi/2 at the junction node")
    # the last node is s, so the guess is pinned there to pi/2, as a start must be
    v = HALF_PI * np.minimum(1.0, (t / s) ** params.r0) if start is None else start
    # trig goes positionally: the traced benchmark wraps kernels as fn(disc, v, *rest)
    trig = disc.trig(v)
    e = disc.energy(v, trig)
    history = [e]
    for it in range(1, MAX_ITER + 1):
        g = disc.gradient(v, trig)
        try:
            d, shift = disc.newton_direction(v, g, trig)
        except ConvergenceError as exc:
            failure = f"{exc} at iteration {it},"
            break
        decrement = -0.5 * float(np.dot(d, g))
        if shift == 0.0 and decrement <= DECREMENT_TOL * (1.0 + abs(e)):
            v = v + d  # d[-1] = 0 keeps the pin
            return MinimizeResult(Profile(grid, v), e, float(np.max(np.abs(g))), it,
                                  np.asarray(history), _one_sided_slope(t[-3:], v[-3:], s))
        for k in range(60):
            vt = v + 0.5**k * d if k else v + d  # step 1, 1/2, 1/4, ...
            trig_t = disc.trig(vt)
            et = disc.energy(vt, trig_t)
            if et < e:  # False for NaN as well
                break
        else:
            failure = (f"no strict decrease along the Newton direction (decrement "
                       f"{decrement:.3e}, shift {shift:.0e}) at iteration {it},")
            break
        v, e, trig = vt, et, trig_t
        history.append(e)
    else:
        failure = f"reached the iteration cap of {MAX_ITER} with"
    gnorm = float(np.max(np.abs(g)))
    raise ConvergenceError(f"{what}: {failure} gradient norm {gnorm:.3e}", grad_norm=gnorm)


def minimize_interior(s: float, params: HopfParams, n: int = DEFAULT_N,
                      start: np.ndarray | None = None) -> MinimizeResult:
    """Minimize the energy over (0, s] with alpha(s) = pi/2 pinned.

    The value at the innermost node is free (natural boundary); for p = 1 the
    minimizer attaches to 0 there on its own, since the constant pi/2 has
    divergent energy.  Newton starts cold or from ``start``, values on
    interior_grid(s, n).  Raises :class:`ConvergenceError` if Newton stops
    before its decrement test is met.
    """
    disc = _junction(s, n, params.p, params.q).inner.with_params(params)
    return _minimize(disc, params, f"interior minimization at s={s}", start)


def minimize_exterior(s: float, params: HopfParams, n: int = DEFAULT_N,
                      start: np.ndarray | None = None) -> MinimizeResult:
    """Minimize the energy over [s, pi/2) with alpha(s) = pi/2 pinned.

    Solved as the interior problem at pi/2 - s for ``params.mirrored()``, in
    tau = pi/2 - t and beta = pi - alpha, which has the same energy; the
    result is mapped back to t with its junction node set to s exactly, and a
    ``start`` (values in t, pi/2 at s) is mapped the other way.  The
    junction slope needs no mapping, since beta'(tau) = alpha'(t).  For small
    s the minimizer attaches to pi at the outer end; for larger s it may not,
    which :func:`glue` reports in ``boundary_error_pi`` rather than as an error.
    """
    held, mirrored = _junction(s, n, params.p, params.q), params.mirrored()
    try:
        disc = held.outer.with_params(mirrored)
    except ConvergenceError:  # the mirror swaps lambda and mu: name the caller's
        raise ConvergenceError(_OVERFLOW.format(params)) from None
    res = _minimize(disc, mirrored, f"exterior minimization at s={s}",
                    None if start is None else math.pi - start[::-1])
    values = math.pi - res.profile.values[::-1]
    return replace(res, profile=Profile(held.outer_grid, values))


@dataclass
class GluedSolution:
    """Two one-sided minimizers joined at s: jump and integral data, and the end record."""

    s: float
    l: float
    l_tilde: float
    d_minus: float
    d_plus: float
    J_interior: float
    J_exterior: float
    I_s: float
    I_s1: float
    I_s2: float
    # the end record, measured once by glue: |alpha| at the first node, |pi - alpha| at the last
    boundary_error_zero: float
    boundary_error_pi: float
    # the glued curve on the union grid, from merged_profile()
    _curve: Profile = field(repr=False)
    # observed node-to-node monotonicity of the converged minimizers; nothing
    # downstream assumes it, a False here flags an unexpected solution shape
    monotone_interior: bool = True
    monotone_exterior: bool = True

    @property
    def attached(self) -> bool:
        """Whether both ends reach their limits, 0 and pi, within ATTACH_TOL: the one end test."""
        return self.boundary_error_zero <= ATTACH_TOL and self.boundary_error_pi <= ATTACH_TOL

    def merged_profile(self) -> Profile:
        """The glued curve: one grid with the junction node, one-sided slopes there."""
        return self._curve

    def to_dict(self) -> dict:
        """The scalar fields: everything but the glued curve."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "_curve"}


def _one_sided_slope(t: np.ndarray, v: np.ndarray, x: float) -> float:
    """Second-order slope at x from the three nodes (t, v) nearest it."""
    w0, w1, w2 = fd3_first_weights(t[0], t[1], t[2], x)
    return float(w0 * v[0] + w1 * v[1] + w2 * v[2])


def _simpson_rows(t: np.ndarray, p: int, q: int) -> np.ndarray:
    """W * m_k on the nodes t padded with 0 and pi/2.

    W holds :func:`core.simpson_weights` (odd node count), and m_k
    are the monomials of :func:`jump_integrals`: those of I_s1 and I_s2, and
    for p > 1 the three of (f^2 Q)', all finite on [0, pi/2] there.  Each is
    sin^a cos^b with a and b odd, so all come from one tan pass with no sqrt.
    """
    ts = np.concatenate(([0.0], t, [HALF_PI]))
    powers = [(1, 2 * q - 1), (3, 2 * q - 3)] + (p > 1) * [
        (2 * p - 1, 2 * q - 1), (2 * p + 1, 2 * q - 3), (2 * p - 3, 2 * q + 1)]
    squares = _trig_squares(ts)
    return np.stack([_sin_cos_power(squares, a, b) for a, b in powers]) * simpson_weights(ts)


def jump_integrals(
    rows: np.ndarray, alpha: np.ndarray, params: HopfParams
) -> tuple[float, float, float]:
    """(I_s, I_s1, I_s2): quadratures of (f^2 Q)' sin^2(alpha) and its two parts.

    I_s1 integrates sin(t) cos(t)^(2q-1) sin^2(alpha); I_s2 integrates
    sin(t)^3 cos(t)^(2q-3) sin^2(alpha).  For p = 1 the exact expansion
    (f^2 Q)' = 2(mu - lam*q) * g1 - 2*mu*(q-1) * g2 makes
    I_s = 2(mu - lam*q) I_s1 - 2 mu (q-1) I_s2 hold to rounding, since all
    three are computed by the same (linear) composite Simpson rule.

    ``rows`` are :func:`_simpson_rows` of alpha's grid for (params.p, params.q).
    The integrands vanish at both endpoints, so the grid (with an odd number
    of nodes, as a union grid has) is extended by the exact limits
    alpha(0) = 0, alpha(pi/2) = pi.  A glue takes the rows from its held
    junction, so a call costs sin^2(alpha) (one ``tan`` pass) and one
    matrix-vector product.
    """
    p, q, lam, mu = params.p, params.q, params.lam, params.mu
    tn = np.tan(np.concatenate(([0.0], alpha, [math.pi])))
    ints = [float(i) for i in rows @ (tn * tn / (1.0 + tn * tn))]
    # (f^2 Q)' = 2(mu p - lam q) m1 - 2 mu (q-1) m2 + 2 (p-1) lam m0; for p = 1
    # m1, m2 are the monomials of I_s1, I_s2 and m0 (a negative power) drops out
    j = ints[2:] if p > 1 else ints + [0.0]
    i_s = (2.0 * (mu * p - lam * q) * j[0] - 2.0 * mu * (q - 1) * j[1]
           + 2.0 * (p - 1) * lam * j[2])
    return i_s, ints[0], ints[1]


def glue(s: float, params: HopfParams, n: int = DEFAULT_N,
         start: np.ndarray | None = None) -> GluedSolution:
    """Solve both sides at junction s and assemble the glued curve.

    Both minimizers place their free end nodes DEFAULT_OFFSET inside the singular
    endpoints and start cold or from ``start``: 2n - 1 union values, pi/2 at index n - 1,
    from glues at any s (all grids scale one graded layout).  Failures raise ConvergenceError.
    """
    if start is not None and (np.shape(start) != (2 * n - 1,) or start[n - 1] != HALF_PI):
        raise ValueError(f"start needs 2n - 1 = {2 * n - 1} values with pi/2 at index {n - 1}")
    res_i = minimize_interior(s, params, n=n, start=None if start is None else start[:n])
    res_e = minimize_exterior(s, params, n=n, start=None if start is None else start[n - 1:])
    held = _junction(s, n, params.p, params.q)
    vi, ve = res_i.profile.values, res_e.profile.values
    d_minus, d_plus = res_i.slope, res_e.slope
    a_union = np.concatenate([vi, ve[1:]])
    i_s, i1, i2 = jump_integrals(held.rows, a_union, params)
    # the square on f(s) comes from multiplying the conservation form by
    # f*alpha' and integrating by parts on each side of the junction
    denom = weight_f(s, params) ** 2 * (d_plus + d_minus)
    return GluedSolution(
        s=s, l=d_plus - d_minus, l_tilde=i_s / denom if abs(denom) > 1e-300 else math.nan,
        d_minus=d_minus, d_plus=d_plus, J_interior=res_i.energy, J_exterior=res_e.energy,
        I_s=i_s, I_s1=i1, I_s2=i2,
        boundary_error_zero=float(abs(vi[0])), boundary_error_pi=float(abs(math.pi - ve[-1])),
        _curve=Profile(held.union, a_union, d_left=d_minus, d_right=d_plus),
        monotone_interior=bool(np.all(np.diff(vi) >= -1e-12)),
        monotone_exterior=bool(np.all(np.diff(ve) >= -1e-12)),
    )
