"""Problem data, graded grids, and angle profiles for the reduced harmonic-map ODE.

The equation under study is the equivariant reduction of the harmonic-map
system for join-type sphere maps built from a bi-eigenmap with eigenvalue
pair (lambda, mu):

    alpha'' + (p*cot(t) - q*tan(t)) * alpha'
            - (lambda/sin(t)**2 + mu/cos(t)**2) * sin(alpha)*cos(alpha) = 0

on (0, pi/2), with alpha(0+) = 0 and alpha(pi/2-) = pi.  Both endpoints are
regular singular points: near t = 0 solutions behave like c0 * t**r0, and
near t = pi/2 like pi - c1 * (pi/2 - t)**r1, where r0, r1 are the positive
indicial roots of the linearized Euler equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

HALF_PI = math.pi / 2.0


def _maybe_scalar(out, like):
    """``out`` as a float when the argument ``like`` was a scalar."""
    return float(out) if np.ndim(like) == 0 else out


class DomainError(ValueError):
    """An evaluation point lies outside the operator's domain."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, grad_norm: Optional[float] = None):
        super().__init__(message)
        self.grad_norm = grad_norm


class BlowUpError(RuntimeError):
    """A trajectory left the admissible angle band during integration."""

    def __init__(self, message: str, exit_time: float):
        super().__init__(message)
        self.exit_time = exit_time


class OutsideProvenRegimeWarning(UserWarning):
    """Parameters fall outside the analytically covered regime (lambda < 1)."""


def indicial_exponents(p: int, q: int, lam: float, mu: float) -> tuple[float, float]:
    """Positive indicial roots at the two singular endpoints.

    Linearizing the equation at t = 0 gives the Euler equation
    ``r**2 + (p - 1)*r - lambda = 0`` for the exponent of ``alpha ~ c*t**r``;
    at t = pi/2 (in tau = pi/2 - t, for pi - alpha) the analogous equation is
    ``r**2 + (q - 1)*r - mu = 0``.  Returns the positive root of each.
    """
    r0 = 0.5 * (-(p - 1) + math.sqrt((p - 1) ** 2 + 4.0 * lam))
    r1 = 0.5 * (-(q - 1) + math.sqrt((q - 1) ** 2 + 4.0 * mu))
    return r0, r1


@dataclass(frozen=True)
class HopfParams:
    """The problem quadruple (p, q, lambda, mu) plus cached derived constants.

    Attributes
    ----------
    p, q : int
        Sphere exponents of the two factors (p, q >= 1).
    lam, mu : float
        Eigenvalues of the bi-eigenmap in the two factors (both > 0).
    a : float
        ``2*sqrt(lam)``; the exponent scale of the small-t limit profile.
    r0, r1 : float
        Positive indicial exponents at t = 0 and t = pi/2.
    """

    p: int
    q: int
    lam: float
    mu: float
    a: float = field(init=False, repr=False)
    r0: float = field(init=False, repr=False)
    r1: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.p) != self.p or int(self.q) != self.q:
            raise ValueError("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p, q must be >= 1, got p={self.p}, q={self.q}")
        if not (self.lam > 0 and self.mu > 0):
            raise ValueError(f"lambda, mu must be > 0, got {self.lam}, {self.mu}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        r0, r1 = indicial_exponents(self.p, self.q, self.lam, self.mu)
        object.__setattr__(self, "a", 2.0 * math.sqrt(self.lam))
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)

    @property
    def outside_proven_regime(self) -> bool:
        """True when lambda < 1; existence theory assumes lambda >= 1."""
        return self.lam < 1.0

    def mirrored(self) -> "HopfParams":
        """(q, p, mu, lambda): beta(tau) = pi - alpha(pi/2 - tau) solves its equation.

        The reflection swaps the two singular ends, so a problem posed at
        t = pi/2 is solved as the same problem at t = 0.
        """
        return HopfParams(p=self.q, q=self.p, lam=self.mu, mu=self.lam)

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "lambda": self.lam, "mu": self.mu}


@dataclass(eq=False)
class Grid:
    """Strictly increasing nodes in (0, upper), optionally marking a junction node.

    ``upper`` is pi/2 for angle grids; radial grids for the small-t limit
    equation live on (0, inf) and pass ``upper=np.inf``.
    """

    nodes: np.ndarray
    junction_index: Optional[int] = None
    upper: float = HALF_PI

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs a 1-d array of at least 2 nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.nodes[0] <= 0.0 or self.nodes[-1] >= self.upper:
            raise DomainError(
                f"grid nodes must lie in (0, {self.upper}); "
                f"got [{self.nodes[0]}, {self.nodes[-1]}]"
            )
        if self.junction_index is not None and not (
            0 <= self.junction_index < self.nodes.size
        ):
            raise ValueError("junction index out of range")

    @property
    def n(self) -> int:
        return self.nodes.size


def graded_grid(a: float, b: float, n: int, exponent: float = 2.0) -> np.ndarray:
    """Nodes on [a, b] clustered toward both ends with the given grading exponent.

    A uniform parameter xi in [0, 1] is mapped through
    ``zeta = xi**g / (xi**g + (1 - xi)**g)``, so the spacing near either end
    scales like ``(b - a) * (k/n)**g``.  ``exponent=1`` gives a uniform grid.
    """
    if not (b > a):
        raise ValueError("need b > a")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if exponent < 1.0:
        raise ValueError("grading exponent must be >= 1")
    xi = np.linspace(0.0, 1.0, n)
    num = xi**exponent
    zeta = num / (num + (1.0 - xi) ** exponent)
    out = a + (b - a) * zeta
    out[0] = a
    out[-1] = b
    return out


@dataclass(eq=False)
class Profile:
    """Angle values over a grid, with optional one-sided slopes at the junction.

    ``d_left``/``d_right`` hold the one-sided derivatives at the junction node
    of a glued curve; they differ exactly when the curve has a corner there.
    """

    grid: Grid
    values: np.ndarray
    d_left: Optional[float] = None
    d_right: Optional[float] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"grid shape {self.grid.nodes.shape}"
            )

    @property
    def t(self) -> np.ndarray:
        return self.grid.nodes

    def has_kink(self) -> bool:
        if self.d_left is None or self.d_right is None:
            return False
        scale = 1.0 + max(abs(self.d_left), abs(self.d_right))
        return abs(self.d_right - self.d_left) > 1e-12 * scale

    def derivative(self) -> np.ndarray:
        """Nodal first derivative: 3-point stencils, one-sided at the ends."""
        return nodal_first_derivative(self.t, self.values)

    def interpolate(self, t) -> np.ndarray:
        """Piecewise-linear evaluation at points inside the grid range."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t[0]) or np.any(t > self.t[-1]):
            raise DomainError("evaluation point outside the profile's grid range")
        return np.interp(t, self.t, self.values)


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * np.finfo(float).eps,
           maxiter: int = 100) -> tuple[float, bool]:
    """A root of f in [a, b] by Brent's method, and whether it met xtol + rtol*|root|.

    scipy's ``brentq.c`` (Brent 1973) line for line: the same iterates and calls of f.
    Raises ValueError when f(a) and f(b) share a sign or f returns NaN.
    """
    def call(x: float) -> float:
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return (xpre if fpre == 0 else xcur), True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur: the end with the smaller |f|
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        stry = math.inf  # bisect unless interpolation makes a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator (C: inf or NaN) bisects
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    return xcur, False


# --- three-point finite-difference weights (exact for quadratics) ------------


def fd3_first_weights(t0, t1, t2, x):
    """Weights (w0, w1, w2) with w0*y0 + w1*y1 + w2*y2 ~ y'(x).

    Differentiates the Lagrange interpolant through (t0, t1, t2); second-order
    accurate on smoothly varying grids, valid for any evaluation point x.
    """
    w0 = (2.0 * x - t1 - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (2.0 * x - t0 - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (2.0 * x - t0 - t1) / ((t2 - t0) * (t2 - t1))
    return w0, w1, w2


def fd3_second_weights(t0, t1, t2):
    """Weights for y''(x) from nodes (t0, t1, t2); constant in x for quadratics."""
    w0 = 2.0 / ((t0 - t1) * (t0 - t2))
    w1 = 2.0 / ((t1 - t0) * (t1 - t2))
    w2 = 2.0 / ((t2 - t0) * (t2 - t1))
    return w0, w1, w2


def fd_weights(nodes: np.ndarray, x0, max_order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns an array W of shape (max_order + 1, len(nodes)) such that
    ``W[m] @ y`` approximates the m-th derivative at x0 of the function with
    values y at the nodes; exact for polynomials of degree < len(nodes).

    Broadcasts over leading axes: nodes of shape (..., k) and x0 of shape
    (...) give W of shape (..., max_order + 1, k), one stencil per window,
    with every entry bit-identical to the per-window call.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    w = np.zeros(nodes.shape[:-1] + (max_order + 1, n))
    w[..., 0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[..., 0] - x0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - x0
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    w[..., m, i] = (
                        c1 * (m * w[..., m - 1, i - 1] - c5 * w[..., m, i - 1]) / c2
                    )
                w[..., 0, i] = -c1 * c5 * w[..., 0, i - 1] / c2
            for m in range(mn, 0, -1):
                w[..., m, j] = (c4 * w[..., m, j] - m * w[..., m - 1, j]) / c3
            w[..., 0, j] = c4 * w[..., 0, j] / c3
        c1 = c2
    return w


def nodal_first_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative at every node of a (possibly nonuniform) grid."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    n = t.size
    if n < 3:
        raise ValueError("need at least 3 nodes for a 3-point derivative")
    d = np.empty(n)
    w0, w1, w2 = fd3_first_weights(t[:-2], t[1:-1], t[2:], t[1:-1])
    d[1:-1] = w0 * y[:-2] + w1 * y[1:-1] + w2 * y[2:]
    w0, w1, w2 = fd3_first_weights(t[0], t[1], t[2], t[0])
    d[0] = w0 * y[0] + w1 * y[1] + w2 * y[2]
    w0, w1, w2 = fd3_first_weights(t[-3], t[-2], t[-1], t[-1])
    d[-1] = w0 * y[-3] + w1 * y[-2] + w2 * y[-1]
    return d
