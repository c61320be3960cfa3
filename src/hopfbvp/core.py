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

The shared numerics live here too, among them the one 3-point first derivative
(:func:`nodal_first_derivative`) and the one CSV writer (:func:`write_csv`).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
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
        Eigenvalues of the bi-eigenmap in the two factors (both finite and > 0).
    r0, r1 : float
        Positive indicial exponents at t = 0 and t = pi/2.
    """

    p: int
    q: int
    lam: float
    mu: float
    r0: float = field(init=False, repr=False)
    r1: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.p) != self.p or int(self.q) != self.q:
            raise ValueError("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p, q must be >= 1, got p={self.p}, q={self.q}")
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf):
            raise ValueError(f"lambda, mu must be finite and > 0, got {self.lam}, {self.mu}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "mu", float(self.mu))
        r0, r1 = indicial_exponents(self.p, self.q, self.lam, self.mu)
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
    """Strictly increasing nodes in (0, pi/2), optionally marking a junction node."""

    nodes: np.ndarray
    junction_index: Optional[int] = None

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("grid needs a 1-d array of at least 2 nodes")
        if not np.all(np.diff(self.nodes) > 0):  # False for a NaN node too
            raise ValueError("grid nodes must be strictly increasing")
        if self.nodes[0] <= 0.0 or self.nodes[-1] >= HALF_PI:
            raise DomainError(
                f"grid nodes must lie in (0, {HALF_PI}); "
                f"got [{self.nodes[0]}, {self.nodes[-1]}]"
            )
        if self.junction_index is not None and not (
            0 <= self.junction_index < self.nodes.size
        ):
            raise ValueError("junction index out of range")


@functools.lru_cache(maxsize=8)
def _graded_layout(n: int) -> np.ndarray:
    """zeta on n nodes for :func:`graded_grid`, one read-only array per n."""
    xi = np.linspace(0.0, 1.0, n)
    num = xi**2.0
    zeta = num / (num + (1.0 - xi) ** 2.0)
    zeta.flags.writeable = False
    return zeta


def graded_grid(a: float, b: float, n: int) -> np.ndarray:
    """Nodes on [a, b] clustered toward both ends with grading exponent 2.

    A uniform parameter xi in [0, 1] is mapped through
    ``zeta = xi**2 / (xi**2 + (1 - xi)**2)``, so the spacing near either end
    scales like ``(b - a) * (k/n)**2``.  Every mesh of the package uses it.
    zeta is built once per n and kept (:func:`_graded_layout`), so a grid costs
    a + (b - a) * zeta, with the bits of building zeta each time.
    """
    if not (b > a):
        raise ValueError("need b > a")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    out = a + (b - a) * _graded_layout(n)
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

    def interpolate(self, t) -> np.ndarray:
        """Piecewise-linear evaluation at points inside the grid range."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t[0]) or np.any(t > self.t[-1]):
            raise DomainError("evaluation point outside the profile's grid range")
        return np.interp(t, self.t, self.values)


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * np.finfo(float).eps,
           maxiter: int = 100) -> tuple[float, bool]:
    """A root of f in [a, b] by Brent's method, and whether it met xtol + rtol*|root|.

    The loop is scipy's compiled ``brentq.c`` (Brent 1973), loaded by :func:`_zeros`: the
    iterates and calls of f of ``scipy.optimize.brentq``.  An exception from f leaves at that
    call, unchanged; ValueError when f(a) and f(b) share a sign or f returns NaN.
    """
    def call(x: float) -> float:
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    root, _, _, flag = _zeros()._brentq(call, a, b, xtol, rtol, maxiter, (), True, False)
    return root, flag == 0


def scipy_module(name: str):
    """``scipy.<name>`` executed from its file, without running any scipy package ``__init__``.

    Every scipy module the solvers run comes through here: Brent's loop, ``dptsv`` and the
    DOP853 tableau.  An extension module registers itself in ``sys.modules`` under its full
    name, so a later ``import scipy...`` reuses it; a ``.py`` module does not.
    """
    where = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                         *name.split(".")[:-1])
    spec = importlib.machinery.PathFinder.find_spec(f"scipy.{name}", [where])
    if spec is None:
        raise ImportError(f"no module scipy.{name} in {where}", name=f"scipy.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _zeros():
    """scipy's extension ``optimize._zeros``, whose ``_brentq`` runs ``brentq.c``; loaded on first use."""
    return scipy_module("optimize._zeros")


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
    """First derivative at every node of each row of y: 3-point stencils, one-sided at the ends."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 nodes for a 3-point derivative")
    c = np.clip(np.arange(t.size), 1, t.size - 2)  # the centre of each node's stencil
    w0, w1, w2 = fd3_first_weights(t[c - 1], t[c], t[c + 1], t)
    return w0 * y[..., c - 1] + w1 * y[..., c] + w2 * y[..., c + 1]


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y = scipy's ``simpson(y, x=x)``, up to summation order.

    x must increase strictly.  Pairs of intervals take the composite rule for
    uneven spacing; for an even node count the last interval takes Cartwright's
    correction, as scipy does, and two nodes take the trapezoid.
    """
    n, h = x.size, np.diff(x)
    if n == 2:
        return np.full(2, 0.5 * h[0])
    w = np.zeros(n)
    m = n - 1 + n % 2  # the odd count of nodes the pairs cover
    h0, h1 = h[0:m - 1:2], h[1:m - 1:2]
    hsum6, r = (h0 + h1) / 6.0, h0 / h1
    w[0:m - 1:2] = hsum6 * (2.0 - 1.0 / r)
    w[1:m - 1:2] = hsum6 * ((h0 + h1) * ((h0 + h1) / (h0 * h1)))
    w[2:m:2] += hsum6 * (2.0 - r)
    if m < n:
        h0, h1 = h[-2], h[-1]
        w[-1] += (2.0 * h1**2 + 3.0 * h0 * h1) / (6.0 * (h0 + h1))
        w[-2] += (h1**2 + 3.0 * h0 * h1) / (6.0 * h0)
        w[-3] -= h1**3 / (6.0 * h0 * (h0 + h1))
    return w


def write_csv(path, header: str, *columns) -> None:
    """Write ``header``, then one row per index of the equal-length ``columns``.

    The one CSV format of the output files: a float takes 17 significant
    digits, which read back as the same double; None is an empty field; any
    other value is its ``str``.  Every line ends in ``\\n``.
    """
    real = "%.17g"

    def text(x) -> str:
        if x is None:
            return ""
        return real % x if isinstance(x, float) else str(x)

    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    # a float64 array or a column of only floats is formatted by the line itself; any other is made text
    floats = [isinstance(c, np.ndarray) and c.dtype == float or all(isinstance(x, float) for x in col)
              for c, col in zip(columns, cols)]
    cols = [col if only else [text(x) for x in col] for col, only in zip(cols, floats)]
    line = ",".join(real if only else "%s" for only in floats) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in zip(*cols))
