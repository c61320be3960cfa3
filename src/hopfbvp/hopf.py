"""Orthogonal multiplications, their Hopf constructions, and the join map of a profile.

An orthogonal multiplication is a bilinear map f: R^k x R^l -> R^n with
|f(x,y)| = |x||y| for all x, y.  Each one is stored here as an integer
coefficient tensor T with f_m(x, y) = sum_ij T[m,i,j] x_i y_j, which makes the
algebraic checks (bilinearity, harmonicity of the Hopf construction) exact.

The Hopf construction on f is F_f(x, y) = (2 f(x,y), |x|^2 - |y|^2), a map of
homogeneous quadratics whose restriction to the unit sphere is an eigenmap
when k = l (:func:`eigenvalue_check`).  :func:`alpha_hopf_eval` evaluates the
join map (sin(alpha(t)) f(x, y), cos(alpha(t))) of a computed angle profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Profile

__all__ = [
    "OrthogonalMultiplication",
    "complex_multiplication",
    "quaternion_multiplication",
    "octonion_multiplication",
    "restricted_multiplication",
    "multiplication_by_name",
    "orthmul_eval",
    "eigenvalue_check",
    "alpha_hopf_eval",
]


@dataclass(frozen=True, eq=False)
class OrthogonalMultiplication:
    """Bilinear norm-multiplicative map encoded as an integer tensor (n, k, l)."""

    kind: str
    tensor: np.ndarray

    @property
    def k(self) -> int:
        return self.tensor.shape[1]

    @property
    def l(self) -> int:
        return self.tensor.shape[2]

    @property
    def n_out(self) -> int:
        return self.tensor.shape[0]

    def __call__(self, x, y) -> np.ndarray:
        return orthmul_eval(self, x, y)


def _doubled(t: np.ndarray) -> np.ndarray:
    """Cayley-Dickson doubling of a structure-constant table: (a,b)(c,d) = (ac - d*b, da + bc*).

    ``t`` holds e_i e_j = sum_k t[k,i,j] e_k for an algebra with unit e_0 on
    R^m; the doubled algebra on R^(2m) has the basis (e_i, 0), then (0, e_i),
    and conjugation negates every e_i except e_0.
    """
    m = t.shape[0]
    conj = np.ones(m, dtype=np.int64)
    conj[1:] = -1
    swapped = t.transpose(0, 2, 1)  # swapped[k,i,j] = t[k,j,i]: the product e_j e_i
    out = np.zeros((2 * m,) * 3, dtype=np.int64)
    out[:m, :m, :m] = t  # (a,0)(c,0) = (ac, 0)
    out[m:, :m, m:] = swapped  # (a,0)(0,d) = (0, da)
    out[m:, m:, :m] = t * conj  # (0,b)(c,0) = (0, bc*)
    out[:m, m:, m:] = -swapped * conj  # (0,b)(0,d) = (-d*b, 0)
    return out


def complex_multiplication() -> OrthogonalMultiplication:
    """Complex product on R^2 x R^2 -> R^2: the reals doubled."""
    return OrthogonalMultiplication("complex", _doubled(np.ones((1, 1, 1), dtype=np.int64)))


def quaternion_multiplication() -> OrthogonalMultiplication:
    """Hamilton product on R^4: the complex numbers doubled."""
    return OrthogonalMultiplication("quaternion", _doubled(complex_multiplication().tensor))


def octonion_multiplication() -> OrthogonalMultiplication:
    """Octonion product on R^8: the quaternions doubled."""
    return OrthogonalMultiplication("octonion", _doubled(quaternion_multiplication().tensor))


def restricted_multiplication(l: int) -> OrthogonalMultiplication:
    """Orthogonal multiplication R^2 x R^l -> R^(l+1) for odd l.

    Built from two pointwise-orthogonal isometric embeddings A, B of R^l into
    R^(l+1): A y = (y, 0), and B y rotates the even-dimensional head of y by a
    complex structure, parks the last input coordinate in the new slot, and
    zeroes the vacated one.  Then f(x, y) = x_0 A y + x_1 B y satisfies
    |f|^2 = |x|^2 |y|^2 exactly because <A y, B y> = 0 for every y.
    """
    if l < 3 or l % 2 == 0:
        raise ValueError("restricted multiplication needs odd l >= 3")
    t = np.zeros((l + 1, 2, l), dtype=np.int64)
    for i in range(l):
        t[i, 0, i] = 1  # A
    for m in range((l - 1) // 2):  # B: complex structure on the head
        t[2 * m, 1, 2 * m + 1] = -1
        t[2 * m + 1, 1, 2 * m] = 1
    t[l, 1, l - 1] = 1  # B: last input coordinate moves to the new slot
    return OrthogonalMultiplication(f"restricted(2x{l}->{l + 1})", t)


_BUILDERS = {
    "complex": complex_multiplication,
    "quaternion": quaternion_multiplication,
    "octonion": octonion_multiplication,
    "restricted3": lambda: restricted_multiplication(3),
    "restricted5": lambda: restricted_multiplication(5),
    "restricted9": lambda: restricted_multiplication(9),
}


def multiplication_by_name(name: str) -> OrthogonalMultiplication:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown multiplication {name!r}; choose from {sorted(_BUILDERS)}"
        ) from None


def orthmul_eval(m: OrthogonalMultiplication, x, y) -> np.ndarray:
    """f(x, y); bilinear in each slot and norm-multiplicative."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != m.k or y.shape[-1] != m.l:
        raise ValueError(
            f"dimension mismatch: {m.kind} takes R^{m.k} x R^{m.l}, "
            f"got {x.shape[-1]} and {y.shape[-1]}"
        )
    return np.einsum("kij,...i,...j->...k", m.tensor, x, y)


def eigenvalue_check(m: OrthogonalMultiplication) -> int:
    """The eigenvalue 2(k + l) of the Hopf construction on m restricted to the unit sphere.

    Each component of F_f is a homogeneous quadratic on the ambient R^(k+l),
    harmonic exactly when its constant Hessian has trace zero.  A bilinear
    component's Hessian is the off-diagonal block pair (2T_m, 2T_m^T): its
    diagonal blocks are zero, so its trace is zero for every tensor and needs
    no check.  The final component's Hessian is diag(2,...,2,-2,...,-2), whose
    trace 2(k - l) vanishes exactly when k = l, the one condition checked here.
    A harmonic quadratic restricts to an eigenfunction of eigenvalue 2(k + l).
    """
    if m.k != m.l:
        raise ValueError(
            f"eigenvalue_check needs k = l, got {m.k} x {m.l} ({m.kind})"
        )
    return 2 * (m.k + m.l)


def alpha_hopf_eval(profile: Profile, f_map, t, x, y) -> np.ndarray:
    """Join map value (sin(alpha(t)) * f(x,y), cos(alpha(t))) at angle t.

    alpha is interpolated from the profile; x and y are expected on their unit
    spheres, in which case the output lies on the unit sphere exactly up to
    rounding.  A batch of N points takes t of shape (N,), x of shape (N, k)
    and y of shape (N, l), and returns shape (N, n_out + 1); ``f_map`` must
    then accept batches, as :class:`OrthogonalMultiplication` does.  Raises
    :class:`DomainError` for t outside the profile's grid.
    """
    alpha = profile.interpolate(t)[..., None]
    v = np.asarray(f_map(x, y), dtype=float)
    return np.concatenate([np.sin(alpha) * v, np.cos(alpha)], axis=-1)
