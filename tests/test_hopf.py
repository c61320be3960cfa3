import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbvp.core import DomainError, Grid, Profile
from hopfbvp.hopf import (
    alpha_hopf_eval,
    complex_multiplication,
    eigenvalue_check,
    multiplication_by_name,
    octonion_multiplication,
    orthmul_eval,
    quaternion_multiplication,
    restricted_multiplication,
)

ALL_KINDS = [
    "complex",
    "quaternion",
    "octonion",
    "restricted3",
    "restricted5",
    "restricted9",
]


class TestOrthogonalMultiplications:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_norm_multiplicative(self, kind):
        m = multiplication_by_name(kind)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1000, m.k))
        y = rng.normal(size=(1000, m.l))
        out = orthmul_eval(m, x, y)
        err = np.abs(
            np.linalg.norm(out, axis=1)
            - np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        )
        assert np.max(err) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_pair_has_the_bits_of_the_unbatched_sum(self, kind):
        # a single (x, y) takes the batched contraction: its bits are those of
        # the unbatched "kij,i,j->k" and of the pair's row in a batch
        m = multiplication_by_name(kind)
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(200, m.k)), rng.normal(size=(200, m.l))
        batch = orthmul_eval(m, x, y)
        for k in range(200):
            one = orthmul_eval(m, x[k], y[k])
            assert one.shape == (m.n_out,)
            assert one.tobytes() == np.einsum("kij,i,j->k", m.tensor, x[k], y[k]).tobytes()
            assert one.tobytes() == batch[k].tobytes()

    def test_complex_unit_times_i(self):
        m = complex_multiplication()
        out = orthmul_eval(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0])

    def test_dimension_mismatch(self):
        m = quaternion_multiplication()
        with pytest.raises(ValueError):
            orthmul_eval(m, np.ones(3), np.ones(4))

    @given(
        a=st.floats(min_value=-3, max_value=3),
        b=st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=50)
    def test_bilinearity(self, a, b):
        m = octonion_multiplication()
        rng = np.random.default_rng(1)
        x, xp, y = rng.normal(size=(3, 8))
        lhs = orthmul_eval(m, a * x + b * xp, y)
        rhs = a * orthmul_eval(m, x, y) + b * orthmul_eval(m, xp, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + abs(a) + abs(b))

    def test_octonion_basis_table(self):
        m = octonion_multiplication()
        e = np.eye(8)
        for i in range(8):
            for j in range(8):
                p = orthmul_eval(m, e[i], e[j])
                nz = np.nonzero(p)[0]
                assert nz.size == 1
                assert abs(p[nz[0]]) == 1.0
        # e0 is a two-sided unit
        for i in range(8):
            assert np.allclose(orthmul_eval(m, e[0], e[i]), e[i])
            assert np.allclose(orthmul_eval(m, e[i], e[0]), e[i])

    def test_octonion_alternativity(self):
        m = octonion_multiplication()
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y = rng.normal(size=(2, 8))
            xx_y = orthmul_eval(m, orthmul_eval(m, x, x), y)
            x_xy = orthmul_eval(m, x, orthmul_eval(m, x, y))
            assert np.max(np.abs(xx_y - x_xy)) <= 1e-12 * (
                1 + np.linalg.norm(x) ** 2 * np.linalg.norm(y)
            )

    def test_quaternion_associativity_exact_on_basis(self):
        m = quaternion_multiplication()
        e = np.eye(4)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    ab_c = orthmul_eval(m, orthmul_eval(m, e[i], e[j]), e[k])
                    a_bc = orthmul_eval(m, e[i], orthmul_eval(m, e[j], e[k]))
                    assert np.array_equal(ab_c, a_bc)

    @pytest.mark.parametrize("kind, shape, digest", [
        ("complex", (2, 2, 2),
         "832155e29abac5177a1ffc95b8fca0b84d3ea07b997fc05e9e5d4de784f9accc"),
        ("quaternion", (4, 4, 4),
         "927888323fe75b93a11fac9a0d1e36468a9cf8c5d4fca9f48c3ab73ae964f559"),
        ("octonion", (8, 8, 8),
         "d46af4eb375e343ec57f44af64277d610b9d9f73fdbca9ca735b778e328cac20"),
    ])
    def test_division_algebra_tables_are_pinned(self, kind, shape, digest):
        # every entry and sign convention of the structure constants, as an
        # int64 little-endian digest
        t = multiplication_by_name(kind).tensor
        assert t.shape == shape and t.dtype == np.int64
        assert hashlib.sha256(t.astype("<i8").tobytes()).hexdigest() == digest

    def test_restricted_dimensions(self):
        for l, n_out in [(3, 4), (5, 6), (9, 10)]:
            m = restricted_multiplication(l)
            assert (m.k, m.l, m.n_out) == (2, l, n_out)
        with pytest.raises(ValueError):
            restricted_multiplication(4)


class TestEigenvalues:
    def test_classical_values(self):
        assert eigenvalue_check(complex_multiplication()) == 8
        assert eigenvalue_check(quaternion_multiplication()) == 16
        assert eigenvalue_check(octonion_multiplication()) == 32

    def test_hessian_traces_exactly_zero(self):
        # the trace computation is integer arithmetic on the tensors
        m = octonion_multiplication()
        for comp in range(m.n_out):
            h = np.zeros((16, 16), dtype=np.int64)
            h[:8, 8:] = 2 * m.tensor[comp]
            h[8:, :8] = 2 * m.tensor[comp].T
            assert int(np.trace(h)) == 0

    def test_requires_square(self):
        with pytest.raises(ValueError):
            eigenvalue_check(restricted_multiplication(3))


class TestAlphaHopfEval:
    def _straight_profile(self):
        t = np.linspace(1e-4, math.pi / 2 - 1e-4, 2001)
        return Profile(Grid(t), 2.0 * t)

    def test_output_norm(self):
        prof = self._straight_profile()
        rng = np.random.default_rng(0)
        m = complex_multiplication()
        t = rng.uniform(prof.t[0], prof.t[-1], size=2000)
        x = rng.normal(size=(2000, 2))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.normal(size=(2000, 2))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        loop = np.array([alpha_hopf_eval(prof, m, *point) for point in zip(t, x, y)])
        batch = alpha_hopf_eval(prof, m, t, x, y)
        assert batch.shape == loop.shape == (2000, 3)
        assert np.max(np.abs(batch - loop)) <= 1e-15
        for u in (loop, batch):
            assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-10

    def test_equator_value(self):
        prof = self._straight_profile()
        m = complex_multiplication()
        u = alpha_hopf_eval(
            prof, m, math.pi / 4, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        assert np.allclose(u[:2], [0.0, 1.0], atol=1e-9)
        assert abs(u[2]) < 1e-9

    def test_poles(self):
        prof = self._straight_profile()
        m = complex_multiplication()
        x = np.array([1.0, 0.0])
        u0 = alpha_hopf_eval(prof, m, prof.t[0], x, x)
        u1 = alpha_hopf_eval(prof, m, prof.t[-1], x, x)
        north = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(u0 - north) <= 1e-3
        assert np.linalg.norm(u1 + north) <= 1e-3

    def test_outside_domain(self):
        prof = self._straight_profile()
        m = complex_multiplication()
        x = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            alpha_hopf_eval(prof, m, math.pi / 2, x, x)
