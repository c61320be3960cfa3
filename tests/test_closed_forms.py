import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hopfbvp import ode
from hopfbvp.closed_forms import (
    blowup_constant,
    blowup_constant_exact,
    identity_solution,
    phi_limit,
    psi_comparison,
    psi_derivative_identity,
    theta_threshold,
)
from hopfbvp.core import HALF_PI, DomainError, HopfParams, OutsideProvenRegimeWarning
from hopfbvp.oracles import run_oracle_suite


class TestPhiLimit:
    def test_pinned_at_scale(self):
        assert phi_limit(2.0, 2.0, 1.7) == pytest.approx(HALF_PI, abs=1e-15)

    def test_boundary_limits(self):
        assert phi_limit(1e-12, 1.0, 1.0) < 1e-10
        assert math.pi - phi_limit(1e12, 1.0, 1.0) < 1e-10

    def test_frozen_value(self):
        # a=2, s=1, t=3: arccos((1-9)/(1+9)) = arccos(-0.8)
        assert phi_limit(3.0, 1.0, 1.0) == pytest.approx(2.498091544796509, abs=1e-14)

    def test_matches_arccos_form(self):
        for t in (0.3, 1.0, 2.5):
            for lam in (1.0, 2.25):
                a = 2 * math.sqrt(lam)
                direct = math.acos((1 - t**a) / (1 + t**a))
                assert phi_limit(t, 1.0, lam) == pytest.approx(direct, abs=1e-13)

    @given(
        t=st.floats(min_value=1e-3, max_value=1e3),
        s=st.floats(min_value=1e-2, max_value=1e2),
        lam=st.floats(min_value=0.25, max_value=9.0),
    )
    @settings(max_examples=200)
    def test_scaling_identity(self, t, s, lam):
        assert phi_limit(t, s, lam) == pytest.approx(
            phi_limit(t / s, 1.0, lam), rel=1e-12, abs=1e-13
        )

    @given(
        t=st.floats(min_value=0.01, max_value=50.0),
        dt=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_strictly_increasing(self, t, dt):
        assert phi_limit(t + dt, 1.0, 1.5) > phi_limit(t, 1.0, 1.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_limit(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            phi_limit(1.0, 0.0, 1.0)


class TestPsiComparison:
    def test_pinned_at_scale(self):
        assert psi_comparison(0.4, 0.4, 2.25) == pytest.approx(HALF_PI, abs=1e-15)

    def test_frozen_value(self):
        # a=2, s=pi/4: 2 arctan(tan(pi/3)) = 2pi/3
        assert psi_comparison(math.pi / 3, math.pi / 4, 1.0) == pytest.approx(
            2.0943951023931953, abs=1e-14
        )

    def test_boundary_limits(self):
        assert psi_comparison(1e-9, 0.5, 1.0) < 1e-8
        assert math.pi - psi_comparison(HALF_PI - 1e-9, 0.5, 1.0) < 1e-8

    def test_mirror_identity(self):
        # pi - psi_s(pi/2 - t) = psi_{pi/2 - s}(t), exactly
        for lam in (1.0, 2.25):
            for s in (0.2, 0.7, 1.3):
                t = np.linspace(0.05, HALF_PI - 0.05, 300)
                lhs = math.pi - psi_comparison(HALF_PI - t, s, lam)
                rhs = psi_comparison(t, HALF_PI - s, lam)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(
        t=st.floats(min_value=0.05, max_value=HALF_PI - 0.05),
        dt=st.floats(min_value=1e-3, max_value=0.4),
    )
    @settings(max_examples=100)
    def test_strictly_increasing(self, t, dt):
        t2 = min(t + dt, HALF_PI - 1e-3)
        assert psi_comparison(t2, 0.6, 1.0) > psi_comparison(t, 0.6, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi_comparison(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            psi_comparison(0.5, HALF_PI, 1.0)


class TestSlopeIdentity:
    def test_at_own_scale(self):
        lhs, rhs = psi_derivative_identity(math.pi / 4, math.pi / 4, 1.0)
        assert rhs == pytest.approx(2.0, abs=1e-13)
        assert lhs == pytest.approx(2.0, abs=1e-8)

    def test_analytic_rhs_value(self):
        # psi(pi/3; s=pi/4, a=2) = 2pi/3: rhs = sin(2pi/3)/(sin cos)(pi/3) = 2
        _, rhs = psi_derivative_identity(math.pi / 3, math.pi / 4, 1.0)
        assert rhs == pytest.approx(2.0, abs=1e-13)

    def test_refinement(self):
        err_coarse = abs(np.subtract(*psi_derivative_identity(0.9, 0.5, 2.25, 4e-3)))
        err_fine = abs(np.subtract(*psi_derivative_identity(0.9, 0.5, 2.25, 1e-3)))
        assert err_fine < err_coarse
        assert err_fine < 1e-8


class TestJunctionAsymptotics:
    """Cosines of the limit and comparison profiles at t = R*s (lambda = 1, a = 2)."""

    R, LAM, A = 10.0, 1.0, 2.0

    def psi_err(self, s, d):
        # cos(psi_{d*s}(R*s)) equals -1 + 2/(1 + (R/d)^a) up to O(R^2 s^2)
        limit = -1.0 + 2.0 / (1.0 + (self.R / d) ** self.A)
        return abs(math.cos(psi_comparison(self.R * s, d * s, self.LAM)) - limit)

    def test_psi_at_own_scale(self):
        assert abs(math.cos(psi_comparison(self.R * 0.01, 10.0 * 0.01, self.LAM))) < 1e-12

    def test_frozen_limit_value(self):
        # cos(phi(R)) = -1 + 2/(1 + R^a)
        cos_phi = math.cos(phi_limit(self.R, 1.0, self.LAM))
        assert cos_phi == pytest.approx(-0.9801980198019802, abs=1e-15)

    def test_psi_error_quarters_when_s_halves(self):
        ratio = self.psi_err(0.005, 3.0) / self.psi_err(0.01, 3.0)
        assert abs(ratio - 0.25) <= 0.05


class TestThetaThreshold:
    def test_frozen_value(self):
        # lam=1 so sqrt(lam) = lam: arccos(-1/3)
        p = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
        assert theta_threshold(p) == pytest.approx(1.9106332362490186, abs=1e-14)

    def test_boundary_case_full_angle(self):
        # lam=1, mu = lam*q: ratio 1 -> theta = pi
        p = HopfParams(p=1, q=3, lam=1.0, mu=3.0)
        assert theta_threshold(p) == pytest.approx(math.pi, abs=1e-12)

    def test_q1_gives_half_pi(self):
        p = HopfParams(p=1, q=1, lam=1.0, mu=5.0)
        assert theta_threshold(p) == pytest.approx(HALF_PI, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta_threshold(HopfParams(p=1, q=2, lam=2.0, mu=1.5))
        with pytest.raises(DomainError):
            theta_threshold(HopfParams(p=1, q=3, lam=1.0, mu=2.5))

    def test_monotone_in_mu_and_lambda(self):
        # decreasing in mu, increasing in lambda (fixed q, lam >= 1)
        mus = [3.5, 4.0, 5.0, 7.0]
        thetas = [theta_threshold(HopfParams(p=1, q=2, lam=1.0, mu=m)) for m in mus]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        lams = [1.0, 1.2, 1.5, 1.8]
        thetas = [theta_threshold(HopfParams(p=1, q=2, lam=l, mu=8.0)) for l in lams]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))


class TestBlowupConstant:
    def test_lam4_value(self):
        # closed form: 8 pi / (16 sin(pi/2)) = pi/2
        assert blowup_constant_exact(4.0) == pytest.approx(HALF_PI, abs=1e-15)
        assert blowup_constant(4.0) == pytest.approx(HALF_PI, abs=1e-8)

    def test_lam_2p25_value(self):
        # a=3: 16 pi / (9 sqrt(3))
        assert blowup_constant_exact(2.25) == pytest.approx(
            3.2245322030830543, abs=1e-14
        )
        assert blowup_constant(2.25) == pytest.approx(3.2245322030830543, abs=1e-8)

    def test_quadrature_vs_direct_integral(self):
        # independent route: raw adaptive quadrature of the integrand itself
        a = 3.0
        direct = quad(
            lambda t: 4 * t ** (a + 1) / (1 + t**a) ** 2, 0, np.inf, limit=200
        )[0]
        assert blowup_constant(2.25) == pytest.approx(direct, abs=1e-7)

    @given(lam=st.floats(min_value=1.001, max_value=100.0))
    @settings(max_examples=300)
    def test_rule_matches_closed_form(self, lam):
        # the tail's substitution keeps the rule accurate as lambda -> 1+
        exact = blowup_constant_exact(lam)
        assert abs(blowup_constant(lam) - exact) <= 1e-11 * exact

    def test_divergent_at_lam1(self):
        assert blowup_constant(1.0) == math.inf

    def test_warns_below_one(self):
        with pytest.warns(OutsideProvenRegimeWarning):
            out = blowup_constant(0.5)
        assert out == math.inf


class TestIdentitySolution:
    def test_values(self):
        assert identity_solution(math.pi / 4) == pytest.approx(HALF_PI, abs=1e-15)
        assert identity_solution(0.0) == 0.0
        assert identity_solution(HALF_PI) == pytest.approx(math.pi, abs=1e-15)


class TestOracleSuite:
    def test_values_keep_their_bits(self):
        # only limit_profile_scaling is exact by construction: phi_limit(t, s) and
        # phi_limit(t / s, 1) apply the same operations to the same values.  The others
        # are rounding, and numpy's SIMD kernels, chosen per CPU, move their last bits
        # (without AVX-512, limit_profile_residual goes 0x1.a4eecp-28 -> 0x1.00432p-27
        # and blowup_constant_lam2p25 0 -> 0x1p-51): they are bound by verify's tolerance
        values = {row.name: (row.value, row.tol) for row in run_oracle_suite()}
        assert len(values) == 8 and values["limit_profile_scaling"][0] == 0.0
        assert all(value <= tol for value, tol in values.values())

    def test_stencil_weights_built_once_per_grid(self, monkeypatch):
        # the limit profiles share the log grid, the comparison profiles the log-tan grid
        grids, build = [], ode.fd_weights

        def counted(nodes, x0, max_order):
            grids.append(nodes.shape)
            return build(nodes, x0, max_order)

        monkeypatch.setattr(ode, "fd_weights", counted)
        run_oracle_suite()
        assert grids == [(1996, 5), (1996, 5)]
