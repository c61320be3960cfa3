import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import simpson
from scipy.optimize import brentq as scipy_brentq

from hopfbvp import analysis, core, dop853, ode, shooting, variational
from hopfbvp.closed_forms import phi_limit, psi_comparison
from hopfbvp.core import (
    HALF_PI,
    ConvergenceError,
    DomainError,
    Grid,
    HopfParams,
    Profile,
    brentq,
    fd3_first_weights,
    fd3_second_weights,
    fd_weights,
    graded_grid,
    indicial_exponents,
    nodal_first_derivative,
    simpson_weights,
)
from hopfbvp.ode import (
    H_FLOOR,
    coefficients,
    read_profile_csv,
    residual,
    stencil_residual,
    weight_f,
    write_profile_csv,
)

from conftest import uniform_profile


def limit_equation(t, y, lam):
    """Residual of the small-t limit equation phi'' + phi'/t - lam/t^2 sin cos."""
    return stencil_residual(t, y, 1.0 / t, lam / t**2)


def comparison_equation(t, y, lam):
    """Residual of psi'' + (cot - tan) psi' - lam sin cos / (sin t cos t)^2."""
    drift = np.cos(t) / np.sin(t) - np.tan(t)
    return stencil_residual(t, y, drift, lam / (np.sin(t) * np.cos(t)) ** 2)


class TestParams:
    def test_derived_constants(self):
        p = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
        assert p.r0 == pytest.approx(1.0, abs=1e-15)
        assert p.r1 == pytest.approx(1.5615528128088303, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            HopfParams(p=0, q=1, lam=1.0, mu=1.0)
        with pytest.raises(ValueError):
            HopfParams(p=1, q=1, lam=-1.0, mu=1.0)
        with pytest.raises(ValueError):
            HopfParams(p=1, q=1, lam=1.0, mu=0.0)

    @pytest.mark.parametrize("lam, mu", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                         (1.0, math.nan)])
    def test_nonfinite_eigenvalue_rejected(self, lam, mu):
        with pytest.raises(ValueError, match="lambda, mu must be finite and > 0"):
            HopfParams(p=1, q=2, lam=lam, mu=mu)

    def test_outside_proven_regime_flag(self):
        assert HopfParams(p=1, q=2, lam=0.5, mu=4.0).outside_proven_regime
        assert not HopfParams(p=1, q=2, lam=1.0, mu=4.0).outside_proven_regime


class TestIndicialExponents:
    def test_p1_lam1(self):
        assert indicial_exponents(1, 1, 1.0, 1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_p1_lam4(self):
        assert indicial_exponents(1, 1, 4.0, 1.0)[0] == pytest.approx(2.0, abs=1e-15)

    def test_q2_mu4(self):
        r1 = indicial_exponents(1, 2, 1.0, 4.0)[1]
        assert r1 == pytest.approx(1.5615528128088303, abs=1e-14)

    @given(lam=st.floats(min_value=0.1, max_value=50.0))
    def test_r0_equals_half_a_for_p1(self, lam):
        r0, _ = indicial_exponents(1, 3, lam, 1.0)
        assert r0 == pytest.approx(math.sqrt(lam), rel=1e-13)


class TestCoeffQ:
    """Q, the potential coefficient of ``ode.coefficients``."""

    def test_quarter_pi(self):
        p = HopfParams(p=1, q=1, lam=1.0, mu=4.0)
        assert coefficients(math.pi / 4.0, p)[1] == pytest.approx(10.0, rel=1e-13)

    def test_sixth_pi(self):
        p = HopfParams(p=1, q=1, lam=1.0, mu=1.0)
        assert coefficients(math.pi / 6.0, p)[1] == pytest.approx(16.0 / 3.0, rel=1e-13)

    def test_endpoint_asymptotic(self):
        p = HopfParams(p=1, q=1, lam=1.0, mu=1.0)
        assert coefficients(1e-6, p)[1] == pytest.approx(1e12, rel=1e-4)

    def test_domain_errors(self):
        p = HopfParams(p=1, q=1, lam=1.0, mu=1.0)
        for t in (0.0, HALF_PI, -0.1, 2.0):
            with pytest.raises(DomainError):
                coefficients(t, p)

    @given(
        t=st.floats(min_value=0.01, max_value=HALF_PI - 0.01),
        lam=st.floats(min_value=0.1, max_value=10.0),
        mu=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_reflection_symmetry(self, t, lam, mu):
        # Q and the drift of p = q = 1 map to Q and minus the drift under
        # t -> pi/2 - t with lambda and mu swapped
        da, a = coefficients(t, HopfParams(p=1, q=1, lam=lam, mu=mu))
        db, b = coefficients(HALF_PI - t, HopfParams(p=1, q=1, lam=mu, mu=lam))
        assert a == pytest.approx(b, rel=1e-10)
        assert da == pytest.approx(-db, rel=1e-10, abs=1e-12)


class TestCoefficients:
    """The drift and the two together."""

    def test_drift_values(self):
        # p cot t - q tan t: 1 - 2 at pi/4, and sqrt(3) - 3/sqrt(3) = 0 at pi/6 for q = 3
        assert coefficients(math.pi / 4.0, HopfParams(1, 2, 1.0, 1.0))[0] == (
            pytest.approx(-1.0, rel=1e-13)
        )
        assert abs(coefficients(math.pi / 6.0, HopfParams(1, 3, 1.0, 1.0))[0]) < 1e-14

    def test_scalar_and_array_shapes(self):
        p = HopfParams(p=1, q=2, lam=1.0, mu=4.0)
        drift, q = coefficients(0.5, p)
        assert type(drift) is float and type(q) is float
        t = np.array([[0.2, 0.5], [0.9, 1.3]])
        drift, q = coefficients(t, p)
        assert drift.shape == q.shape == t.shape
        assert drift[0, 1] == coefficients(0.5, p)[0] and q[0, 1] == coefficients(0.5, p)[1]

    @pytest.mark.parametrize("p, q, lam, mu", [(1, 2, 1.0, 4.0), (2, 3, 1.3, 2.7), (3, 1, 0.5, 9.0)])
    def test_against_long_double(self, p, q, lam, mu):
        # one tan pass against sin and cos in long double (~1e-19) at the same float
        # points, 1e-6 to pi/4 from either end.  With T = tan t within 1 eps relative
        # (measured: 0.84 for math.tan, 0.51 for np.tan) and each operation rounding
        # once (eps/2): cot t = cos^2/(T cos^2) loses only the rounding of T cos^2 and
        # of the division, since cos^2's own error cancels, so it is within eps + eps
        # and so is tan t; the products by p and q and the difference add eps/2 each
        # on the scale p|cot t| + q|tan t|: the drift within 3 eps of that scale.
        # Q = lam/T^2 + (lam + mu) + mu T^2 moves by at most 2 dT/T relative, and its
        # seven roundings (T^2, + 1, 1/, T^2 cos^2, the two quotients, the sum) add at
        # most eps/2 each: Q within 2 eps + 3.5 eps = 5.5 eps relative.
        params = HopfParams(p, q, lam, mu)
        rng = np.random.default_rng(11)
        logs = rng.uniform(math.log(1e-6), math.log(math.pi / 4), (2, 20000))
        t = np.concatenate([np.exp(logs[0]), HALF_PI - np.exp(logs[1])])
        drift, potential = coefficients(t, params)
        tl = t.astype(np.longdouble)
        sn, cs = np.sin(tl), np.cos(tl)
        eps = np.finfo(float).eps
        scale = p * cs / sn + q * sn / cs
        assert float(np.max(np.abs(drift - (p * cs / sn - q * sn / cs)) / scale)) <= 3.0 * eps
        ref = lam / (sn * sn) + mu / (cs * cs)
        assert float(np.max(np.abs(potential - ref) / ref)) <= 5.5 * eps


class TestNoSinOrCos:
    """The solver side forms every sine and cosine from ``tan``."""

    @staticmethod
    def calls(tree: ast.AST) -> set:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        return names

    @pytest.mark.parametrize("obj", [ode, dop853, shooting, variational, analysis._split_Is2],
                             ids=["ode", "dop853", "shooting", "variational", "_split_Is2"])
    def test_calls_no_sin_or_cos(self, obj):
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        assert not self.calls(tree) & {"sin", "cos"}

    def test_dense_state_replays_the_compiled_accel(self):
        # dop853 takes nothing from ode: the replay calls the stepper's own alpha''
        tree = ast.parse(inspect.getsource(dop853))
        imported = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert "ode" not in imported
        dense = ast.parse(textwrap.dedent(inspect.getsource(dop853.dense_state)))
        called = self.calls(dense)
        assert {"_compiled", "accel"} <= called
        own = {name for name, f in vars(ode).items()
               if inspect.isfunction(f) and f.__module__ == ode.__name__}
        assert "coefficients" in own and not called & own


class TestWeightF:
    def test_values(self):
        assert weight_f(math.pi / 4.0, HopfParams(p=1, q=2, lam=1, mu=1)) == (
            pytest.approx(0.3535533905932738, rel=1e-13)
        )
        assert weight_f(math.pi / 3.0, HopfParams(p=1, q=1, lam=1, mu=1)) == (
            pytest.approx(0.4330127018922193, rel=1e-13)
        )

    def test_endpoint_zeros(self):
        p = HopfParams(p=1, q=2, lam=1.0, mu=1.0)
        assert weight_f(0.0, p) == 0.0
        assert abs(weight_f(HALF_PI, p)) < 1e-30


class TestResidual:
    def test_straight_solution_uniform_grid(self, params_flat):
        prof = uniform_profile(lambda t: 2.0 * t, 1e-3, HALF_PI - 1e-3, 2000)
        assert np.nanmax(np.abs(residual(prof, params_flat))) < 1e-8

    def test_constant_half_pi(self, params_main):
        prof = uniform_profile(lambda t: np.full_like(t, HALF_PI), 0.01, 1.5, 501)
        assert np.nanmax(np.abs(residual(prof, params_main))) < 1e-10

    def test_constant_pi(self, params_main):
        prof = uniform_profile(lambda t: np.full_like(t, math.pi), 0.01, 1.5, 501)
        assert np.nanmax(np.abs(residual(prof, params_main))) < 1e-10

    def test_domain_error(self, params_main):
        t = np.linspace(0.5, 2.0, 50)  # exceeds pi/2: the grid rejects it first
        with pytest.raises(DomainError):
            residual(Profile(Grid(t), 2 * t), params_main)

    def test_junction_kink_masked(self, params_flat):
        t = np.linspace(0.2, 1.2, 101)
        prof = Profile(Grid(t, junction_index=50), 2 * t, d_left=1.0, d_right=3.0)
        res = residual(prof, params_flat)
        assert np.isnan(res[50])
        prof2 = Profile(Grid(t, junction_index=50), 2 * t, d_left=2.0, d_right=2.0)
        assert not np.isnan(residual(prof2, params_flat)[50])

    def test_bit_identical_to_three_point_formula(self, params_main):
        # reference: the 3-point formula with closed-form weights, terms summed
        # left to right, then the boundary, kinked-junction and H_FLOOR masks
        t = graded_grid(0.01, 1.5, 3000)
        y = t + 0.3 * np.sin(4.0 * t)
        prof = Profile(Grid(t, junction_index=1400), y, d_left=1.0, d_right=3.0)
        tm, t0, tp = t[:-2], t[1:-1], t[2:]
        w0, w1, w2 = fd3_first_weights(tm, t0, tp, t0)
        d1 = w0 * y[:-2] + w1 * y[1:-1] + w2 * y[2:]
        v0, v1, v2 = fd3_second_weights(tm, t0, tp)
        d2 = v0 * y[:-2] + v1 * y[1:-1] + v2 * y[2:]
        # the coefficients from one tan of t, sin y cos y from one tan of y
        p, q, lam, mu = params_main.p, params_main.q, params_main.lam, params_main.mu
        tt = np.tan(t0)
        cos2 = 1.0 / (tt * tt + 1.0)
        sin2, sc = tt * tt * cos2, tt * cos2
        u = np.tan(y[1:-1])
        ref = np.full_like(y, np.nan)
        ref[1:-1] = (
            d2
            + (p * (cos2 / sc) - q * (sc / cos2)) * d1
            - (lam / sin2 + mu / cos2) * (u / (1.0 + u * u))
        )
        ref[1400] = np.nan
        h = np.diff(t)
        ref[1:-1][np.minimum(h[:-1], h[1:]) < H_FLOOR] = np.nan
        got = residual(prof, params_main)
        assert np.isnan(got).sum() > 3  # the H_FLOOR mask is exercised
        assert got.tobytes() == ref.tobytes()

    def test_order_on_limit_profile(self):
        # genuine h^2 content: the limit profile under the limit operator
        errs = []
        for n in (500, 1000, 2000):
            t = np.geomspace(0.2, 5.0, n)
            y = phi_limit(t, 1.0, 2.25)
            errs.append(np.nanmax(np.abs(limit_equation(t, y, 2.25))))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 1.9 and order2 > 1.9

    def test_order_on_comparison_profile(self):
        errs = []
        for n in (500, 1000, 2000):
            t = np.linspace(0.3, 1.2, n)
            y = psi_comparison(t, 0.7, 1.0)
            errs.append(np.nanmax(np.abs(comparison_equation(t, y, 1.0))))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9


class TestStencilResidual:
    def test_width5_exact_on_quartic(self):
        # zero coefficients leave y'', which 5-point weights reproduce exactly
        # for quartics on any grid, up to rounding
        gaps = np.random.default_rng(3).uniform(0.02, 0.05, 59)
        t = 0.1 + np.concatenate([[0.0], np.cumsum(gaps)])
        y = t**4 - 2.0 * t**3 + 0.5 * t
        res = stencil_residual(t, y, 0.0, 0.0, width=5)
        assert np.all(np.isnan(res[:2])) and np.all(np.isnan(res[-2:]))
        exact = 12.0 * t**2 - 12.0 * t
        assert np.max(np.abs(res[2:-2] - exact[2:-2])) < 1e-9

    def test_width3_default_and_ends(self):
        t = np.linspace(0.1, 1.0, 20)
        res = stencil_residual(t, t**2, 1.0, 0.0)
        assert np.isnan(res[0]) and np.isnan(res[-1])
        assert np.allclose(res[1:-1], 2.0 + 2.0 * t[1:-1], rtol=0, atol=1e-10)

    @given(
        width=st.sampled_from([3, 5]),
        rows=st.integers(1, 5),
        n=st.integers(5, 60),
        drift_kind=st.sampled_from(["scalar", "shared", "per_row"]),
        potential_kind=st.sampled_from(["scalar", "shared", "per_row"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_stack_has_the_bits_of_per_profile_calls(
        self, width, rows, n, drift_kind, potential_kind, seed
    ):
        # a stack on one grid shares one weight build; each row keeps the
        # bytes of its own call, NaN ends included, and a 5-point row those of
        # the sum over a build of orders 0 to 2
        rng = np.random.default_rng(seed)
        t = 0.1 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.3, n - 1))))
        y = rng.uniform(-4.0, 4.0, (rows, n))

        def coefficient(kind):
            return {"scalar": rng.normal(), "shared": rng.normal(size=n),
                    "per_row": rng.normal(size=(rows, n))}[kind]

        drift, potential = coefficient(drift_kind), coefficient(potential_kind)
        stack = stencil_residual(t, y, drift, potential, width=width)
        assert stack.shape == y.shape
        for k in range(rows):
            a = drift[k] if drift_kind == "per_row" else drift
            b = potential[k] if potential_kind == "per_row" else potential
            one = stencil_residual(t, y[k], a, b, width=width)
            assert stack[k].tobytes() == one.tobytes()
            if width == 5:
                w = fd_weights(sliding_window_view(t, 5), t[2:-2], 2)
                d = (w * sliding_window_view(y[k], 5)[:, None, :]).sum(axis=-1)
                a, b = np.broadcast_to(a, t.shape)[2:-2], np.broadcast_to(b, t.shape)[2:-2]
                u = np.tan(y[k, 2:-2])  # sin y cos y = u/(1 + u^2)
                ref = d[:, 2] + a * d[:, 1] - b * (u / (1.0 + u * u))
                assert one[2:-2].tobytes() == ref.tobytes()

    def test_width_validation(self):
        t = np.linspace(0.1, 1.0, 4)
        with pytest.raises(ValueError):
            stencil_residual(t, t, 0.0, 0.0, width=4)
        with pytest.raises(ValueError):
            stencil_residual(t, t, 0.0, 0.0, width=5)  # fewer nodes than width


class TestNodalFirstDerivative:
    @given(n=st.integers(3, 400), spread=st.floats(1.0, 20.0), seed=st.integers(0, 9))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_bits_of_the_three_stencils(self, n, spread, seed):
        # reference: centred stencils inside, the end stencils one-sided,
        # each with its own closed-form weights; the grid's gaps are drawn
        # from [1, spread], so neighbouring gaps differ by up to that ratio
        rng = np.random.default_rng(seed)
        t = 0.01 + np.concatenate(([0.0], np.cumsum(rng.uniform(1.0, spread, n - 1)))) / n
        y = rng.normal(size=n)
        ref = np.empty(n)
        w0, w1, w2 = fd3_first_weights(t[:-2], t[1:-1], t[2:], t[1:-1])
        ref[1:-1] = w0 * y[:-2] + w1 * y[1:-1] + w2 * y[2:]
        w0, w1, w2 = fd3_first_weights(t[0], t[1], t[2], t[0])
        ref[0] = w0 * y[0] + w1 * y[1] + w2 * y[2]
        w0, w1, w2 = fd3_first_weights(t[-3], t[-2], t[-1], t[-1])
        ref[-1] = w0 * y[-3] + w1 * y[-2] + w2 * y[-1]
        assert nodal_first_derivative(t, y).tobytes() == ref.tobytes()

    def test_exact_on_quadratics_and_needs_three_nodes(self):
        t = graded_grid(0.1, 1.2, 9)
        assert np.allclose(nodal_first_derivative(t, 3.0 * t**2 - t), 6.0 * t - 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            nodal_first_derivative(t[:2], t[:2])


class TestLimitResidual:
    def test_limit_profile_is_solution(self):
        t = np.geomspace(0.01, 100.0, 2000)
        y = phi_limit(t, 1.0, 1.0)
        assert np.nanmax(np.abs(limit_equation(t, y, 1.0))) < 1e-4

    def test_scaled_member(self):
        t = np.geomspace(0.1, 30.0, 2000)
        y = phi_limit(t, 3.0, 1.0)
        assert np.nanmax(np.abs(limit_equation(t, y, 1.0))) < 1e-5

    def test_constant_half_pi(self):
        t = np.geomspace(0.1, 10.0, 301)
        y = np.full_like(t, HALF_PI)
        assert np.nanmax(np.abs(limit_equation(t, y, 1.0))) < 1e-8

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Grid(np.array([-1.0, 0.5, 1.0]))


class TestRescaledResidual:
    def test_change_of_variables(self, params_flat):
        # gamma(t) = alpha(s t) with alpha = 2t exact: residual of the
        # stretched equation vanishes up to stencil rounding
        s = 0.3
        t = np.linspace(0.05, 3.0, 1500)
        drift, q = coefficients(s * t, params_flat)
        res = stencil_residual(t, 2.0 * s * t, s * drift, s**2 * q)
        assert np.nanmax(np.abs(res)) < 1e-8

    def test_small_s_drift_limit(self, params_main):
        s = 1e-4
        drift = s * coefficients(s * 1.0, params_main)[0]
        assert abs(drift - 1.0) < 1e-6

    def test_small_s_potential_limit(self, params_main):
        s = 1e-4
        val = s**2 * coefficients(s * 1.0, params_main)[1]
        assert abs(val - params_main.lam) < 1e-6

    def test_domain_error(self, params_main):
        st_ = 0.2 * np.linspace(0.5, 20.0, 100)  # s*t exceeds pi/2
        with pytest.raises(DomainError):
            coefficients(st_, params_main)


class TestGrids:
    def test_graded_grid_shape(self):
        g = graded_grid(0.0, 1.0, 101)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)
        # clustering: first gap much smaller than the middle one
        assert g[1] - g[0] < 0.05 * (g[51] - g[50])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.3, 0.2, 0.5]))
        with pytest.raises(DomainError):
            Grid(np.array([0.1, 2.0]))  # beyond pi/2

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_nan_node_rejected(self, k):
        # every comparison with NaN is False, so "no step <= 0" would let it through
        nodes = np.array([0.1, 0.2, 0.3])
        nodes[k] = math.nan
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(nodes)

    def test_layout_is_cached_read_only(self):
        layout = core._graded_layout(401)
        assert core._graded_layout(401) is layout
        assert not layout.flags.writeable
        with pytest.raises(ValueError):
            layout[1] = 0.5

    @pytest.mark.parametrize("n", [2, 3, 401, 1000, 2000, 2001])
    def test_graded_grid_keeps_the_direct_bits(self, n):
        xi = np.linspace(0.0, 1.0, n)
        zeta = xi**2.0 / (xi**2.0 + (1.0 - xi) ** 2.0)
        for a, b in [(1e-7, 0.02), (1e-7, HALF_PI - 1e-7), (0.0, 1.0), (0.3, 1.2), (-2.0, 5.0)]:
            direct = a + (b - a) * zeta
            direct[0], direct[-1] = a, b
            assert np.array_equal(graded_grid(a, b, n), direct)


class TestFdWeights:
    def test_exact_on_cubics(self):
        nodes = np.array([0.0, 0.9, 2.1, 3.0, 4.2])
        w = fd_weights(nodes, 2.1, 2)
        f = nodes**3
        assert w[0] @ f == pytest.approx(2.1**3, rel=1e-12)
        assert w[1] @ f == pytest.approx(3 * 2.1**2, rel=1e-12)
        assert w[2] @ f == pytest.approx(6 * 2.1, rel=1e-12)

    def test_classic_uniform_five_point(self):
        w = fd_weights(np.arange(-2.0, 3.0), 0.0, 2)
        assert np.allclose(w[1] * 12, [1, -8, 0, 8, -1])
        assert np.allclose(w[2] * 12, [-1, 16, -30, 16, -1])

    @given(
        gaps=st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=2, max_size=40
        ),
        start=st.floats(min_value=-50.0, max_value=50.0),
        width=st.sampled_from([2, 3, 5, 7]),
        max_order=st.integers(min_value=0, max_value=3),
        shift=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(derandomize=True, deadline=None)
    def test_broadcast_matches_per_window_calls(
        self, gaps, start, width, max_order, shift
    ):
        nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
        if nodes.size < width:
            return
        windows = sliding_window_view(nodes, width)
        x0 = windows[:, width // 2] + shift
        w = fd_weights(windows, x0, max_order)
        assert w.shape == (windows.shape[0], max_order + 1, width)
        for i in range(windows.shape[0]):
            one = fd_weights(windows[i], x0[i], max_order)
            assert w[i].tobytes() == one.tobytes()


class TestProfileCsv:
    def test_roundtrip(self, tmp_path, params_flat):
        t = np.linspace(0.01, 1.5, 200)
        prof = Profile(Grid(t), 2 * t)
        path = tmp_path / "profile.csv"
        write_profile_csv(prof, params_flat, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,alpha,dalpha,residual"
        back = read_profile_csv(path)
        assert np.allclose(back.t, t, rtol=0, atol=0)
        assert np.allclose(back.values, 2 * t, rtol=0, atol=0)

    def test_significant_digits(self, tmp_path, params_flat):
        t = np.linspace(0.1, 1.0, 10)
        prof = Profile(Grid(t), np.pi / 3 + 0.1 * t)
        path = tmp_path / "profile.csv"
        write_profile_csv(prof, params_flat, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[1]) == prof.values[0]  # 17g preserves the double


def _brent_battery(n: int = 1200):
    """(f, a, b) cases from one seed: smooth, root-type and tan functions.

    About a fifth of the brackets lie on one side of the root (no sign change).
    """
    rng = np.random.default_rng(20261018)
    for i in range(n):
        r, k = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 10.0)
        if i % 3 == 0:  # smooth and monotone, with a cubic term of either sign
            c = rng.uniform(-0.03, 1.0) * k
            def f(x, r=r, k=k, c=c):
                return math.expm1(k * (x - r)) + c * (x - r) ** 3
        elif i % 3 == 1:  # |x - r|^e with the sign of x - r: cusps, flat zeros
            e = float(rng.choice([1 / 7, 1 / 3, 0.5, 1.0, 2.0, 3.0, 5.0]))
            def f(x, r=r, e=e, k=k):
                return math.copysign(k * abs(x - r) ** e, x - r)
        else:  # tan, steep near the ends of (-1.5, 1.5)
            r = rng.uniform(-1.45, 1.45)
            def f(x, t=math.tan(r), k=k):
                return k * (math.tan(x) - t)
        lo, hi = (-1.5, 1.5) if i % 3 == 2 else (-3.0, 3.0)
        if rng.uniform() < 0.2:  # both ends on one side of the root
            a, b = sorted(rng.uniform(*((r, hi) if rng.uniform() < 0.5 else (lo, r)), 2))
        else:
            a, b = rng.uniform(lo, r), rng.uniform(r, hi)
        yield f, *((b, a) if rng.uniform() < 0.5 else (a, b))


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestSimpsonWeights:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 200, 201, 1000, 1001])
    def test_matches_scipy(self, n):
        # graded grids with odd and even counts: the pairs, Cartwright's last
        # interval and the two-node trapezoid
        x = graded_grid(1e-7, 1.3, n)
        for y in (np.sin(x) ** 3, np.exp(-x) * np.cos(7.0 * x) + 2.0):
            expected = simpson(y, x=x)
            assert abs(simpson_weights(x) @ y - expected) <= 1e-14 * abs(expected)


class TestBrentq:
    @pytest.mark.parametrize("tols", [{}, {"xtol": 1e-300}, {"maxiter": 5}])
    def test_matches_scipy(self, tols):
        # the same root, the same calls of f and the same converged flag
        same_sign, flags = 0, set()
        for f, a, b in _brent_battery():
            ours, our_calls = _counted(f)
            theirs, their_calls = _counted(f)
            try:
                expected = scipy_brentq(theirs, a, b, full_output=True, disp=False, **tols)
            except ValueError:
                with pytest.raises(ValueError, match="different signs"):
                    brentq(ours, a, b, **tols)
                same_sign += 1
                continue
            root, converged = brentq(ours, a, b, **tols)
            assert (root, converged) == (expected[0], expected[1].converged)
            assert math.copysign(1.0, root) == math.copysign(1.0, expected[0])
            assert our_calls == their_calls
            flags.add(converged)
        assert 150 <= same_sign <= 350
        assert flags == {True, False}  # both stops are exercised

    def test_root_at_an_end(self):
        for a, b in ((1.0, 2.0), (0.0, 1.0)):
            f, calls = _counted(lambda x: x - 1.0)
            assert brentq(f, a, b) == (1.0, True)
            assert len(calls) == 2
            assert scipy_brentq(lambda x: x - 1.0, a, b) == 1.0

    def test_same_sign_and_nan_raise(self):
        for solver in (brentq, scipy_brentq):
            with pytest.raises(ValueError):
                solver(lambda x: x * x + 1.0, -1.0, 2.0)
            with pytest.raises(ValueError):
                solver(lambda x: math.nan, 0.0, 1.0)
            with pytest.raises(ValueError):  # NaN inside the bracket, after the ends
                solver(lambda x: x - 0.75 if abs(x - 0.5) > 0.4 else math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_error_in_f_leaves_at_its_call(self, k):
        # as _finish's jump raises a failed glue: the compiled loop makes no further
        # call of f and hands the exception on with its type and message
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) == k:
                raise ConvergenceError(f"glued solve failed at s={x}")
            return x * x - 2.0

        with pytest.raises(ConvergenceError) as info:
            brentq(f, 0.0, 2.0)
        assert type(info.value) is ConvergenceError
        assert str(info.value) == f"glued solve failed at s={calls[-1]}"
        assert len(calls) == k

    def test_nan_at_an_interior_iterate_names_x(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if len(calls) == 4 else x * x - 2.0

        with pytest.raises(ValueError) as info:
            brentq(f, 0.0, 2.0)
        assert len(calls) == 4 and 0.0 < calls[-1] < 2.0
        assert str(info.value) == f"the function value at x={calls[-1]} is NaN"
