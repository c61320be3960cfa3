import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from hopfbvp.closed_forms import phi_limit
from hopfbvp import analysis, core, variational
from hopfbvp.analysis import scan_jump
from hopfbvp.core import HALF_PI, ConvergenceError, DomainError, Grid, HopfParams, graded_grid
from hopfbvp.ode import coefficients, weight_f
from hopfbvp.variational import (
    DiscreteEnergy,
    GluedSolution,
    glue,
    interior_grid,
    minimize_exterior,
    minimize_interior,
)


def energy_on(grid, params):
    """The discrete energy of params on grid: its geometry, then Q f w."""
    return DiscreteEnergy(grid, params.p, params.q).with_params(params)


def offset_grid(t_end, n, offset):
    """interior_grid(t_end, n) with its free end node at ``offset`` instead of DEFAULT_OFFSET."""
    return Grid(graded_grid(offset, t_end, n), junction_index=n - 1)


def minimize_offset(t_end, params, n, offset):
    """minimize_interior's Newton on offset_grid: the end node is no argument of the library."""
    return variational._minimize(energy_on(offset_grid(t_end, n, offset), params), params,
                                 f"interior minimization at s={t_end}")


GEOMETRY_PARAMS = [HopfParams(1, 2, 1.0, 4.0), HopfParams(1, 3, 0.5, 6.0), HopfParams(2, 2, 2.0, 3.0)]


class TestDiscreteEnergy:
    def test_gauss_points_are_leggauss(self):
        # written out as literals, so that numpy.polynomial stays off the import path
        x, w = np.polynomial.legendre.leggauss(4)
        assert np.array_equal(variational._GL_X, x) and np.array_equal(variational._GL_W, w)

    def test_gradient_matches_finite_differences(self, params_main):
        grid = interior_grid(0.8, n=40)
        disc = energy_on(grid, params_main)
        rng = np.random.default_rng(3)
        v = np.clip(2.0 * grid.nodes + 0.1 * rng.normal(size=40), 0.0, math.pi)
        v[-1] = HALF_PI
        g = disc.gradient(v)
        h = 1e-6
        for i in (0, 7, 20, 33):
            e1, e2 = v.copy(), v.copy()
            e1[i] -= h
            e2[i] += h
            fd = (disc.energy(e2) - disc.energy(e1)) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)

    def test_hessian_matches_gradient_differences(self, params_main):
        # the exterior side at s = 0.8, as the mirrored interior problem
        grid = interior_grid(HALF_PI - 0.8, n=30)
        disc = energy_on(grid, params_main.mirrored())
        v = np.clip(grid.nodes, 0.0, HALF_PI)
        v[-1] = HALF_PI
        diag, off = disc._hessian(disc.trig(v)[2])
        h = 1e-6
        for i in (1, 14, 24):
            e1, e2 = v.copy(), v.copy()
            e1[i] -= h
            e2[i] += h
            fd = (disc.gradient(e2) - disc.gradient(e1)) / (2 * h)
            assert diag[i] == pytest.approx(fd[i], rel=5e-5, abs=1e-8)
            assert off[i] == pytest.approx(fd[i + 1], rel=5e-5, abs=1e-8)

    def test_stored_trig_gives_identical_kernels(self, params_main):
        grid = interior_grid(0.6, n=200)
        disc = energy_on(grid, params_main)
        v = HALF_PI * np.sqrt(grid.nodes / 0.6)
        trig = disc.trig(v)
        assert disc.energy(v, trig) == disc.energy(v)
        g = disc.gradient(v)
        assert np.array_equal(disc.gradient(v, trig), g)
        d, shift = disc.newton_direction(v, g)
        d_stored, shift_stored = disc.newton_direction(v, g, trig)
        assert np.array_equal(d_stored, d) and shift_stored == shift

    @pytest.mark.parametrize("params", GEOMETRY_PARAMS + [p.mirrored() for p in GEOMETRY_PARAMS])
    def test_geometry_is_weight_f_and_coeff_Q(self, params):
        # f and Q come from one tan pass, as in ode; they must be its values bit for bit
        grid = interior_grid(0.7, n=150)
        disc = energy_on(grid, params)
        t = grid.nodes
        x = t[:-1] + np.outer(variational._GL_X01, disc.h)  # (4, n_el)
        fw = weight_f(x, params) * (variational._GL_W01[:, None] * disc.h)
        assert np.array_equal(disc.fw, fw)
        assert np.array_equal(disc.qfw, coefficients(x, params)[1] * fw)

    def test_quadrature_point_outside_open_interval_raises(self, params_main):
        # the grid's node range check keeps every Gauss point inside (0, pi/2)
        with pytest.raises(DomainError, match="grid nodes must lie in"):
            energy_on(Grid(np.array([1.0, 1.2, 2.0])), params_main)

    # 0, a tiny angle, the pinned node fl(pi/2), pi and angles past it
    @pytest.mark.parametrize("a", [0.0, 5e-7, math.pi / 4, HALF_PI, math.pi, 4.5, 50.0])
    def test_trig_matches_sin_at_edge_angles(self, a, params_main):
        # a constant profile puts every quadrature angle at a exactly
        disc = energy_on(interior_grid(0.5, n=40), params_main)
        slope, sc, sin2 = disc.trig(np.full(40, a))
        eps = np.finfo(float).eps
        assert np.all(slope == 0.0)
        # a few ulp relative, which for values in [-1, 1] bounds the absolute error too
        for got, ref in ((sin2, np.sin(a) ** 2), (sc, np.sin(2.0 * a) / 2.0)):
            assert np.max(np.abs(got - ref)) <= 4 * eps * abs(ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_iterate_has_nan_energy(self, bad, params_main):
        # the line search's `et < e` must then reject the point
        grid = interior_grid(0.5, n=40)
        disc = energy_on(grid, params_main)
        v = HALF_PI * np.sqrt(grid.nodes / 0.5)
        e = disc.energy(v)
        v[17] = bad
        with np.errstate(invalid="ignore"):
            et = disc.energy(v)
        assert math.isnan(et) and not et < e


class TestSideMemo:
    """The (lambda, mu)-free side geometry, held in the last junction's record."""

    def test_memo_hit_equals_a_fresh_build(self, params_main):
        variational._junction.cache_clear()
        key = (0.6, 300, params_main.p, params_main.q)
        built = variational._junction(*key)
        # the same (lambda, mu), then another, as the next cell of a map
        for params in (params_main, HopfParams(1, 2, 2.0, 5.0)):
            assert variational._junction(*key) is built
            for side, t_end, side_params in ((built.inner, 0.6, params),
                                             (built.outer, HALF_PI - 0.6, params.mirrored())):
                hit = side.with_params(side_params)
                assert hit.fw is side.fw
                fresh = energy_on(interior_grid(t_end, n=300), side_params)
                for name in ("fw", "qfw", "stiff", "h"):
                    assert np.array_equal(getattr(hit, name), getattr(fresh, name)), name
        # and the minimizers built on a hit give the fresh minimizers bit for bit
        held = [minimize(0.6, params_main, n=300) for minimize in (minimize_interior, minimize_exterior)]
        assert variational._junction.cache_info().misses == 1
        variational._junction.cache_clear()
        for minimize, res in zip((minimize_interior, minimize_exterior), held):
            fresh = minimize(0.6, params_main, n=300).profile
            assert np.array_equal(fresh.t, res.profile.t)
            assert np.array_equal(fresh.values, res.profile.values)

    def test_memo_holds_at_most_two_sides(self, params_main):
        variational._junction.cache_clear()
        for k, (s, params) in enumerate([(0.3, params_main), (0.3, HopfParams(1, 2, 2.0, 5.0)),
                                         (0.5, params_main), (0.7, HopfParams(2, 3, 1.0, 1.0))]):
            glue(s, params, n=200)
            # one record: the last glue's interior at s and mirrored exterior at pi/2 - s
            held = variational._junction(s, 200, params.p, params.q)
            assert variational._junction.cache_info().misses == [1, 1, 2, 3][k]
            assert variational._junction.cache_info().currsize == 1
            assert held.inner.grid.nodes[-1] == s and held.outer.grid.nodes[-1] == HALF_PI - s


def _ladder() -> list[float]:
    """The Levenberg shifts newton_direction tries, in order."""
    shifts, shift = [], 0.0
    for _ in range(variational.MAX_SHIFTS):
        shifts.append(shift)
        shift = max(10.0 * shift, 1e-10)
    return shifts


def _dense_direction(disc: DiscreteEnergy, v: np.ndarray, g: np.ndarray, shift: float):
    """(H, d): the free-node Hessian as a dense matrix and (H + shift D) d = -g solved densely."""
    diag, off = disc._hessian(disc.trig(v)[2])
    hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    shifted = hess + shift * np.diag(np.abs(diag) + 1.0)
    return hess, np.linalg.solve(shifted, -g[:-1])


class TestNewtonDirection:
    @pytest.mark.parametrize("params", [HopfParams(1, 2, 1.0, 4.0), HopfParams(2, 1, 4.0, 1.0)])
    def test_levenberg_path_matches_dense_solve(self, params):
        # near pi/2 the potential term is concave, so H is indefinite and a shift is needed
        grid = interior_grid(0.5, n=200)
        disc = energy_on(grid, params)
        v = HALF_PI + 1e-3 * np.sin(np.arange(200.0))
        v[-1] = HALF_PI
        g = disc.gradient(v)
        d, shift = disc.newton_direction(v, g)
        assert shift > 0.0 and shift in _ladder()
        assert np.dot(d, g) < 0.0 and d[-1] == 0.0
        hess, dense = _dense_direction(disc, v, g, shift)
        assert np.linalg.eigvalsh(hess).min() < 0.0
        assert np.linalg.norm(d[:-1] - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_unshifted_at_a_converged_minimizer(self, params_main):
        res = minimize_interior(0.5, params_main, n=200)
        disc = energy_on(interior_grid(0.5, n=200), params_main)
        v = res.profile.values
        g = disc.gradient(v)
        d, shift = disc.newton_direction(v, g)
        assert shift == 0.0
        _, dense = _dense_direction(disc, v, g, 0.0)
        assert np.linalg.norm(d[:-1] - dense) <= 1e-10 * np.linalg.norm(dense)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_solution_moves_to_the_next_shift(self, bad, params_main, monkeypatch):
        # at a converged minimizer the unshifted solve succeeds; poison its one entry
        res = minimize_interior(0.5, params_main, n=200)
        disc = energy_on(interior_grid(0.5, n=200), params_main)
        v = res.profile.values
        g = disc.gradient(v)
        dptsv, shifts = variational._dptsv(), []

        def poisoned(d, e, b, **kw):
            out = dptsv(d, e, b, **kw)
            if not shifts:
                b[17] = bad  # b is the solution, solved in place
            shifts.append(d)
            return out

        monkeypatch.setattr(variational, "_dptsv", lambda: poisoned)
        d, shift = disc.newton_direction(v, g)
        assert len(shifts) == 2 and shift == 1e-10
        assert np.all(np.isfinite(d)) and np.dot(d, g) < 0.0 and d[-1] == 0.0
        _, dense = _dense_direction(disc, v, g, shift)
        assert np.linalg.norm(d[:-1] - dense) <= 1e-10 * np.linalg.norm(dense)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The kernels as one-line formulas, as they stood before they were written in
# place: the in-place kernels must give the same bytes.
def _reference_trig(disc: DiscreteEnergy, v: np.ndarray):
    dv = v[1:] - v[:-1]
    tn = np.tan(variational._GL_X01[:, None] * dv + v[:-1])
    sc = tn / (1.0 + tn * tn)
    return dv / disc.h, sc, sc * tn


def _reference_gradient(disc: DiscreteEnergy, trig) -> np.ndarray:
    slope, sc, _ = trig
    pot = disc.qfw * sc
    gd = disc.f_el2 * slope / disc.h
    g = np.zeros(disc.n)
    g[:-1] += -gd + variational._G0 @ pot
    g[1:] += gd + variational._G1 @ pot
    g[-1] = 0.0
    return g


def _reference_hessian(disc: DiscreteEnergy, sin2: np.ndarray):
    curv = disc.qfw * (2.0 - 4.0 * sin2)
    diag = disc.stiff + variational._HAT00 @ curv
    diag[1:] += (disc.stiff + variational._HAT11 @ curv)[:-1]
    return diag, (-disc.stiff + variational._HAT01 @ curv)[:-1]


def _reference_newton_direction(disc: DiscreteEnergy, g: np.ndarray, sin2: np.ndarray):
    diag, off = _reference_hessian(disc, sin2)
    rhs = -g[:-1]
    shift, shifted = 0.0, diag
    for _ in range(variational.MAX_SHIFTS):
        sol, info = variational._dptsv()(shifted, off, rhs)[2:]
        if info == 0 and np.all(np.isfinite(sol)) and np.dot(sol, rhs) >= 0.0:
            return np.append(sol, 0.0), shift
        shift = max(10.0 * shift, 1e-10)
        shifted = diag + shift * (np.abs(diag) + 1.0)
    raise AssertionError("no descent direction")


class TestKernelBits:
    @given(
        s=st.floats(0.01, 1.5),
        n=st.integers(200, 4000),
        params=st.sampled_from(GEOMETRY_PARAMS),
        mirrored=st.booleans(),
    )
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_kernels_give_the_reference_bits(self, s, n, params, mirrored):
        params = params.mirrored() if mirrored else params
        disc = energy_on(interior_grid(s, n=n), params)
        assert _same_bits(disc.qfw, (params.lam / disc._sin2 + params.mu / disc._cos2) * disc.fw)
        guess = HALF_PI * np.minimum(1.0, (disc.grid.nodes / s) ** params.r0)
        # near pi/2 the potential is concave, and the Hessian needs a Levenberg shift
        wiggle = HALF_PI + 1e-3 * np.sin(np.arange(float(n)))
        wiggle[-1] = HALF_PI
        shifts = []
        for v in (guess, guess + 0.3 * disc.newton_direction(guess, disc.gradient(guess))[0], wiggle):
            trig, ref = disc.trig(v), _reference_trig(disc, v)
            assert all(_same_bits(a, b) for a, b in zip(trig, ref))
            assert disc.energy(v) == disc.energy(v, ref)
            g = disc.gradient(v, trig)
            assert _same_bits(g, _reference_gradient(disc, ref))
            assert all(_same_bits(a, b) for a, b in zip(disc._hessian(trig[2]),
                                                         _reference_hessian(disc, ref[2])))
            d, shift = disc.newton_direction(v, g, trig)
            d_ref, shift_ref = _reference_newton_direction(disc, g, ref[2])
            assert _same_bits(d, d_ref) and shift == shift_ref
            shifts.append(shift)
        assert shifts[-1] > 0.0


class TestEvalFunctional:
    """The discrete energy J, evaluated through DiscreteEnergy.energy."""

    def test_matches_adaptive_quadrature_on_straight_profile(self, params_flat):
        s = math.pi / 4.0
        grid = offset_grid(s, 2000, 1e-6)
        disc = energy_on(grid, params_flat)
        value = disc.energy(2.0 * grid.nodes)
        integrand = lambda t: (
            4.0 + coefficients(t, params_flat)[1] * math.sin(2 * t) ** 2
        ) * weight_f(t, params_flat)
        expected = quad(integrand, 1e-6, s, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert value == pytest.approx(expected, abs=1e-8)

    def test_half_pi_profile_diverges_with_offset(self, params_main):
        # J(pi/2) grows without bound as the innermost node approaches 0,
        # by lam*ln(10) per decade (the lam/sin^2 term's logarithmic tail)
        s = 0.8
        vals = []
        for offset in (1e-3, 1e-4, 1e-5):
            grid = offset_grid(s, 2000, offset)
            disc = energy_on(grid, params_main)
            vals.append(disc.energy(np.full(2000, HALF_PI)))
        assert vals[0] < vals[1] < vals[2]
        per_decade = params_main.lam * math.log(10.0)
        assert vals[1] - vals[0] == pytest.approx(per_decade, rel=1e-4)
        assert vals[2] - vals[1] == pytest.approx(per_decade, rel=1e-4)

    def test_nonnegative(self, params_main):
        # the exterior side at s = 0.6, as the mirrored interior problem
        s = 0.6
        grid = interior_grid(HALF_PI - s, n=300)
        rng = np.random.default_rng(11)
        v = np.clip(HALF_PI - np.abs(rng.normal(size=300)), 0.0, HALF_PI)
        v[-1] = HALF_PI
        disc = energy_on(grid, params_main.mirrored())
        assert disc.energy(v) >= 0.0


class TestMinimizers:
    def test_interior_recovers_straight_profile(self, params_flat):
        res = minimize_interior(math.pi / 4.0, params_flat, n=2000)
        err = np.max(np.abs(res.profile.values - 2.0 * res.profile.t))
        assert err <= 1e-6

    def test_exterior_recovers_straight_profile(self, params_flat):
        res = minimize_exterior(math.pi / 4.0, params_flat, n=2000)
        err = np.max(np.abs(res.profile.values - 2.0 * res.profile.t))
        assert err <= 1e-6

    def test_energy_never_increases(self, params_main):
        res = minimize_interior(0.3, params_main, n=800)
        hist = res.energy_history
        assert np.all(np.diff(hist) <= 0.0)

    def test_small_s_interior_matches_limit_profile(self, params_main):
        # beta(s*t) approaches the limit profile on [0.1, 1]
        s = 0.01
        res = minimize_interior(s, params_main, n=2000)
        tt = np.linspace(0.1, 1.0, 200)
        gamma = res.profile.interpolate(s * tt)
        assert np.max(np.abs(gamma - phi_limit(tt, 1.0, params_main.lam))) <= 0.05

    def test_minimality_against_perturbations(self, params_main):
        s = 0.5
        grid = interior_grid(s, n=600)
        res = minimize_interior(s, params_main, n=600)
        disc = energy_on(grid, params_main)
        base = disc.energy(res.profile.values)
        rng = np.random.default_rng(5)
        t = grid.nodes
        ramp = (t - t[0]) * (s - t) / s**2  # vanishes at the pinned junction
        for _ in range(10):
            k = rng.integers(1, 6)
            amp = rng.uniform(-0.4, 0.4)
            cand = res.profile.values + amp * ramp * np.sin(k * math.pi * t / s)
            cand[-1] = HALF_PI
            assert disc.energy(cand) >= base - 1e-12

    def test_exterior_attaches_to_pi_for_small_s(self, params_main):
        # the exterior side solved as the mirrored interior one, then mapped back
        res = minimize_offset(HALF_PI - 0.05, params_main.mirrored(), 2000, 1e-4)
        values = math.pi - res.profile.values[::-1]
        assert values[-1] >= math.pi - 1e-2
        assert abs(math.pi - values[-1]) <= variational.ATTACH_TOL  # the end test of the record
        # and glued at the fixed end-node offset, the end record says the same
        glued = glue(0.05, params_main, n=2000)
        assert glued.boundary_error_pi <= 1e-2 and glued.attached

    def test_exterior_on_the_two_pi_branch_is_not_attached(self):
        # the exterior minimizer ends at 2 pi here: pi - alpha is -pi at the last
        # node, which passes a one-sided test against ATTACH_TOL
        glued = glue(0.0137, HopfParams(3, 2, 1.5, 0.5), n=2000)
        assert glued.merged_profile().values[-1] == pytest.approx(2.0 * math.pi, abs=1e-4)
        assert glued.boundary_error_pi == pytest.approx(math.pi, abs=1e-4)
        assert not glued.attached

    def test_exterior_beats_flat_candidate_small_s(self, params_main):
        s = 0.05
        grid = interior_grid(HALF_PI - s, n=1000)
        res = minimize_exterior(s, params_main, n=1000)
        disc = energy_on(grid, params_main.mirrored())
        assert res.energy < disc.energy(np.full(grid.nodes.size, HALF_PI))

    def test_exterior_is_the_mirrored_interior(self, params_main):
        s = 0.3
        outer = minimize_exterior(s, params_main, n=500)
        inner = minimize_interior(HALF_PI - s, params_main.mirrored(), n=500)
        assert outer.profile.t[0] == s and outer.profile.grid.junction_index == 0
        assert np.array_equal(outer.profile.t[1:], HALF_PI - inner.profile.t[::-1][1:])
        assert np.array_equal(outer.profile.values, math.pi - inner.profile.values[::-1])
        assert np.array_equal(outer.energy_history, inner.energy_history)
        assert (outer.energy, outer.iterations, outer.slope) == (
            inner.energy, inner.iterations, inner.slope)
        # glue's |pi - alpha| at the last node is the mirror's |beta| at its first, to an ulp of pi
        end_pi, end_zero = abs(math.pi - outer.profile.values[-1]), abs(inner.profile.values[0])
        assert abs(end_pi - end_zero) <= math.ulp(math.pi)

    def test_offset_helper_is_minimize_interior(self, params_main):
        # the tests that move the end node run minimize_interior's own Newton
        ref = minimize_interior(0.4, params_main, n=300)
        res = minimize_offset(0.4, params_main, 300, variational.DEFAULT_OFFSET)
        assert np.array_equal(res.profile.t, ref.profile.t)
        assert np.array_equal(res.profile.values, ref.profile.values)

    def test_interior_boundary_attachment_under_refinement(self, params_main):
        # the innermost value decreases as the grid reaches further toward 0
        vals = [
            minimize_offset(0.4, params_main, 1200, off).profile.values[0]
            for off in (1e-4, 1e-6)
        ]
        assert vals[1] < vals[0]
        assert vals[1] < 1e-4


# (p, q, lam, mu) sets for the stopping-rule sweep: the flat and main regimes,
# an unsolvable mu, lam < 1, and p, q > 1
STOP_PARAMS = [
    HopfParams(p=1, q=1, lam=1.0, mu=1.0),
    HopfParams(p=1, q=2, lam=1.0, mu=4.0),
    HopfParams(p=1, q=2, lam=1.0, mu=1.5),
    HopfParams(p=1, q=3, lam=0.5, mu=6.0),
    HopfParams(p=2, q=2, lam=2.0, mu=2.0),
]


def _extended_energy(disc: DiscreteEnergy, v: np.ndarray) -> float:
    """The same discrete sum in long double, with sin: f_el slope^2 + Q f w sin^2 a."""
    ld = np.longdouble
    v = v.astype(ld)
    dv = v[1:] - v[:-1]
    a = v[:-1] + variational._GL_X01.astype(ld)[:, None] * dv
    slope = dv / disc.h.astype(ld)
    return np.sum(disc.f_el.astype(ld) * slope**2) + np.sum(disc.qfw.astype(ld) * np.sin(a) ** 2)


class TestEnergyRoundingFloor:
    @given(
        s=st.floats(0.01, 1.5),
        n=st.integers(500, 4000),
        params=st.sampled_from(STOP_PARAMS),
        mirrored=st.booleans(),
    )
    @settings(derandomize=True, deadline=None)
    def test_energy_error_is_half_the_decrement_tolerance(self, s, n, params, mirrored):
        # the stopping rule needs the float64 energy's error well below
        # DECREMENT_TOL * (1 + |E|), at the guess and at the minimizer
        params = params.mirrored() if mirrored else params
        disc = energy_on(interior_grid(s, n=n), params)
        guess = HALF_PI * np.minimum(1.0, (disc.grid.nodes / s) ** params.r0)
        for v in (guess, minimize_interior(s, params, n=n).profile.values):
            exact = _extended_energy(disc, v)
            err = abs(np.longdouble(disc.energy(v)) - exact)
            assert err <= 0.5 * variational.DECREMENT_TOL * (1.0 + abs(exact))


class TestStoppingRule:
    def test_bisection_midpoint_of_main_regime_converges(self, params_main):
        # the interior solve here used to take equal-energy steps until the
        # iteration cap: its gradient cannot fall below the mesh's rounding floor
        res = minimize_interior(0.48410442684534505, params_main, n=2000)
        assert res.iterations <= 20
        assert np.all(np.diff(res.energy_history) < 0.0)

    @given(
        s=st.floats(0.01, 1.5),
        n=st.integers(500, 4000),
        side=st.sampled_from([minimize_interior, minimize_exterior]),
        params=st.sampled_from(STOP_PARAMS),
    )
    # decrements just above eps*(1+|E|), where a full step raised the float64
    # energy by one ulp: they need the stopping test above the rounding floor
    @example(s=0.5, n=655, side=minimize_interior, params=STOP_PARAMS[1])
    @example(s=1.014417460537714, n=1781, side=minimize_interior, params=STOP_PARAMS[1])
    @settings(derandomize=True, deadline=None)
    def test_converges_with_strict_decrease(self, s, n, side, params):
        res = side(s, params, n=n)
        assert res.iterations <= 20
        assert np.all(np.diff(res.energy_history) < 0.0)

    def test_iteration_cap_reason_reaches_scan_row(self, params_main, monkeypatch):
        monkeypatch.setattr(variational, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="iteration cap of 1") as info:
            minimize_interior(0.3, params_main, n=400)
        assert "interior minimization at s=0.3" in str(info.value)
        assert "gradient norm" in str(info.value)
        assert info.value.grad_norm > 0.0
        # the mirrored solve still names the caller's junction
        with pytest.raises(ConvergenceError, match="exterior minimization at s=0.3:"):
            minimize_exterior(0.3, params_main, n=400)
        row = scan_jump([params_main], 0.3, 0.5, 2, grid_n=400)[0].rows[0]
        assert row.s == 0.3
        assert not row.converged and math.isnan(row.l)
        assert row.reason == str(info.value)

    # the closing step v + d returns the discrete minimizer to rounding: four
    # more unshifted Newton steps leave the junction slope's bits
    @pytest.mark.parametrize("cell", [(1, 2, 1.0, 4.0), (1, 2, 2.0, 1.0), (2, 2, 3.0, 3.0)])
    @pytest.mark.parametrize("s", [0.02, 0.1, 0.4845, 1.0, 1.5])
    def test_closing_step_leaves_nothing_to_newton(self, cell, s):
        params = HopfParams(*cell)
        held = variational._junction(s, 600, params.p, params.q)
        for res, disc, mirrored in [
            (minimize_interior(s, params, n=600), held.inner.with_params(params), False),
            (minimize_exterior(s, params, n=600), held.outer.with_params(params.mirrored()), True),
        ]:
            v = math.pi - res.profile.values[::-1] if mirrored else res.profile.values
            for _ in range(4):
                d, shift = disc.newton_direction(v, disc.gradient(v))
                assert shift == 0.0
                v = v + d
            t = disc.grid.nodes
            assert variational._one_sided_slope(t[-3:], v[-3:], t[-1]) == res.slope

    @pytest.mark.parametrize("setting, value, exit_", [
        ("MAX_SHIFTS", 0, "no descent direction after 0 Levenberg shifts at iteration 1,"),
        ("DECREMENT_TOL", -math.inf, "no strict decrease along the Newton direction"),
        ("MAX_ITER", 3, "reached the iteration cap of 3 with gradient norm"),
    ])
    def test_each_exit_reports_the_failing_gradient_norm(self, setting, value, exit_,
                                                         params_main, monkeypatch):
        # the norm is formed after the loop: it must still be that of the failing iterate's g
        gradients, gradient = [], DiscreteEnergy.gradient

        def recorded(disc, v, *rest):
            gradients.append(gradient(disc, v, *rest))
            return gradients[-1]

        monkeypatch.setattr(DiscreteEnergy, "gradient", recorded)
        monkeypatch.setattr(variational, setting, value)
        with pytest.raises(ConvergenceError, match=exit_) as info:
            minimize_interior(0.3, params_main, n=400)
        gnorm = float(np.max(np.abs(gradients[-1])))
        assert info.value.grad_norm == gnorm > 0.0
        assert str(info.value).endswith(f", gradient norm {gnorm:.3e}" if setting != "MAX_ITER"
                                        else f" with gradient norm {gnorm:.3e}")


class TestWorkCounts:
    # a kernel change that moves any iterate moves these counts, and so does a change
    # of the Newton starts: the first map only copies a glue or extrapolates in s, the
    # second (TestSolvabilityMap.MAPS["secants"]) extrapolates in mu (interior) and log mu
    # (exterior) through two cells of a row, and in lambda and s; the third
    # (MAPS["quadratic"]) fits rows through three cells too; a one-cell scan extrapolates
    # each junction in log s from the junctions before
    @staticmethod
    def counters(monkeypatch) -> dict:
        """Glues, Newton iterations and dptsv calls from here on, counted in the dict."""
        counts = {"glues": 0, "iterations": 0, "dptsv": 0}
        dptsv, minimize, glue_ = variational._dptsv(), variational._minimize, analysis.glue

        def counted_dptsv(*args, **kwargs):
            counts["dptsv"] += 1
            return dptsv(*args, **kwargs)

        def counted_minimize(*args):
            res = minimize(*args)
            counts["iterations"] += res.iterations
            return res

        def counted_glue(*args, **kwargs):
            counts["glues"] += 1
            return glue_(*args, **kwargs)

        monkeypatch.setattr(variational, "_dptsv", lambda: counted_dptsv)
        monkeypatch.setattr(variational, "_minimize", counted_minimize)
        monkeypatch.setattr(analysis, "glue", counted_glue)
        return counts

    @classmethod
    def counted_map(cls, monkeypatch, *args, **opts):
        counts = cls.counters(monkeypatch)
        cells = analysis.solvability_map(*args, **opts)
        return [c.verdict for c in cells], counts

    def test_small_map_takes_the_pinned_newton_path(self, monkeypatch):
        verdicts, counts = self.counted_map(monkeypatch, 1, 2, (1.0, 2.0), (3.0, 5.0), 2, 2,
                                            grid_n=300)
        assert verdicts == ["solution_found", "solution_found", "no_sign_change", "solution_found"]
        assert counts == {"glues": 64, "iterations": 466, "dptsv": 481}

    def test_secant_map_takes_the_pinned_newton_path(self, monkeypatch):
        verdicts, counts = self.counted_map(monkeypatch, 1, 2, (1.0, 2.0), (1.0, 6.0), 3, 3,
                                            grid_n=300, n_scan=6)
        no, so = "no_sign_change", "solution_found"
        assert verdicts == [no, so, so, no, so, so, no, no, so]
        assert counts == {"glues": 73, "iterations": 476, "dptsv": 528}

    def test_quadratic_map_takes_the_pinned_newton_path(self, monkeypatch):
        verdicts, counts = self.counted_map(monkeypatch, 1, 2, (1.0, 2.0), (1.0, 6.0), 2, 5,
                                            grid_n=300, n_scan=6)
        no, so = "no_sign_change", "solution_found"
        assert verdicts == [no, so, so, so, so, no, no, no, so, so]
        assert counts == {"glues": 82, "iterations": 489, "dptsv": 535}

    def test_bench_map_takes_the_pinned_newton_path(self, monkeypatch):
        # the benchmark's map-5x10 at the map defaults (grid_n 1000, n_scan 14): a change
        # that keeps every bit of the map's Newton path keeps these counts
        variational._junction.cache_clear()
        verdicts, counts = self.counted_map(monkeypatch, 1, 2, (1.0, 2.0), (1.0, 6.0), 5, 10)
        assert (verdicts.count("solution_found"), verdicts.count("no_sign_change")) == (29, 21)
        assert counts == {"glues": 787, "iterations": 3587, "dptsv": 3653}
        assert variational._junction.cache_info().misses == 101

    # find_solution at its defaults (n_scan 16, n 2000): the main regime and mu = 1.5
    @pytest.mark.parametrize("mu, verdict, work", [
        (4.0, "solution_found", (18, 118, 124)), (1.5, "no_sign_change", (16, 105, 111))])
    def test_one_cell_solve_takes_the_pinned_newton_path(self, monkeypatch, mu, verdict, work):
        counts = self.counters(monkeypatch)
        assert analysis.find_solution(HopfParams(1, 2, 1.0, mu)).verdict == verdict
        assert counts == dict(zip(("glues", "iterations", "dptsv"), work))

    @pytest.mark.parametrize("mu, builds", [(4.0, 18), (1.5, 16)])
    def test_one_cell_solve_builds_one_junction_per_glue(self, mu, builds):
        # every glue of a default solve is at a new s; a map's cells share each build
        variational._junction.cache_clear()
        analysis.find_solution(HopfParams(1, 2, 1.0, mu))
        assert variational._junction.cache_info().misses == builds


class TestGlue:
    @pytest.mark.parametrize("s", [variational.DEFAULT_OFFSET, 1e-8,
                                   HALF_PI - variational.DEFAULT_OFFSET, 1.6])
    def test_junction_inside_the_end_nodes(self, params_main, s):
        # both sides' free end nodes sit DEFAULT_OFFSET inside (0, pi/2)
        with pytest.raises(ValueError, match=r"need 0 < offset < s < pi/2 - offset, "
                                             rf"got offset=1e-07, s={s}$"):
            glue(s, params_main, n=200)

    @pytest.mark.parametrize("n", [2, 15])
    def test_grid_below_16_nodes_refused(self, params_main, n):
        # every glue and minimizer builds its grids in interior_grid, which refuses them;
        # n = 2 would fail inside LAPACK and n = 15 would glue
        calls = (lambda: interior_grid(0.5, n), lambda: minimize_interior(0.5, params_main, n=n),
                 lambda: glue(0.5, params_main, n=n))
        for call in calls:
            with pytest.raises(ValueError, match=rf"^grid size n must be >= 16, got {n}$"):
                call()
        assert interior_grid(0.5, 16).nodes.size == 16

    def test_straight_solution_no_kink(self, params_flat):
        g = glue(math.pi / 4.0, params_flat, n=2000)
        assert abs(g.l) <= 1e-5
        assert g.d_minus == pytest.approx(2.0, abs=1e-6)
        assert g.d_plus == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("p, q, lam, mu", [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3)])
    def test_symmetric_parameters_have_no_jump_at_quarter_pi(self, p, q, lam, mu):
        # the mirror maps the problem onto itself, so both sides are one solve
        g = glue(math.pi / 4.0, HopfParams(p=p, q=q, lam=lam, mu=mu), n=800)
        assert g.l == 0.0
        assert g.d_minus == g.d_plus
        assert g.J_interior == g.J_exterior

    def test_small_s_positive_jump(self, params_main):
        g = glue(0.01, params_main, n=1500)
        assert g.l > 0.0 and g.I_s > 0.0
        assert g.d_minus > 0.0 and g.d_plus > 0.0

    def test_near_half_pi_negative_jump(self, params_main):
        g = glue(1.5, params_main, n=1500)
        assert g.l < 0.0 and g.I_s < 0.0

    def test_junction_values_pinned(self, params_main):
        prof = glue(0.7, params_main, n=600).merged_profile()
        assert prof.values[prof.grid.junction_index] == pytest.approx(HALF_PI, abs=1e-12)

    def test_merged_profile_structure(self, params_main):
        g = glue(0.7, params_main, n=400)
        prof = g.merged_profile()
        assert prof.grid.junction_index == 399
        assert prof.t[399] == pytest.approx(0.7, abs=1e-14)
        assert prof.d_left == g.d_minus and prof.d_right == g.d_plus

    def test_merged_profile_is_the_two_minimizers(self, params_main):
        g = glue(0.7, params_main, n=400)
        prof = g.merged_profile()
        assert g.merged_profile() is prof
        inner = minimize_interior(0.7, params_main, n=400).profile
        outer = minimize_exterior(0.7, params_main, n=400).profile
        assert np.array_equal(prof.t, np.concatenate([inner.t, outer.t[1:]]))
        assert np.array_equal(prof.values, np.concatenate([inner.values, outer.values[1:]]))
        assert outer.values[0] == prof.values[399] == HALF_PI

    def test_end_record_is_the_union_ends(self, params_main):
        g = glue(0.7, params_main, n=400)
        values = g.merged_profile().values
        assert g.boundary_error_zero == abs(values[0]) <= 1e-3
        assert g.boundary_error_pi == abs(math.pi - values[-1]) <= 1e-3
        assert g.attached

    def test_end_off_its_limit_is_not_attached(self):
        # the cold exterior minimizer of (2,2,1,0.5) at s = 1.5 stops 0.047 short of pi
        g = glue(1.5, HopfParams(2, 2, 1.0, 0.5), n=2000)
        assert g.boundary_error_zero <= 1e-3
        assert g.boundary_error_pi == pytest.approx(0.0471, abs=1e-3)
        assert not g.attached

    def test_start_is_checked_before_any_newton_step(self, params_main, monkeypatch):
        # a start is Newton's first iterate: an unpinned one was taken silently, and a
        # glue of another n was sliced into unpinned sides; both are refused up front
        other_n = glue(0.5, params_main, n=1000)
        trig_calls, trig = [], DiscreteEnergy.trig
        monkeypatch.setattr(DiscreteEnergy, "trig",
                            lambda *args: trig_calls.append(1) or trig(*args))
        side = "minimization at s=0.5: start needs 300 values with pi/2 at the junction node"
        with pytest.raises(ValueError, match=f"^interior {side}$"):
            minimize_interior(0.5, params_main, n=300, start=np.full(300, 1.0))
        with pytest.raises(ValueError, match=f"^exterior {side}$"):
            minimize_exterior(0.5, params_main, n=300, start=np.full(301, HALF_PI))
        union = r"^start needs 2n - 1 = 999 values with pi/2 at index 499$"
        # 999 values whose index 499 is node 998 of the other glue's interior, not its s
        unpinned = other_n.merged_profile().values[::2][:999]
        for start in (other_n.merged_profile().values, other_n, unpinned):
            with pytest.raises(ValueError, match=union):
                glue(0.5, params_main, n=500, start=start)
        assert trig_calls == []

    def test_start_from_another_junction(self, params_main):
        # every junction's grids scale one graded layout, so node k of a glue at s = 0.4
        # starts node k at s = 0.5; the closing step leaves l that of a cold start
        near = glue(0.4, params_main, n=300).merged_profile().values
        warm, cold = glue(0.5, params_main, n=300, start=near), glue(0.5, params_main, n=300)
        assert warm.l == pytest.approx(cold.l, rel=1e-12, abs=0.0)


def _fresh_glue(s: float, params: HopfParams, n: int) -> GluedSolution:
    """A glue that finds nothing held: no sides, grids or Simpson rows."""
    variational._junction.cache_clear()
    return glue(s, params, n=n)


def junction_tables(s: float, n: int, params: HopfParams) -> dict:
    """The trigonometric tables of the junction record at s: name -> (values, bound in ulps).

    Each table is a monomial sin^a cos^b times float weights, or Q f w.  Its bound is
    3 (a + |b|) + 2 ulps relative, with a + |b| = p + q + 2 for Q f w (see ulps_apart).
    """
    held, tables = variational._junction(s, n, params.p, params.q), {}
    for name, prm in (("inner", params), ("outer", params.mirrored())):
        disc, a, b = getattr(held, name), prm.p, prm.q
        tables.update({f"{name} sin2": (disc._sin2, 8), f"{name} cos2": (disc._cos2, 8),
                       f"{name} fw": (disc.fw, 3 * (a + b) + 2),
                       f"{name} qfw": (disc.with_params(prm).qfw, 3 * (a + b + 2) + 2)})
    for k, (a, b) in enumerate(simpson_powers(params.p, params.q)):
        tables[f"rows {a},{b}"] = (held.rows[k], 3 * (a + abs(b)) + 2)
    return tables


def simpson_powers(p: int, q: int) -> list[tuple[int, int]]:
    """(a, b) of the monomials sin^a cos^b of _simpson_rows, in its order."""
    return [(1, 2 * q - 1), (3, 2 * q - 3)] + (p > 1) * [
        (2 * p - 1, 2 * q - 1), (2 * p + 1, 2 * q - 3), (2 * p - 3, 2 * q + 1)]


def ulps_apart(got, ref) -> float:
    """max |got - ref| / (eps |ref|) over entries with ref != 0, which must be equal where ref == 0."""
    got, ref = np.asarray(got, dtype=np.longdouble), np.asarray(ref, dtype=np.longdouble)
    zero = ref == 0.0
    assert np.array_equal(got[zero], ref[zero])
    return float(np.max(np.abs(got[~zero] - ref[~zero]) / np.abs(ref[~zero]))
                 / np.finfo(float).eps)


class TestHeldJunction:
    """Grids and Simpson rows held for the last glue's junction."""

    @pytest.mark.parametrize("s", [1e-3, 0.02, math.pi / 4, 1.5, HALF_PI - 1e-3])
    def test_tables_match_math_sin_and_cos(self, s):
        # the reference: math.sin and math.cos at the same float points, raised to
        # their powers in long double (exact to ~1e-19), times the same float weights
        def sin_cos(x):
            return [np.array([fn(v) for v in x.ravel()], dtype=np.longdouble).reshape(x.shape)
                    for fn in (math.sin, math.cos)]

        for p, q in itertools.product((1, 2, 3), repeat=2):
            params = HopfParams(p, q, 1.3, 2.7)
            held, refs = variational._junction(s, 60, p, q), {}
            for name, prm in (("inner", params), ("outer", params.mirrored())):
                disc, a, b = getattr(held, name), prm.p, prm.q
                sn, cs = sin_cos(disc.grid.nodes[:-1] + variational._gauss_x(59) * disc.h)
                fw = sn**a * cs**b * (variational._GL_W01[:, None] * disc.h)
                refs.update({f"{name} sin2": sn**2, f"{name} cos2": cs**2, f"{name} fw": fw,
                             f"{name} qfw": (prm.lam / sn**2 + prm.mu / cs**2) * fw})
            # the padded nodes 0 and fl(pi/2): exact zeros at 0, the relative bound at pi/2
            ts = np.concatenate(([0.0], held.union.nodes, [HALF_PI]))
            sn, cs = sin_cos(ts)
            for a, b in simpson_powers(p, q):
                refs[f"rows {a},{b}"] = sn**a * cs**b * core.simpson_weights(ts)
            tables = junction_tables(s, 60, params)
            assert tables.keys() == refs.keys()
            for name, (got, ulps) in tables.items():
                assert ulps_apart(got, refs[name]) <= ulps, (p, q, name)

    def test_cells_at_one_junction_build_no_grid(self, params_main, monkeypatch):
        variational._junction.cache_clear()
        builds = []
        post_init = core.Grid.__post_init__

        def counted(grid):
            builds.append(grid)
            post_init(grid)

        monkeypatch.setattr(core.Grid, "__post_init__", counted)
        first = glue(0.4, params_main, n=300)
        assert len(builds) == 4  # two sides, the mapped-back exterior grid, the union grid
        builds.clear()
        second = glue(0.4, HopfParams(1, 2, 1.5, 3.0), n=300)
        assert builds == []
        assert second.merged_profile().grid is first.merged_profile().grid

    def test_held_rows_never_serve_another_junction(self):
        variational._junction.cache_clear()
        a, b = HopfParams(1, 2, 1.0, 4.0), HopfParams(1, 2, 1.5, 3.0)
        # after the first, each glue differs from the one before it in: s; s and
        # (lambda, mu); (lambda, mu) only; n; p; q; then (p, q) swapped
        glues = [(0.3, a, 300), (0.6, a, 300), (0.3, b, 300), (0.3, a, 300), (0.3, a, 200),
                 (0.3, HopfParams(2, 2, 1.0, 4.0), 200), (0.3, HopfParams(2, 1, 1.0, 4.0), 200),
                 (0.3, a, 200)]
        fields = ("I_s", "I_s1", "I_s2", "l", "l_tilde")
        held = [glue(s, params, n=n) for s, params, n in glues]
        fresh = [_fresh_glue(s, params, n) for s, params, n in glues]
        for h, f in zip(held, fresh):
            assert [getattr(h, k) for k in fields] == [getattr(f, k) for k in fields]

    @pytest.mark.parametrize("p, q", [(1, 2), (2, 3), (3, 2)])
    def test_l_tilde_divides_by_weight_f_squared(self, p, q):
        # l~ = I_s / (f(s)^2 (d+ + d-)) with weight_f's bits, also for the second cell
        # at one s, which reads f(s)^2 from the held record
        variational._junction.cache_clear()
        for s in (0.02, 0.3, 1.2):
            for params in (HopfParams(p, q, 1.0, 4.0), HopfParams(p, q, 2.0, 3.0)):
                g = glue(s, params, n=200)
                denom = weight_f(s, params) ** 2 * (g.d_plus + g.d_minus)
                assert g.l_tilde == g.I_s / denom, (s, params)
        assert variational._junction.cache_info().misses == 3

    @pytest.mark.parametrize("params", [HopfParams(1, 2, 1.0, 4.0), HopfParams(2, 2, 2.0, 3.0),
                                        HopfParams(2, 1, 3.0, 1.0)])
    def test_jump_integrals_is_scipy_simpson(self, params):
        prof = glue(0.5, params, n=400).merged_profile()
        ts = np.concatenate(([0.0], prof.t, [HALF_PI]))
        s2a = np.sin(np.concatenate(([0.0], prof.values, [math.pi]))) ** 2
        sn, cs = np.sin(ts), np.cos(ts)
        p, q, lam, mu = params.p, params.q, params.lam, params.mu
        # (f^2 Q)' of f^2 Q = lam sin^(2p-2) cos^(2q) + mu sin^(2p) cos^(2q-2)
        lam_part = (2 * p - 2) * sn ** (2 * p - 3) * cs ** (2 * q + 1) if p > 1 else 0.0
        lam_part = lam_part - 2 * q * sn ** (2 * p - 1) * cs ** (2 * q - 1)
        mu_part = 2 * p * sn ** (2 * p - 1) * cs ** (2 * q - 1)
        mu_part = mu_part - (2 * q - 2) * sn ** (2 * p + 1) * cs ** (2 * q - 3)
        dfq = lam * lam_part + mu * mu_part
        rows = variational._simpson_rows(prof.t, p, q)
        i_s, i1, i2 = variational.jump_integrals(rows, prof.values, params)
        assert i1 == pytest.approx(simpson(sn * cs ** (2 * q - 1) * s2a, x=ts), rel=1e-14)
        assert i2 == pytest.approx(simpson(sn**3 * cs ** (2 * q - 3) * s2a, x=ts), rel=1e-14)
        # I_s sums terms of both signs: relative to the integral of their size
        scale = simpson(np.abs(dfq) * s2a, x=ts)
        assert abs(i_s - simpson(dfq * s2a, x=ts)) <= 1e-14 * scale


class TestJumpIntegral:
    def test_cross_check_tolerance(self, params_main):
        for s in (0.05, 0.3, 0.9, 1.4):
            g = glue(s, params_main, n=1500)
            assert abs(g.l_tilde - g.l) <= max(1e-4, 1e-2 * abs(g.l))
            denom = weight_f(s, params_main) ** 2 * (g.d_plus + g.d_minus)
            assert g.l_tilde == g.I_s / denom

    def test_decomposition_identity(self, params_main):
        g = glue(0.3, params_main, n=1200)
        lam, mu, q = params_main.lam, params_main.mu, params_main.q
        recomposed = 2 * (mu - lam * q) * g.I_s1 - 2 * mu * (q - 1) * g.I_s2
        assert abs(g.I_s - recomposed) <= 1e-8 * (abs(g.I_s) + 1.0)

    def test_sign_agreement(self, params_main):
        for s in (0.05, 1.45):
            g = glue(s, params_main, n=1000)
            assert math.copysign(1, g.l) == math.copysign(1, g.I_s)

    def test_general_p_integrals_finite(self):
        params = HopfParams(p=2, q=2, lam=2.0, mu=2.0)
        g = glue(0.7, params, n=800)
        assert np.isfinite(g.I_s) and np.isfinite(g.I_s1) and np.isfinite(g.I_s2)

    def test_monotone_minimizers(self, params_main):
        g = glue(0.4, params_main, n=1200)
        prof = g.merged_profile()
        j = prof.grid.junction_index
        assert np.all(np.diff(prof.values[: j + 1]) >= -1e-12)
        assert np.all(np.diff(prof.values[j:]) >= -1e-12)
        assert g.monotone_interior and g.monotone_exterior
        assert g.to_dict()["monotone_interior"] is True
        # the flags are read from the glued curve when asked: a dip on the exterior side
        # clears that flag alone, and glued.json's dict lists both
        values = prof.values.copy()
        values[j + 5] -= 1e-3
        dipped = dataclasses.replace(g, _curve=core.Profile(prof.grid, values))
        assert dipped.monotone_interior and not dipped.monotone_exterior
        assert {k: v for k, v in dipped.to_dict().items() if k.startswith("monotone")} == {
            "monotone_interior": True, "monotone_exterior": False}
