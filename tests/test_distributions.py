import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    ball_mass_with_error,
    holder_budget,
    local_mass_check_loop,
    log_density_loop,
    ppf_bisection,
    raw_cdf_integral_loop,
    zeta_per_step,
)
from transfer_knn.distributions import (
    _FAMILIES,
    Exponential,
    LogPareto,
    Pareto,
    ProductPareto,
    Uniform,
    ball_mass,
    closed_form_indices,
    family_from_spec,
    holder_constant,
    holder_parabola,
    holder_zero,
    local_mass_check,
    noise_from_spec,
    zeta,
)
from transfer_knn.errors import ConfigError, NoClosedFormError, RadiusSearchError

ONE_D_VARIANTS = [
    Pareto(1.0, 1.0),
    Pareto(3.0, 2.0),
    Exponential(1.0),
    Exponential(2.0),
    Uniform(0.0, 1.0),
    Uniform(-1.0, 3.0),
    LogPareto(1.0, 1.0, 2.0),
    LogPareto(1.0, 0.7, 0.0),
]
LOG_PARETO_VARIANTS = [dist for dist in ONE_D_VARIANTS if isinstance(dist, LogPareto)]

# The x where LogPareto's CDF adds a panel: log x - log 2 a multiple of 0.25.
PANEL_EDGES = np.exp(math.log(2.0) + 0.25 * np.arange(1, 2761))


def with_neighbours(xs):
    """xs and the floats just below and just above each of them."""
    xs = np.asarray(xs, dtype=np.float64)
    return np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, np.inf)])


class TestDensity:
    def test_pareto_at_zero(self):
        assert Pareto(1.0, 1.0).density(0.0) == 1.0

    def test_exponential_at_zero(self):
        assert Exponential(2.0).density(0.0) == 2.0

    def test_uniform_outside_support(self):
        assert Uniform(0.0, 1.0).density(2.0) == 0.0

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_integrates_to_one(self, dist):
        lo, hi = dist.support
        if math.isinf(hi):
            total = quad(dist.density, lo, lo + 40.0, limit=200)[0]
            total += quad(
                lambda t: dist.density(math.exp(t)) * math.exp(t),
                math.log(lo + 40.0),
                80.0,
                limit=200,
            )[0]
        else:
            total = quad(dist.density, lo, hi)[0]
        assert abs(total - 1.0) <= 1e-6

    def test_product_pareto_factorises(self):
        pp = ProductPareto(1.5, 1.0, 3)
        x = np.array([0.3, 1.2, 0.0])
        factor = Pareto(1.5, 1.0)
        want = np.prod([factor.density(v) for v in x])
        assert np.isclose(pp.density(x), want, rtol=1e-12)

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_density_bound_holds_on_grid(self, dist):
        lo, hi = dist.support
        top = lo + 30.0 if math.isinf(hi) else hi
        xs = np.linspace(lo, top, 400)
        assert np.all(dist.density(xs) <= dist.density_bound * (1 + 1e-12))

    @pytest.mark.parametrize(
        "dist, formula",
        [
            (Pareto(3.0, 2.0), 3.0 / 2.0),
            (Pareto(1.0, 0.3), 1.0 / 0.3),
            (Exponential(2.5), 2.5),
            (Uniform(-1.0, 3.0), 1.0 / (3.0 - -1.0)),
            (Uniform(0.1, 0.4), 1.0 / (0.4 - 0.1)),
            (ProductPareto(1.5, 0.7, 3), (1.5 / 0.7) ** 3),
        ],
        ids=str,
    )
    def test_density_bound_formula(self, dist, formula):
        assert dist.density_bound == formula

    @pytest.mark.parametrize(
        "dist", [LogPareto(1.0, 1.0, 2.0), LogPareto(1.0, 0.7, 0.0)], ids=str
    )
    def test_log_pareto_density_bound_is_density_at_two(self, dist):
        assert dist.density_bound == dist.density(2.0)

        def raw(x):
            return x ** -(dist.b + 1.0) * math.log(x) ** -dist.c

        want = raw(2.0) / quad(raw, 2.0, math.inf)[0]
        assert math.isclose(dist.density_bound, want, rel_tol=1e-9)

    def test_log_density_consistency(self):
        for dist in ONE_D_VARIANTS:
            x = dist.support[0] + 0.7
            assert math.isclose(
                dist.log_density(x), math.log(dist.density(x)), rel_tol=1e-12
            )


class TestLogParetoNormaliser:
    """A normaliser whose quadrature error estimate reaches its value is refused."""

    def test_resolved_matches_closed_form(self):
        # For c = 0 the raw density integrates to 2^-b / b exactly.
        got = LogPareto(1.0, 38.0, 0.0)._norm
        assert math.isclose(got, 2.0**-38 / 38.0, rel_tol=1e-9)

    @pytest.mark.parametrize("b", [40.0, 1100.0])
    def test_unresolved_refused(self, b):
        with pytest.raises(ValueError, match="not resolved by quadrature"):
            LogPareto(1.0, b, 0.0)._norm
        with pytest.raises(ConfigError, match="'distribution'"):
            family_from_spec({"family": "log_pareto", "a": 1, "b": b, "c": 0})


class TestNanPoint:
    """A NaN point comes out as NaN, never as a probability or a density."""

    # -1.0 is -sigma for Pareto(1, 1), where its density formula divides
    # by zero.
    POINTS = np.array([math.nan, -1.0, 0.5, 3.0, math.nan])

    def check(self, one_point, rows):
        for x in (math.nan, np.float64(math.nan)):
            assert math.isnan(one_point(x))
        got = rows(self.POINTS)
        assert np.array_equal(np.isnan(got), np.isnan(self.POINTS))
        assert got[1:4].tolist() == [one_point(x) for x in self.POINTS[1:4].tolist()]

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_cdf(self, dist):
        self.check(dist.cdf, dist.cdf)

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_density(self, dist):
        self.check(dist.density, dist.density)

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_log_density(self, dist):
        # The scalar log density at each point of the array.
        self.check(dist.log_density, lambda xs: np.array(list(map(dist.log_density, xs))))


class TestLogDensityRows:
    @pytest.mark.parametrize("d", [2, 3])
    def test_product_pareto_rows_match_scalar_loop(self, d):
        P = ProductPareto(1.5, 0.7, d)
        X = P.sample_array(np.random.default_rng(d), 5000)
        X[0, 0] = 0.0
        X[1, d - 1] = -0.25  # outside the support: -inf
        X[2, :] = -1.0e-300
        want = log_density_loop(P, X)
        assert want[1] == -math.inf and want[2] == -math.inf
        assert np.array_equal(P.log_density(X), want)
        for i in range(4):
            got = P.log_density(X[i])
            assert isinstance(got, float) and got == want[i]


class TestSampling:
    def test_empty_sample(self):
        draws = Uniform(0, 1).sample_array(np.random.default_rng(0), 0)
        assert len(draws) == 0

    def test_uniform_mean(self):
        rng = np.random.default_rng(11)
        draws = Uniform(0, 1).sample_array(rng, 100_000)
        assert abs(float(draws.mean()) - 0.5) < 0.01

    def test_pareto_cdf_value(self):
        rng = np.random.default_rng(12)
        draws = Pareto(3.0, 1.0).sample_array(rng, 100_000)[:, 0]
        assert abs(float(np.mean(draws <= 1.0)) - 0.875) < 0.01

    def test_determinism(self):
        a = Exponential(1.5).sample_array(np.random.default_rng(99), 64)
        b = Exponential(1.5).sample_array(np.random.default_rng(99), 64)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "a, b", [(0.0, 1.0), (-3.0, 2.5), (1e-3, 1e3), (-1e6, -1e6 + 0.75)]
    )
    def test_uniform_inverse_cdf_equals_rng_uniform(self, a, b):
        # Uniform draws through the shared inverse-CDF sampler; seeded
        # outputs stay byte-identical only if this matches rng.uniform
        # bit for bit and leaves the generator in the same state.
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        draws = Uniform(a, b).sample_array(rng, 10_000)
        assert draws.shape == (10_000, 1)
        assert np.array_equal(draws[:, 0], ref.uniform(a, b, 10_000))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_kolmogorov_distance(self, dist):
        rng = np.random.default_rng(314159)
        draws = np.sort(dist.sample_array(rng, 100_000)[:, 0])
        cdf = np.asarray(dist.cdf(draws))
        n = len(draws)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(np.max(np.abs(upper - cdf)), np.max(np.abs(cdf - lower)))
        assert ks <= 0.01

    def test_product_pareto_marginals(self):
        rng = np.random.default_rng(2718)
        pp = ProductPareto(2.0, 1.0, 2)
        draws = pp.sample_array(rng, 100_000)
        factor = Pareto(2.0, 1.0)
        for j in range(2):
            col = np.sort(draws[:, j])
            cdf = np.asarray(factor.cdf(col))
            ks = np.max(np.abs(np.arange(1, len(col) + 1) / len(col) - cdf))
            assert ks <= 0.01


class TestCdf:
    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_infinity_is_one(self, dist):
        lo = dist.support[0]
        assert dist.cdf(math.inf) == 1.0
        assert dist.cdf(np.array([math.inf, lo])).tolist() == [1.0, dist.cdf(lo)]

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_keeps_the_shape_of_its_input(self, dist):
        xs = dist.support[0] + np.arange(12.0).reshape(3, 4) / 4.0
        got = dist.cdf(xs)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), dist.cdf(xs.ravel()))

    @pytest.mark.parametrize("dist", LOG_PARETO_VARIANTS, ids=str)
    def test_log_pareto_one_point_equals_loop(self, dist):
        rng = np.random.default_rng(17)
        xs = np.concatenate(
            [
                [1.0, 1.5, 2.0, 2.5],
                np.exp(rng.uniform(math.log(2.0), 690.0, 300)),
                with_neighbours(PANEL_EDGES[::37]),
            ]
        )
        for x in xs.tolist():
            raw = raw_cdf_integral_loop(dist, [x])[0]
            want = 0.0 if x < 2.0 else min(max(raw / dist._norm, 0.0), 1.0)
            assert dist.cdf(x) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(1.0, 1e300),
                st.floats(0.0, math.log(1e300)).map(math.exp),
                st.floats(1.0, 2.0),
                st.sampled_from([2.0, *with_neighbours(PANEL_EDGES[:400]).tolist()]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_log_pareto_points_do_not_interact(self, xs):
        dist = LogPareto(1.0, 1.0, 2.0)
        got = dist.cdf(np.array(xs))
        assert got.tolist() == [dist.cdf(x) for x in xs]

    def test_log_pareto_far_tail_memory_is_bounded(self):
        # 500 points at 1e300 take 2,761 panels of 7 nodes each: 9.7M nodes.
        dist = LogPareto(1.0, 1.0, 2.0)
        one = dist.cdf(1e300)
        tracemalloc.start()
        try:
            got = dist.cdf(np.full(500, 1e300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(got == one)


class TestBallMass:
    def test_uniform_interior(self):
        assert math.isclose(ball_mass(Uniform(0, 1), 0.5, 0.2), 0.4, rel_tol=1e-12)

    def test_zero_radius(self):
        for dist in ONE_D_VARIANTS:
            assert ball_mass(dist, dist.support[0] + 0.5, 0.0) == 0.0

    def test_exponential_at_origin(self):
        want = 1.0 - math.exp(-1.0)
        assert math.isclose(ball_mass(Exponential(1.0), 0.0, 1.0), want, rel_tol=1e-12)

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_monotone_in_radius(self, dist):
        x = dist.support[0] + 0.3
        radii = np.linspace(0.0, 2.0, 40)
        masses = [ball_mass(dist, x, float(r)) for r in radii]
        assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_radius_array_equals_cdf_differences(self, dist):
        x = dist.support[0] + 0.3
        radii = np.linspace(0.0, 2.0, 9)
        want = [0.0] + [
            float(dist.cdf(x + r) - dist.cdf(x - r)) for r in radii[1:].tolist()
        ]
        assert ball_mass(dist, x, radii).tolist() == want

    def test_radius_array_in_two_dimensions(self):
        pp = ProductPareto(1.0, 1.0, 2)
        x = np.array([1.0, 2.0])
        radii = [0.25, 0.5, 1.0, 3.0]
        want = [ball_mass_with_error(pp, x, r)[0] for r in radii]
        assert ball_mass(pp, x, np.array(radii)).tolist() == want

    def test_product_pareto_monte_carlo(self):
        pp = ProductPareto(1.0, 1.0, 2)
        m, se = ball_mass_with_error(pp, np.array([0.0, 0.0]), 1.0)
        assert 0.0 < m < 1.0 and 0.0 < se < 0.01
        # exact value by coordinate integration over the quarter disc
        exact = quad(
            lambda x: Pareto(1, 1).density(x) * Pareto(1, 1).cdf(math.sqrt(1 - x * x)),
            0.0,
            1.0,
        )[0]
        assert abs(m - exact) <= 4 * se


class TestZeta:
    def test_uniform_linear(self):
        assert math.isclose(zeta(Uniform(0, 1), 0.5, 0.2), 0.1, rel_tol=1e-9)

    def test_uniform_whole_support(self):
        assert math.isclose(zeta(Uniform(0, 1), 0.5, 1.0), 0.5, rel_tol=1e-9)

    def test_exponential_log_two(self):
        assert math.isclose(
            zeta(Exponential(1.0), 0.0, 0.5), math.log(2.0), rel_tol=1e-9
        )

    def test_unreachable_mass_raises(self):
        # Par(0.1, 1) has mass ~0.94 inside the 2^40 bracket cap.
        with pytest.raises(RadiusSearchError):
            zeta(Pareto(0.1, 1.0), 0.0, 0.99)

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_generalized_inverse(self, dist):
        x = dist.support[0] + 0.4
        for h in (0.05, 0.2, 0.6):
            r = zeta(dist, x, h)
            assert ball_mass(dist, x, r) >= h
            assert ball_mass(dist, x, r) <= h + 1e-9
            assert ball_mass(dist, x, r * (1 - 1e-6)) < h

    # The benchmark's d = 2 points, plus a 1-D point on the exact CDF path.
    CASES = [
        (ProductPareto(1.0, 1.0, 2), (0.5, 0.5), 0.01),
        (ProductPareto(1.0, 1.0, 2), (1.0, 2.0), 0.01),
        (ProductPareto(1.0, 1.0, 2), (3.0, 0.25), 0.01),
        (ProductPareto(1.0, 1.0, 2), (5.0, 5.0), 0.01),
        (LogPareto(1.0, 1.0, 2.0), (2.5,), 0.3),
    ]

    @pytest.mark.parametrize("dist,x,h", CASES)
    def test_equals_per_step_ball_mass(self, dist, x, h):
        point = np.array(x) if dist.dimension > 1 else x[0]
        assert zeta(dist, point, h) == zeta_per_step(dist, point, h)

    def test_draws_one_sample_in_two_dimensions(self, monkeypatch):
        draws = []
        original = ProductPareto.sample_array

        def counting(self, rng, n):
            draws.append(n)
            return original(self, rng, n)

        monkeypatch.setattr(ProductPareto, "sample_array", counting)
        zeta(ProductPareto(1.0, 1.0, 2), np.array([1.0, 2.0]), 0.01)
        assert len(draws) == 1


class TestBisectionPpf:
    def test_log_pareto_regularity_grid(self):
        # One call for every level, and one call per level.
        dist = LogPareto(1.0, 1.0, 2.0)
        us = [(i + 0.5) / 50 for i in range(50)] + [1e-12, 1.0 - 1e-12]
        want = [ppf_bisection(dist, u) for u in us]
        assert dist.ppf(np.array(us)).tolist() == want
        assert [dist.ppf(u) for u in us] == want

    def test_beyond_the_cap_names_the_first_level(self):
        # x = 2 (1 - u)^-20 passes 2^40 from u = 0.75 on.
        dist = LogPareto(1.0, 0.05, 0.0)
        with pytest.raises(RadiusSearchError, match=r"u = 0\.75 "):
            dist.ppf(np.array([(i + 0.5) / 50 for i in range(50)]))


class TestLocalMass:
    @staticmethod
    def grids(dist, nx=50, nr=20):
        xs = [float(dist.ppf((i + 0.5) / nx)) for i in range(nx)]
        rs = [(j + 1) / nr for j in range(nr)]
        return xs, rs

    def test_pareto_passes_with_example_theta(self):
        dist = Pareto(1.0, 1.0)
        xs, rs = self.grids(dist)
        report = local_mass_check(dist, dist.local_mass_theta, xs, rs)
        assert report.passed
        assert report.min_ratio >= 1.0 / report.theta
        assert report.max_ratio <= report.theta

    def test_exponential_passes_with_example_theta(self):
        dist = Exponential(1.0)
        xs, rs = self.grids(dist)
        report = local_mass_check(dist, math.exp(1.0), xs, rs)
        assert report.passed

    def test_exponential_fails_with_tight_theta(self):
        dist = Exponential(1.0)
        xs, rs = self.grids(dist, nx=20, nr=10)
        report = local_mass_check(dist, 1.01, xs, rs)
        assert not report.passed
        assert len(report.failures) > 0

    @pytest.mark.parametrize("theta", [1.5, 100.0])
    @pytest.mark.parametrize(
        "dist",
        [Pareto(1.0, 1.0), Exponential(1.0), Uniform(-1.0, 3.0), LogPareto(1.0, 1.0, 2.0)],
        ids=str,
    )
    def test_equals_per_pair_loop(self, dist, theta):
        xs, rs = self.grids(dist)
        report = local_mass_check(dist, theta, xs, rs)
        got = (report.passed, report.min_ratio, report.max_ratio, report.n_checked)
        assert got + (report.failures,) == local_mass_check_loop(dist, theta, xs, rs)

    XS_2D = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 0.25]])

    @pytest.mark.parametrize("theta", [1.5, 100.0])
    def test_two_dimensions_equal_per_pair_loop(self, theta):
        pp = ProductPareto(1.0, 1.0, 2)
        rs = [0.25, 0.5, 1.0]
        report = local_mass_check(pp, theta, self.XS_2D, rs)
        got = (report.passed, report.min_ratio, report.max_ratio, report.n_checked)
        assert got + (report.failures,) == local_mass_check_loop(pp, theta, self.XS_2D, rs)

    def test_draws_once_per_x_in_two_dimensions(self, monkeypatch):
        draws = []
        original = ProductPareto.sample_array

        def counting(self, rng, n):
            draws.append(n)
            return original(self, rng, n)

        monkeypatch.setattr(ProductPareto, "sample_array", counting)
        local_mass_check(ProductPareto(1.0, 1.0, 2), 100.0, self.XS_2D, [0.25, 0.5, 1.0])
        assert len(draws) == len(self.XS_2D)

    def test_grid_outside_support_rejected(self):
        with pytest.raises(ValueError):
            local_mass_check(Uniform(0, 1), 2.0, [-0.5], [0.1])


class TestClosedFormIndices:
    def test_pareto_pair(self):
        assert closed_form_indices(Pareto(1, 1), Pareto(1, 1)) == (0.5, 0.5)

    def test_exponential_pair(self):
        assert closed_form_indices(Exponential(2.0), Exponential(1.0)) == (0.5, 1.0)

    def test_exponential_self(self):
        assert closed_form_indices(Exponential(3.0), Exponential(3.0)) == (1.0, 1.0)

    def test_uniform_equal_supports(self):
        assert closed_form_indices(Uniform(0, 1), Uniform(0, 1)) == (
            math.inf,
            math.inf,
        )

    def test_pareto_source_exponential_target(self):
        gamma, s = closed_form_indices(Pareto(1, 1), Exponential(1.0))
        assert gamma == math.inf and s == 1.0

    def test_log_pareto_pair(self):
        gamma, s = closed_form_indices(LogPareto(1, 1, 0), LogPareto(1, 1, 2))
        assert gamma == 0.5 and s == 0.5

    def test_unsupported_pair(self):
        with pytest.raises(NoClosedFormError):
            closed_form_indices(Exponential(1.0), Pareto(1, 1))
        with pytest.raises(NoClosedFormError):
            closed_form_indices(Uniform(0, 1), Uniform(0, 2))


class TestHolderFunctions:
    @pytest.mark.parametrize(
        "f", [holder_zero(), holder_constant(2.5), holder_parabola()], ids=str
    )
    def test_declared_budget_holds(self, f):
        rng = np.random.default_rng(404)
        assert holder_budget(f, rng) <= f.L * (1 + 1e-6)

    def test_parabola_matches_raw_on_unit_interval(self):
        f = holder_parabola()
        xs = np.linspace(0, 1, 101)
        assert np.allclose(f(xs), xs * (1 - xs), atol=0)

    def test_parabola_clamped_outside(self):
        f = holder_parabola()
        assert f(3.0) == 0.0 and f(-1.0) == 0.0


# One instance of each _FAMILIES entry, in table order, with its spec().
SPEC_PINS = [
    (Pareto(1.5, 2), {"family": "pareto", "alpha": 1.5, "sigma": 2}),
    (Exponential(0.5), {"family": "exponential", "lambda": 0.5}),
    (Uniform(-1.0, 3.0), {"family": "uniform", "a": -1.0, "b": 3.0}),
    (
        ProductPareto(1.0, 2.0, 3),
        {"family": "product_pareto", "alpha": 1.0, "sigma": 2.0, "d": 3},
    ),
    (LogPareto(1.0, 0.7, 2.0), {"family": "log_pareto", "a": 1.0, "b": 0.7, "c": 2.0}),
]


class TestJsonSpecs:
    @pytest.mark.parametrize("dist, spec", SPEC_PINS, ids=str)
    def test_spec_pinned(self, dist, spec):
        got = dist.spec()
        assert list(got) == list(spec)
        assert [(v, type(v)) for v in got.values()] == [(v, type(v)) for v in spec.values()]

    def test_spec_pins_cover_every_family(self):
        assert [(type(dist), spec["family"]) for dist, spec in SPEC_PINS] == [
            (cls, name) for name, (cls, _) in _FAMILIES.items()
        ]

    def test_round_trip(self):
        for dist in ONE_D_VARIANTS + [ProductPareto(1.0, 2.0, 3)]:
            again = family_from_spec(dist.spec())
            assert again == dist

    def test_unknown_family(self):
        with pytest.raises(ConfigError) as err:
            family_from_spec({"family": "gaussian"})
        assert "family" in str(err.value)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as err:
            family_from_spec({"family": "pareto", "alpha": 1.0, "sigma": 1.0, "x": 2})
        assert ".x" in str(err.value)

    def test_missing_field_named(self):
        with pytest.raises(ConfigError) as err:
            family_from_spec({"family": "exponential"})
        assert "lambda" in str(err.value)

    def test_noise_spec(self):
        spec = {"type": "gaussian", "sigma_e": 0.5}
        noise = noise_from_spec(spec)
        assert noise.sigma_e == 0.5
        draws = noise.sample(np.random.default_rng(0), 100_000)
        assert abs(float(draws.mean())) < 0.01
        assert abs(float(draws.var()) - 0.25) < 0.01

    def test_noise_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            noise_from_spec({"type": "gaussian", "sigma_e": -1.0})
