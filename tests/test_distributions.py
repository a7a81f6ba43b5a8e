import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (
    ball_mass_with_error,
    frozen_ball_mass,
    frozen_cdf,
    frozen_density,
    frozen_holder_call,
    frozen_holder_zero,
    frozen_log_density,
    frozen_ppf,
    frozen_zeta,
    local_mass_check_loop,
    log_density_loop,
    ppf_bisection,
    raw_cdf_integral_loop,
    zeta_per_step,
)
from transfer_knn import distributions
from transfer_knn.distributions import (
    _FAMILIES,
    Exponential,
    HolderFunction,
    LogPareto,
    Pareto,
    ProductPareto,
    Uniform,
    ball_mass,
    closed_form_indices,
    family_from_spec,
    holder_constant,
    holder_from_spec,
    holder_parabola,
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

    # The density bound D of the class P(D, theta) is the density at the
    # left end of the support, which the support rule keeps inside.

    @pytest.mark.parametrize("dist", ONE_D_VARIANTS, ids=str)
    def test_density_bound_holds_on_grid(self, dist):
        lo, hi = dist.support
        top = lo + 30.0 if math.isinf(hi) else hi
        xs = np.linspace(lo, top, 400)
        assert np.all(dist.density(xs) <= dist.density(lo) * (1 + 1e-12))

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
        lo = dist.support[0]
        if dist.dimension == 1:
            assert dist.density(lo) == formula
        else:
            # The d factors are multiplied in turn, which can differ from
            # the d-th power in the last bit.
            got = dist.density(np.full(dist.dimension, lo))
            assert math.isclose(got, formula, rel_tol=1e-15)

    @pytest.mark.parametrize(
        "dist", [LogPareto(1.0, 1.0, 2.0), LogPareto(1.0, 0.7, 0.0)], ids=str
    )
    def test_log_pareto_density_bound_is_density_at_two(self, dist):
        # The normaliser, checked against an independent quadrature.
        def raw(x):
            return x ** -(dist.b + 1.0) * math.log(x) ** -dist.c

        want = raw(2.0) / quad(raw, 2.0, math.inf)[0]
        assert math.isclose(dist.density(2.0), want, rel_tol=1e-9)

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


# Points where a support, NaN or scalar rule can go wrong: signed zeros,
# infinities, NaN, the float extremes and values either side of 0.
EDGE_POINTS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300,
    5e-324, -5e-324, -1.0, 0.5, 1.0, 2.0, 3.0,
]
# The 1-D variants and parameters at the float extremes.
RULE_FAMILIES = ONE_D_VARIANTS + [
    Pareto(1e-300, 1.0),
    Pareto(2.0, 1e-300),
    Exponential(1e300),
    Exponential(1e-300),
    Uniform(0.0, 5e-324),
]


def rule_points(dist):
    """EDGE_POINTS, the finite support ends with their neighbours, and
    random points near the left end and across scales."""
    rng = np.random.default_rng(2024)
    ends = [v for v in dist.support if math.isfinite(v)]
    return np.concatenate([
        EDGE_POINTS,
        with_neighbours(ends),
        dist.support[0] + 3.0 * rng.standard_normal(12),
        np.exp(rng.uniform(-5.0, 8.0, 12)),
    ])


def point_forms(xs):
    """Each point as a float, a numpy scalar and a 0-d array, then all of
    them as a list, a 1-D array and a 2-D array."""
    for x in xs.tolist():
        yield from (x, np.float64(x), np.array(x))
    yield from (xs.tolist(), xs, xs[: len(xs) // 2 * 2].reshape(-1, 2))


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def assert_same(got, want):
    """Same type, shape, dtype, values (NaN included) and signs of zero."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestOneSupportRule:
    """density, log_density, cdf, ball_mass, zeta and HolderFunction calls
    equal, bit for bit and sign of zero for sign of zero, the code they had
    when each family wrote out its own support, NaN and scalar rules and
    ball_mass and zeta each chose their own ball mass (the frozen_*
    oracles)."""

    @staticmethod
    def frozen(fn, *args):
        # The frozen LogPareto density overflows below x = 2.
        with np.errstate(all="ignore"):
            return outcome(fn, *args)

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_density_and_cdf(self, dist):
        for x in point_forms(rule_points(dist)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = (outcome(dist.density, x), outcome(dist.cdf, x))
            want = (self.frozen(frozen_density, dist, x), self.frozen(frozen_cdf, dist, x))
            assert_same(got[0], want[0])
            assert_same(got[1], want[1])

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_log_density(self, dist):
        for x in rule_points(dist).tolist():
            for form in (x, np.float64(x), np.array(x)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = outcome(dist.log_density, form)
                want = self.frozen(frozen_log_density, dist, form)
                if isinstance(dist, LogPareto) and dist.c == 0.0 and x == math.inf:
                    # The frozen code read -(b + 1) inf - 0 inf = NaN there,
                    # where density(inf) is 0.
                    want = -math.inf
                assert_same(got, want)

    def test_uniform_wider_than_a_float_refused(self):
        # b - a overflows, so the density 1 / (b - a) would be 0 on the
        # whole support and the cdf (x - a) / inf 0 up to b.
        for a, b in [(-1e308, 1e308), (0.0, math.inf), (-math.inf, 0.0)]:
            with pytest.raises(ValueError, match="width"):
                Uniform(a, b)
        # The widest finite width is kept, with a positive density.
        dist = Uniform(-8e307, 8e307)
        assert dist.density(0.0) == 1.0 / 1.6e308 > 0.0
        assert dist.cdf(dist.b) == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_density(self, d):
        dist = ProductPareto(1.5, 0.7, d)
        rows = rule_points(Pareto(1.5, 0.7))
        rows = rows[: len(rows) // d * d].reshape(-1, d)
        for x in [*rows, rows, rows.tolist()]:
            assert_same(dist.density(x), self.frozen(frozen_density, dist, x))
        assert_same(outcome(dist.cdf, 1.0), self.frozen(frozen_cdf, dist, 1.0))

    RADII = np.array([0.0, 5e-324, 1e-300, 0.25, 1.0, 7.5, 1e300, math.inf])

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_ball_mass(self, dist):
        points = rule_points(dist)[::2].tolist()
        radii = [*self.RADII.tolist(), self.RADII, self.RADII.reshape(4, 2), [-1.0, 1.0]]
        for c in points:
            for x in (c, np.float64(c), np.array([c]), np.array(c)):
                for r in radii:
                    with np.errstate(all="ignore"):
                        got = outcome(ball_mass, dist, x, r)
                    assert_same(got, self.frozen(frozen_ball_mass, dist, x, r))
        two = np.array([1.0, 2.0])
        assert_same(outcome(ball_mass, dist, two, 1.0), outcome(frozen_ball_mass, dist, two, 1.0))

    @pytest.mark.parametrize("dist", RULE_FAMILIES + [Pareto(0.1, 1.0)], ids=str)
    def test_zeta(self, dist):
        lo = dist.support[0]
        points = [lo, lo + 0.3, lo + 2.5, lo - 1.0, 40.0, math.nan, math.inf, -math.inf]
        for c in points:
            for h in (0.0, 0.05, 0.5, 0.99, 1.0):
                with np.errstate(all="ignore"):
                    got = outcome(zeta, dist, c, h)
                assert_same(got, self.frozen(frozen_zeta, dist, c, h))
        two = np.array([1.0, 2.0])
        assert_same(outcome(zeta, dist, two, 0.5), outcome(frozen_zeta, dist, two, 0.5))

    def test_two_dimensions(self):
        dist = ProductPareto(1.0, 1.0, 2)
        for x in (np.array([0.5, 0.5]), np.array([1.0, 2.0]), [3.0, 0.25]):
            for h in (0.01, 0.5):
                assert_same(zeta(dist, x, h), frozen_zeta(dist, x, h))
            for r in [0.0, 0.5, 1e300, self.RADII, self.RADII.reshape(2, 4)]:
                assert_same(ball_mass(dist, x, r), frozen_ball_mass(dist, x, r))

    HOLDERS = [
        holder_constant(2.5),
        holder_constant(-1.0, 2),
        holder_parabola(),
        holder_from_spec({"name": "zero"}),
        holder_from_spec({"name": "zero", "d": 3}),
        # Non-constant in every coordinate, in one and two dimensions.
        HolderFunction(lambda X: np.abs(X[:, 0] - 0.5), 1),
        HolderFunction(lambda X: np.linalg.norm(X - 0.5, axis=1), 2),
    ]

    @pytest.mark.parametrize("f", HOLDERS, ids=lambda f: f"d{f.dimension}")
    def test_holder_call(self, f):
        rng = np.random.default_rng(7)
        rows = 2.0 * rng.random((6, f.dimension)) - 0.25
        rows[0, 0], rows[1, -1] = -0.0, math.nan
        if f.dimension == 1:
            forms = [*point_forms(rows[:, 0]), rows]
        else:
            forms = [rows[0], rows[0].tolist(), rows, rows.tolist()]
        for x in forms:
            assert_same(f(x), frozen_holder_call(f, x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_spec_is_constant_zero(self, d):
        f, old = holder_from_spec({"name": "zero", "d": d}), frozen_holder_zero(d)
        assert f.dimension == old.dimension
        X = np.random.default_rng(d).random((5, d))
        assert_same(f(X), old(X))

    @pytest.mark.parametrize("dist", LOG_PARETO_VARIANTS, ids=str)
    def test_log_pareto_below_two_is_silent(self, dist):
        # The formula overflows at x = 1e-300; the frozen density warned.
        with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
            frozen_density(dist, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dist.density(1e-300) == 0.0


# Levels where a quantile rule can go wrong: the ends of [0, 1], the
# last float below 1, signed zero, NaN and levels outside [0, 1].
EDGE_LEVELS = np.array(
    [0.0, -0.0, 0.5, 1.0 - 2.0**-53, 1.0, 5e-324, -0.5, 1.5, -math.inf, math.inf, math.nan]
)
# Levels inside (0, 1), where the bisection runs.
INNER_LEVELS = np.array([1e-12, 0.05, 0.25, 0.5, 0.75, 0.9])
# Quantiles that pass the largest float, at levels below 1.
OVERFLOWING_1D = [Exponential(1e-308), Pareto(1e-10, 1.0)]


class TestOneQuantileRule:
    """ppf and the inverse-cdf draws equal, bit for bit and sign of zero
    for sign of zero, the code they had when Pareto, Exponential and
    Uniform each wrote out their own ppf (frozen_ppf), and warn nothing."""

    @pytest.mark.parametrize("dist", RULE_FAMILIES + OVERFLOWING_1D, ids=str)
    def test_ppf(self, dist):
        for u in [*point_forms(EDGE_LEVELS), *point_forms(INNER_LEVELS)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = outcome(dist.ppf, u)
            with np.errstate(all="ignore"):
                assert_same(got, outcome(frozen_ppf, dist, u))

    @pytest.mark.parametrize(
        "dist", OVERFLOWING_1D + [ProductPareto(1e-3, 1.0, 2)], ids=str
    )
    def test_overflowing_draws_are_silent_infinities(self, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist.sample_array(np.random.default_rng(11), 500)
        us = np.random.default_rng(11).random((500, dist.dimension))
        with np.errstate(all="ignore"):
            assert_same(got, frozen_ppf(getattr(dist, "_factor", dist), us))
        assert np.isinf(got).any()

    @pytest.mark.parametrize("c", [0.0, 0.5])
    def test_log_pareto_draws_are_silent(self, c):
        # The envelope draw x = 2 u^-1000 overflows for u < 0.49; such a
        # draw is kept at c = 0 and rejected at c > 0, where its
        # acceptance probability (log 2 / log x)^c is 0.
        dist = LogPareto(1.0, 1e-3, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist.sample_array(np.random.default_rng(3), 50)
        assert got.shape == (50, 1) and np.all(got >= 2.0)
        assert np.isinf(got).any() == (c == 0.0)

    def test_family_methods_are_formulas_only(self):
        for cls in (Pareto, Exponential, Uniform):
            assert "ppf" not in vars(cls) and "_ppf" in vars(cls)
        assert "cdf" not in vars(LogPareto) and "_cdf" in vars(LogPareto)
        for cls in (Pareto, Exponential, Uniform, LogPareto):
            assert "log_density" not in vars(cls) and "_log_pdf" in vars(cls)


# The benchmark's four d = 2 zeta points.
NUMERICS_POINTS = [(0.5, 0.5), (1.0, 2.0), (3.0, 0.25), (5.0, 5.0)]


class TestOneBisection:
    """zeta and the bisection ppf equal, type, value and sign bit for sign
    bit, the code they had when each ran its own bracket-and-bisect loop
    (frozen_zeta, frozen_ppf), warn nothing, and each call makes one
    _bisect_levels call."""

    @staticmethod
    def check(call, frozen_call):
        """call's outcome, which must equal frozen_call's and warn nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(call)
        with np.errstate(all="ignore"):
            assert_same(got, outcome(frozen_call))
        return got

    @pytest.mark.parametrize("x", NUMERICS_POINTS)
    def test_zeta_at_the_numerics_points(self, x):
        dist, x = ProductPareto(1.0, 1.0, 2), np.array(x)
        for h in (0.01, 0.5, 1.0):
            self.check(lambda: zeta(dist, x, h), lambda: frozen_zeta(dist, x, h))

    def test_beyond_the_cap(self):
        # Pareto(0.1, 1) has mass ~0.94 inside the cap; LogPareto(1, 0.05, 0)
        # has x = 2 (1 - u)^-20 past it from u = 0.75 on.
        dist = Pareto(0.1, 1.0)
        got = self.check(
            lambda: zeta(dist, 0.0, 0.99), lambda: frozen_zeta(dist, 0.0, 0.99)
        )
        assert got == (RadiusSearchError, "no radius <= 1.09951e+12 reaches mass 0.99")
        dist = LogPareto(1.0, 0.05, 0.0)
        for u in (0.75, np.array([0.5, 0.75, 0.8])):
            got = self.check(lambda: dist.ppf(u), lambda: frozen_ppf(dist, u))
            text = "quantile u = 0.75 lies beyond the bracket cap x = 1.09951e+12"
            assert got == (RadiusSearchError, text)

    @pytest.mark.parametrize(
        "dist", ONE_D_VARIANTS + [ProductPareto(1.0, 1.0, 2)], ids=str
    )
    def test_nan_centre(self, dist):
        x = math.nan if dist.dimension == 1 else np.array([math.nan, 1.0])
        for h in (0.05, 0.5, 1.0):
            self.check(lambda: zeta(dist, x, h), lambda: frozen_zeta(dist, x, h))

    def test_one_search_per_call(self, monkeypatch):
        searches = []
        original = distributions._bisect_levels

        def counting(*args, **kwargs):
            searches.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(distributions, "_bisect_levels", counting)
        calls = [
            lambda: zeta(Uniform(0.0, 1.0), 0.5, 0.2),
            lambda: zeta(LogPareto(1.0, 1.0, 2.0), 2.5, 0.3),
            lambda: zeta(ProductPareto(1.0, 1.0, 2), np.array([1.0, 2.0]), 0.01),
            lambda: LogPareto(1.0, 1.0, 2.0).ppf(0.3),
            lambda: LogPareto(1.0, 1.0, 2.0).ppf(np.array([[0.1, 0.5], [0.9, 0.99]])),
        ]
        for call in calls:
            searches.clear()
            call()
            assert len(searches) == 1
        # A closed-form quantile does not search.
        searches.clear()
        Pareto(1.0, 1.0).ppf(np.array([0.1, 0.5]))
        assert searches == []


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

    def test_product_pareto_flat_points_are_rows(self):
        # A 1-D array of two points is two rows, as density reads it.
        P = ProductPareto(1.0, 1.0, 2)
        got = P.log_density([0.5, 0.5, 1.0, 2.0])
        assert got.shape == (2,) == P.density([0.5, 0.5, 1.0, 2.0]).shape
        assert got.tolist() == [P.log_density([0.5, 0.5]), P.log_density([1.0, 2.0])]


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
    def test_parabola_matches_raw_on_unit_interval(self):
        f = holder_parabola()
        xs = np.linspace(0, 1, 101)
        assert np.allclose(f(xs), xs * (1 - xs), atol=0)

    def test_parabola_clamped_outside(self):
        f = holder_parabola()
        assert f(3.0) == 0.0 and f(-1.0) == 0.0


# One instance of each _FAMILIES entry, in table order, with the spec that
# family_from_spec reads into it.
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
        assert family_from_spec(spec) == dist

    def test_spec_pins_cover_every_family(self):
        assert [(type(dist), spec["family"]) for dist, spec in SPEC_PINS] == [
            (cls, name) for name, (cls, _) in _FAMILIES.items()
        ]

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
