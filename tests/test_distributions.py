import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from conftest import ball_mass_with_error, local_mass_check_loop, log_pareto_tail
from transfer_knn import distributions
from transfer_knn.distributions import (
    _FAMILIES,
    DistributionFamily,
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
    def test_unresolved_refused(self, monkeypatch, b):
        calls = count_improper_quad(monkeypatch)
        with pytest.raises(ValueError, match="not resolved by quadrature"):
            LogPareto(1.0, b, 0.0)._norm
        # No refusal is remembered: each family recomputes it and refuses again.
        for _ in range(2):
            with pytest.raises(ConfigError, match="'distribution'"):
                family_from_spec({"family": "log_pareto", "a": 1, "b": b, "c": 0})
        assert len(calls) == 3

    def test_equal_b_and_c_share_one_quadrature(self, monkeypatch):
        calls = count_improper_quad(monkeypatch)
        first = LogPareto(1.0, 1.0, 2.0)._norm
        # a does not enter the density, so a family with another a reuses it.
        assert LogPareto(3.0, 1.0, 2.0)._norm == first
        assert LogPareto(1, 1, 2)._norm == first
        assert len(calls) == 1
        assert LogPareto(1.0, 1.0, 0.0)._norm != first
        assert len(calls) == 2


def count_improper_quad(monkeypatch) -> list:
    """The arguments of every improper_quad call the distributions make from here on."""
    calls, real = [], distributions.improper_quad
    monkeypatch.setattr(
        distributions, "improper_quad", lambda *args: calls.append(args) or real(*args)
    )
    return calls


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


def scipy_reference(dist):
    """scipy.stats' frozen counterpart of a Pareto, Exponential or Uniform."""
    if isinstance(dist, Pareto):
        return stats.lomax(dist.alpha, scale=dist.sigma)
    if isinstance(dist, Exponential):
        return stats.expon(scale=1.0 / dist.lam)
    return stats.uniform(dist.a, dist.b - dist.a)


def log_pareto_reference(dist, name, xs):
    """LogPareto's pdf, logpdf or cdf at points x >= 2 from the E_c closed
    forms, with Z = log_pareto_tail(b, c, log 2)."""
    t = np.log(xs)
    z = log_pareto_tail(dist.b, dist.c, math.log(2.0))
    if name == "cdf":
        return 1.0 - log_pareto_tail(dist.b, dist.c, t) / z
    # With c = 0 the log term is absent: 0 * log(log(inf)) would be NaN.
    log_pdf = -(dist.b + 1.0) * t - (dist.c * np.log(t) if dist.c else 0.0) - math.log(z)
    return log_pdf if name == "logpdf" else np.exp(log_pdf)


def expected(dist, name, xs):
    """The reference pdf, logpdf or cdf at each point of xs, as a flat array.

    The support rule is written out: outside the support a density is 0
    and a log density -inf, and a cdf is 0 below it and 1 from its upper
    end on; a NaN point stays NaN.  Inside, the value is scipy.stats' or
    LogPareto's closed form.
    """
    lo, hi = dist.support
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    out = np.full(len(xs), math.nan)
    ends = {"pdf": (0.0, 0.0), "logpdf": (-math.inf, -math.inf), "cdf": (0.0, 1.0)}
    below, beyond = ends[name]
    top = xs >= hi if name == "cdf" else xs > hi
    out[xs < lo], out[top] = below, beyond
    inside = (xs >= lo) & ~top
    # The references' own overflows, at the far tail, are not the library's.
    with np.errstate(all="ignore"):
        if isinstance(dist, LogPareto):
            out[inside] = log_pareto_reference(dist, name, xs[inside])
        else:
            ref = scipy_reference(dist)
            out[inside] = getattr(ref, name)(xs[inside])
    return out


# The tolerances against the references.  LogPareto's are set by its
# normaliser, which is a quadrature.
TOLERANCES = {
    "pdf": dict(rtol=1e-13),
    "logpdf": dict(rtol=1e-13),
    "cdf": dict(atol=1e-15),
    "ppf": dict(rtol=1e-13),
}
LOG_PARETO_TOLERANCES = {
    "pdf": dict(rtol=3e-13),
    "logpdf": dict(atol=3e-13),
    "cdf": dict(atol=3e-13),
}


def tolerance(dist, name):
    return (LOG_PARETO_TOLERANCES if isinstance(dist, LogPareto) else TOLERANCES)[name]


def point_cases(xs, want):
    """(form, expected) pairs: each point as a float, a numpy scalar and a
    0-d array, which give a float, then all of them as a list, a 1-D array
    and a 2-D array, which give a float64 array of that shape."""
    for x, w in zip(xs.tolist(), want.tolist()):
        for form in (x, np.float64(x), np.array(x)):
            yield form, w
    even = len(xs) // 2 * 2
    yield xs.tolist(), want
    yield xs, want
    yield xs[:even].reshape(-1, 2), want[:even].reshape(-1, 2)


def outcome(fn, *args):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc), str(exc))


def assert_close(got, want, rtol=0.0, atol=0.0):
    """got has want's type (and, for an array, shape and dtype), and values
    within tolerance: NaN where want is NaN, the same infinity where it is
    infinite."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol, equal_nan=True)


def silently(fn, *args):
    """fn's outcome, which must warn nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(fn, *args)


def disc_mass(dist, c, r: float) -> float:
    """P{|X - c| <= r} for a d = 2 ProductPareto, by 1-D quadrature over the
    first coordinate of lomax's mass on the disc's chord in the second."""
    F = stats.lomax(dist.alpha, scale=dist.sigma)
    (c1, c2), lo = c, max(c[0] - r, 0.0)
    if not lo < c1 + r:
        return 0.0

    def chord(x1):
        w = math.sqrt(max(r * r - (x1 - c1) ** 2, 0.0))
        return F.pdf(x1) * (F.cdf(c2 + w) - F.cdf(c2 - w))

    return quad(chord, lo, c1 + r, epsabs=0.0, epsrel=1e-10, limit=200)[0]


def assert_within_monte_carlo(got: float, exact: float):
    """got within 4 standard errors of exact for _BALL_MC_DRAWS draws."""
    stderr = math.sqrt(exact * (1.0 - exact) / distributions._BALL_MC_DRAWS)
    assert abs(got - exact) <= 4.0 * stderr + 1e-15, (got, exact)


def count_draws(monkeypatch) -> list:
    """The size of every ProductPareto draw from here on, in order."""
    draws = []
    original = ProductPareto.sample_array

    def counting(self, rng, n):
        draws.append(n)
        return original(self, rng, n)

    monkeypatch.setattr(ProductPareto, "sample_array", counting)
    return draws


class TestOneSupportRule:
    """density, log_density, cdf, ball_mass, zeta and HolderFunction calls
    against references that share no code with the library: scipy.stats
    for Pareto (lomax), Exponential (expon) and Uniform, the E_c closed
    forms for LogPareto, a 1-D quadrature for the d = 2 ball mass, and the
    support, NaN and scalar rules written out as expected values.  No call
    warns."""

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_density_and_cdf(self, dist):
        xs = rule_points(dist)
        for name, method in (("pdf", dist.density), ("cdf", dist.cdf)):
            for x, want in point_cases(xs, expected(dist, name, xs)):
                assert_close(silently(method, x), want, **tolerance(dist, name))

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_log_density(self, dist):
        xs = rule_points(dist)
        want = expected(dist, "logpdf", xs).tolist()
        for x, w in zip(xs.tolist(), want):
            for form in (x, np.float64(x), np.array(x)):
                assert_close(silently(dist.log_density, form), w, **tolerance(dist, "logpdf"))

    def test_log_density_past_the_largest_float(self):
        # The density of Uniform(0, 5e-324) is 2.02e323, past the largest
        # float; its log is -log(5e-324) = 744.44.
        assert Uniform(0.0, 5e-324).log_density(0.0) == pytest.approx(
            744.4400719213812, rel=1e-13
        )

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
        factor = Pareto(1.5, 0.7)
        rows = rule_points(factor)
        rows = rows[: len(rows) // d * d].reshape(-1, d)
        want = np.prod(expected(factor, "pdf", rows).reshape(rows.shape), axis=1)
        for x, w in [*zip(rows, want.tolist()), (rows, want), (rows.tolist(), want)]:
            assert_close(dist.density(x), w, rtol=d * 1e-13)
        assert outcome(dist.cdf, 1.0) == (NotImplementedError, "ProductPareto has no 1-D CDF")

    RADII = np.array([0.0, 5e-324, 1e-300, 0.25, 1.0, 7.5, 1e300, math.inf])

    @pytest.mark.parametrize("dist", RULE_FAMILIES, ids=str)
    def test_ball_mass(self, dist):
        # The mass of [c - r, c + r] is a difference of two reference cdf
        # values, so it carries twice their tolerance; it is 0 at r = 0.
        atol = 2.0 * tolerance(dist, "cdf")["atol"]
        radii = self.RADII
        for c in rule_points(dist)[::2].tolist():
            with np.errstate(invalid="ignore"):  # inf - inf at c = r = inf
                ends = expected(dist, "cdf", c + radii) - expected(dist, "cdf", c - radii)
            want = np.where(radii > 0.0, ends, 0.0)
            cases = [*zip(radii.tolist(), want.tolist()), (radii, want)]
            cases.append((radii.reshape(4, 2), want.reshape(4, 2)))
            for x in (c, np.float64(c), np.array([c]), np.array(c)):
                for r, w in cases:
                    with np.errstate(all="ignore"):
                        assert_close(ball_mass(dist, x, r), w, atol=atol)
                negative = outcome(ball_mass, dist, x, [-1.0, 1.0])
                assert negative == (ValueError, "radius must be nonnegative")
        two = outcome(ball_mass, dist, np.array([1.0, 2.0]), 1.0)
        assert two == (ValueError, "1-D distribution expects a 1-D point")

    @pytest.mark.parametrize("dist", RULE_FAMILIES + [Pareto(0.1, 1.0)], ids=str)
    def test_zeta(self, dist):
        atol = 2.0 * tolerance(dist, "cdf")["atol"]

        def mass(c, r):
            with np.errstate(invalid="ignore"):
                return (expected(dist, "cdf", c + r) - expected(dist, "cdf", c - r))[0]

        lo = dist.support[0]
        assert outcome(zeta, dist, lo, 0.0) == (ValueError, "h must lie in (0, 1]")
        for c in [lo, lo + 0.3, lo + 2.5, lo - 1.0, 40.0, math.inf, -math.inf]:
            for h in (0.05, 0.5, 0.99, 1.0):
                with np.errstate(all="ignore"):
                    got = outcome(zeta, dist, c, h)
                if math.isinf(c):  # no radius, refused before any search
                    assert got == (ValueError, f"zeta centre {c} is not finite")
                    continue
                if isinstance(got, tuple):
                    text = f"no radius <= 1.09951e+12 reaches mass {h}"
                    assert got == (RadiusSearchError, text)
                    assert mass(c, distributions.ZETA_BRACKET_CAP) < h + atol
                    continue
                # The smallest radius whose mass reaches h.  The search
                # halves [0, 1] at most 200 times, so where the mass jumps
                # past h below 2^-200 it stops there.
                assert type(got) is float
                assert mass(c, got) >= h - atol
                assert mass(c, got * (1.0 - 1e-12)) < h + atol or got == 2.0**-200
        two = outcome(zeta, dist, np.array([1.0, 2.0]), 0.5)
        assert two == (ValueError, "1-D distribution expects a 1-D point")

    def test_two_dimensions(self):
        dist = ProductPareto(1.0, 1.0, 2)
        for x in (np.array([0.5, 0.5]), np.array([1.0, 2.0]), [3.0, 0.25]):
            for h in (0.01, 0.5):
                r = zeta(dist, x, h)
                assert type(r) is float and ball_mass(dist, x, r) >= h
                assert_within_monte_carlo(h, disc_mass(dist, x, r))
            masses = ball_mass(dist, x, self.RADII)
            assert masses.shape == self.RADII.shape and masses[0] == 0.0
            assert masses[-2:].tolist() == [1.0, 1.0]
            for r, got in zip(self.RADII[1:-2].tolist(), masses[1:-2].tolist()):
                assert_within_monte_carlo(got, disc_mass(dist, x, r))
                assert ball_mass(dist, x, r) == got
            assert_close(ball_mass(dist, x, self.RADII.reshape(2, 4)), masses.reshape(2, 4))

    # Each built-in or plain f_star with its formula written out.
    HOLDERS = [
        (holder_constant(2.5), lambda X: np.full(len(X), 2.5)),
        (holder_constant(-1.0, 2), lambda X: np.full(len(X), -1.0)),
        (holder_parabola(), lambda X: np.clip(X[:, 0], 0, 1) * (1 - np.clip(X[:, 0], 0, 1))),
        (holder_from_spec({"name": "zero"}), lambda X: np.zeros(len(X))),
        (holder_from_spec({"name": "zero", "d": 3}), lambda X: np.zeros(len(X))),
        # Non-constant in every coordinate, in one and two dimensions.
        (HolderFunction(lambda X: np.abs(X[:, 0] - 0.5), 1), None),
        (HolderFunction(lambda X: np.linalg.norm(X - 0.5, axis=1), 2), None),
    ]

    @pytest.mark.parametrize("case", HOLDERS, ids=lambda case: f"d{case[0].dimension}")
    def test_holder_call(self, case):
        f, formula = case
        formula = formula or f.fn
        rng = np.random.default_rng(7)
        rows = 2.0 * rng.random((6, f.dimension)) - 0.25
        rows[0, 0], rows[1, -1] = -0.0, math.nan
        want = formula(rows)
        if f.dimension == 1:
            xs = rows[:, 0]
            cases = [
                (form, w)
                for x, w in zip(xs.tolist(), want.tolist())
                for form in (x, np.float64(x), np.array(x))
            ]
            # Any array is read as rows of one coordinate each.
            cases += [(xs.tolist(), want), (xs, want), (xs.reshape(3, 2), want), (rows, want)]
        else:
            cases = [(rows[0], want[:1]), (rows[0].tolist(), want[:1]), (rows, want)]
            cases.append((rows.tolist(), want))
        for x, w in cases:
            assert_close(f(x), w)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_spec_is_constant_zero(self, d):
        f = holder_from_spec({"name": "zero", "d": d})
        assert f.dimension == d
        X = np.random.default_rng(d).random((5, d))
        assert_close(f(X), np.zeros(5))

    @pytest.mark.parametrize("dist", LOG_PARETO_VARIANTS, ids=str)
    def test_log_pareto_below_two_is_silent(self, dist):
        # The formula x^-(b+1) overflows at x = 1e-300; the density is 0 there.
        with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
            np.power(np.float64(1e-300), -(dist.b + 1.0))
        assert silently(dist.density, 1e-300) == 0.0


# Levels where a quantile rule can go wrong: the ends of [0, 1], the
# last float below 1, signed zero and NaN; then levels outside [0, 1].
EDGE_LEVELS = np.array([0.0, -0.0, 0.5, 1.0 - 2.0**-53, 1.0, 5e-324, math.nan])
OUTSIDE_LEVELS = [-0.5, 1.5, -math.inf, math.inf]
# Levels inside (0, 1), where the bisection runs.
INNER_LEVELS = np.array([1e-12, 0.05, 0.25, 0.5, 0.75, 0.9])
# Quantiles that pass the largest float, at levels below 1.
OVERFLOWING_1D = [Exponential(1e-308), Pareto(1e-10, 1.0)]


class TestOneQuantileRule:
    """ppf and the inverse-cdf draws against scipy.stats and LogPareto's
    closed-form cdf, and warn nothing."""

    @pytest.mark.parametrize("dist", RULE_FAMILIES + OVERFLOWING_1D, ids=str)
    def test_ppf(self, dist):
        levels = np.concatenate([INNER_LEVELS, EDGE_LEVELS])
        if isinstance(dist, LogPareto):
            # The bisection takes levels in (0, 1) only.  Its quantile at
            # 1 - 2^-53 lies past the bracket cap (see test_beyond_the_cap).
            inner = (0.0 < levels) & (levels < 0.95)
            for u in levels[~inner & (levels != 1.0 - 2.0**-53)].tolist() + OUTSIDE_LEVELS:
                text = "ppf argument must lie in (0, 1)"
                assert silently(dist.ppf, u) == (ValueError, text)
            got = silently(dist.ppf, levels[inner])
            for u, x in zip(levels[inner].tolist(), got.tolist()):
                assert dist.ppf(u) == x
            # The quantile inverts the closed-form cdf.
            want = expected(dist, "cdf", got)
            np.testing.assert_allclose(want, levels[inner], rtol=0, **tolerance(dist, "cdf"))
            return
        # The ends of [0, 1] give the ends of the support; NaN gives NaN.
        ref = scipy_reference(dist)
        with np.errstate(all="ignore"):
            want = ref.ppf(levels)
        # Pareto's 1 - u cancels near u = 0 (ROADMAP item 17): there the
        # level of its quantile is checked, and test_pareto_ppf_near_zero
        # holds its value.
        ill = isinstance(dist, Pareto) & (0.0 < levels) & (levels < 0.05)
        for u, w in point_cases(levels[~ill], want[~ill]):
            assert_close(silently(dist.ppf, u), w, **TOLERANCES["ppf"])
        got = silently(dist.ppf, levels[ill])
        finite = np.isfinite(got)
        np.testing.assert_allclose(ref.cdf(got[finite]), levels[ill][finite], rtol=0, atol=1e-15)
        # Levels outside [0, 1] are not quantiles: NaN, as scipy's.
        want = ref.ppf(OUTSIDE_LEVELS)
        assert np.isnan(want).all()
        for u, w in point_cases(np.array(OUTSIDE_LEVELS), want):
            assert_close(silently(dist.ppf, u), w)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: Pareto's ppf forms 1 - u, which cancels near u = 0",
    )
    @pytest.mark.parametrize(
        "dist", [Pareto(1.0, 1.0), Pareto(3.0, 2.0), Pareto(1e-10, 1.0)], ids=str
    )
    def test_pareto_ppf_near_zero(self, dist):
        # lomax's ppf is sigma expm1(-log1p(-u) / alpha).
        ref = scipy_reference(dist)
        np.testing.assert_allclose(dist.ppf(1e-12), ref.ppf(1e-12), rtol=1e-13)

    @pytest.mark.parametrize(
        "dist", OVERFLOWING_1D + [ProductPareto(1e-3, 1.0, 2)], ids=str
    )
    def test_overflowing_draws_are_silent_infinities(self, dist):
        factor = getattr(dist, "_factor", dist)
        got = silently(dist.sample_array, np.random.default_rng(11), 500)
        us = np.random.default_rng(11).random((500, dist.dimension))
        # The draws are the quantiles of the generator's levels, and
        # infinite exactly where the reference quantile passes the
        # largest float.
        assert np.array_equal(got.reshape(us.shape), factor.ppf(us))
        with np.errstate(over="ignore"):
            want = scipy_reference(factor).ppf(us)
        assert np.array_equal(np.isinf(got), want.reshape(got.shape) == math.inf)
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
    """zeta and the bisection ppf against the reference masses, with the
    errors and the NaN rule as explicit expected values; each warns
    nothing and makes one _bisect_levels call."""

    @pytest.mark.parametrize("x", NUMERICS_POINTS)
    def test_zeta_at_the_numerics_points(self, x):
        # The Monte Carlo mass at zeta reaches h; the exact mass there is
        # within the draws' standard error of h.
        dist, x = ProductPareto(1.0, 1.0, 2), np.array(x)
        for h in (0.01, 0.5, 1.0):
            r = silently(zeta, dist, x, h)
            assert type(r) is float and ball_mass(dist, x, r) >= h
            exact = disc_mass(dist, x, r)
            if h < 1.0:
                assert_within_monte_carlo(h, exact)
            else:  # the ball holds every draw; its exact mass misses ~1e-5
                assert 1.0 - 1e-4 < exact <= 1.0

    def test_beyond_the_cap(self):
        # Pareto(0.1, 1) has mass 1 - (1 + 2^40)^-0.1 = 0.94 inside the cap;
        # LogPareto(1, 0.05, 0) has x = 2 (1 - u)^-20 past it from u = 0.75 on.
        dist = Pareto(0.1, 1.0)
        assert scipy_reference(dist).cdf(distributions.ZETA_BRACKET_CAP) < 0.99
        got = silently(zeta, dist, 0.0, 0.99)
        assert got == (RadiusSearchError, "no radius <= 1.09951e+12 reaches mass 0.99")
        dist = LogPareto(1.0, 0.05, 0.0)
        for u in (0.75, np.array([0.5, 0.75, 0.8])):
            text = "quantile u = 0.75 lies beyond the bracket cap x = 1.09951e+12"
            assert silently(dist.ppf, u) == (RadiusSearchError, text)

    @pytest.mark.parametrize(
        "dist", ONE_D_VARIANTS + [ProductPareto(1.0, 1.0, 2)], ids=str
    )
    def test_nan_centre(self, dist, monkeypatch):
        # A NaN or infinite centre has no radius.  It is refused, naming the
        # centre, before any draw or bisection: neither may be called.
        monkeypatch.setattr(distributions, "_mass_at", None)
        monkeypatch.setattr(distributions, "_bisect_levels", None)
        if dist.dimension == 1:
            cases = [(math.nan, "nan"), (-math.inf, "-inf")]
        else:
            cases = [
                (np.array([math.nan, 1.0]), "[nan, 1.0]"),
                (np.array([1.0, math.inf]), "[1.0, inf]"),
            ]
        for centre, text in cases:
            for h in (0.05, 0.5, 1.0):
                got = silently(zeta, dist, centre, h)
                assert got == (ValueError, f"zeta centre {text} is not finite")

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
        # The sum of lomax's coordinate log densities; -inf outside the support.
        want = scipy_reference(Pareto(1.5, 0.7)).logpdf(X).sum(axis=1)
        want[(X < 0.0).any(axis=1)] = -math.inf
        got = P.log_density(X)
        assert got[1] == -math.inf and got[2] == -math.inf
        # A row near 0 is a difference of terms near 1, and keeps their
        # absolute rounding.
        np.testing.assert_allclose(got, want, rtol=d * 1e-13, atol=d * 1e-15)
        for i in range(4):
            row = P.log_density(X[i])
            assert isinstance(row, float) and row == got[i]

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
        # Each one-point call equals the same point of an array call, and
        # both the E_c closed form, out to x = e^690 and either side of the
        # x where a panel is added.
        rng = np.random.default_rng(17)
        xs = np.concatenate(
            [
                [1.0, 1.5, 2.0, 2.5],
                np.exp(rng.uniform(math.log(2.0), 690.0, 300)),
                with_neighbours(PANEL_EDGES[::37]),
            ]
        )
        got = np.array([dist.cdf(x) for x in xs.tolist()])
        assert np.array_equal(got, dist.cdf(xs))
        np.testing.assert_allclose(got, expected(dist, "cdf", xs), rtol=0, atol=3e-13)

    @pytest.mark.parametrize(
        "dist, x, want",
        [
            # lomax(1).cdf(1e-12) = -expm1(-log1p(1e-12)) = 1e-12 - 1e-24.
            (Pareto(1.0, 1.0), 1e-12, 9.99999999999e-13),
            # 1 - 2^-1e-300 = 1e-300 log 2.
            (Pareto(1e-300, 1.0), 1.0, 6.931471805599453e-301),
        ],
        ids=str,
    )
    def test_pareto_near_zero(self, dist, x, want):
        # The cdf 1 - (1 + x/sigma)^-alpha cancelled here: 8.9e-5 too high
        # at 1e-12, and 0.0 for Pareto(1e-300, 1).
        assert want == pytest.approx(scipy_reference(dist).cdf(x), rel=1e-13, abs=0)
        assert dist.cdf(x) == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("dist", [Pareto(1.0, 1.0), Exponential(1.0)], ids=str)
    def test_signed_zero_is_zero(self, dist):
        # x = -0.0 is the left end of the support, where the cdf is +0.0.
        for x in (0.0, -0.0):
            got = dist.cdf(x)
            assert got == 0.0 and not math.copysign(1.0, got) < 0.0

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

    def test_log_pareto_blocks_of_mixed_panel_counts(self, monkeypatch):
        # Panel counts 1 to 2,761, shuffled, in one call, with the default
        # blocks and split into blocks of at most 64 padded panels: each
        # point as its own call gives it.
        dist = LogPareto(1.0, 1.0, 2.0)
        rng = np.random.default_rng(29)
        xs = rng.permutation(
            np.concatenate(
                [
                    with_neighbours(PANEL_EDGES[[0, 1, 2, 7, 100, 1000, -1]]),
                    np.exp(rng.uniform(math.log(2.0), math.log(1e300), 200)),
                    [2.0, 2.1, 1e300, math.nan, math.inf],
                ]
            )
        )
        one_by_one = [dist.cdf(x) for x in xs.tolist()]
        assert np.array_equal(dist.cdf(xs), one_by_one, equal_nan=True)
        monkeypatch.setattr(LogPareto, "_NODE_BLOCK", 7 * 64)
        assert np.array_equal(dist.cdf(xs), one_by_one, equal_nan=True)
        panels = np.ceil((np.log(xs[xs > 2.0]) - math.log(2.0)) / 0.25)
        assert panels.min() == 1 and panels[np.isfinite(panels)].max() == 2761

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

    @pytest.mark.parametrize(
        "dist,x", [(Pareto(1.0, 1.0), 1.0), (ProductPareto(1.0, 1.0, 2), [1.0, 2.0])], ids=str
    )
    def test_nan_radius_rejected_as_negative(self, dist, x):
        for r in (math.nan, [0.5, math.nan]):
            assert outcome(ball_mass, dist, x, r) == (ValueError, "radius must be nonnegative")

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


    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 10: d >= 2 ball masses below 1e-4 read 0"
    )
    def test_small_ball_in_two_dimensions(self):
        # p pi r^2 = 6.2e-7 at p(0.5, 0.5) = 0.1975; none of the 1e5 draws lands.
        # python -c "import mpmath as m; m.mp.dps = 30; F = lambda x: 1 - 1 / (1 + x);
        #   r, c = m.mpf('1e-3'), m.mpf('0.5'); w = lambda x: m.sqrt(r * r - (x - c) ** 2);
        #   print(m.quad(lambda x: (F(c + w(x)) - F(c - w(x))) / (1 + x) ** 2,
        #       [c - r, c, c + r]))"
        got = ball_mass(ProductPareto(1.0, 1.0, 2), np.array([0.5, 0.5]), 1e-3)
        assert got == pytest.approx(6.20561925528079811e-7, rel=1e-3, abs=0)


    @pytest.mark.parametrize("d", range(2, 8))
    def test_distances_equal_numpy_norm(self, d):
        # The column-by-column sum of squares is np.linalg.norm's, bit for bit.
        dist = ProductPareto(1.5, 0.5, d)
        centre = np.random.default_rng(d).uniform(0.0, 3.0, d)
        want = np.linalg.norm(distributions._ball_draws(dist) - centre, axis=1)
        got = distributions._sample_distances(dist, centre)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        # ball_mass reaches h at zeta and not just below it; the exact mass
        # there is h, within the Monte Carlo error in d = 2.
        point = np.array(x) if dist.dimension > 1 else x[0]
        r = zeta(dist, point, h)
        assert ball_mass(dist, point, r) >= h > ball_mass(dist, point, r * (1 - 1e-12))
        if dist.dimension > 1:
            assert_within_monte_carlo(h, disc_mass(dist, x, r))
        else:
            cdf = expected(dist, "cdf", [point - r, point + r])
            assert cdf[1] - cdf[0] == pytest.approx(h, abs=1e-9)

    def test_pareto_near_zero(self):
        # The radius of mass 1e-12 at 0 is lomax's quantile, 1e-12 + 1e-24;
        # the cancelling cdf put it 2.2e-5 low.
        want = scipy_reference(Pareto(1.0, 1.0)).ppf(1e-12)
        assert zeta(Pareto(1.0, 1.0), 0.0, 1e-12) == pytest.approx(want, rel=1e-12, abs=0)

    def test_draws_one_sample_in_two_dimensions(self, monkeypatch):
        # The family's draw is memoised: after the memo is cleared, any
        # number of zeta calls on it, equal families included, draw once
        # and return what a cold memo returns.
        points = [np.array([0.5, 0.5]), np.array([1.0, 2.0]), [3.0, 0.25], (5.0, 5.0)]
        cold = []
        for x in points:
            distributions._ball_draws.cache_clear()
            cold.append(zeta(ProductPareto(1.0, 1.0, 2), x, 0.01))
        distributions._ball_draws.cache_clear()
        draws = count_draws(monkeypatch)
        for _ in range(2):
            assert [zeta(ProductPareto(1.0, 1.0, 2), x, 0.01) for x in points] == cold
        assert draws == [distributions._BALL_MC_DRAWS]

    def test_threads_racing_on_the_draw(self):
        # Two families on four threads evict the one-family memo back and
        # forth; every radius still equals the cold one.
        from concurrent.futures import ThreadPoolExecutor

        families = [ProductPareto(1.0, 1.0, 2), ProductPareto(2.0, 1.0, 2)]
        points = [(0.5, 0.5), (1.0, 2.0)]
        cases = [(dist, x) for dist in families for x in points]
        want = {}
        for dist, x in cases:
            distributions._ball_draws.cache_clear()
            want[dist, x] = zeta(dist, x, 0.01)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [(case, pool.submit(zeta, *case, 0.01)) for case in cases * 3]
                for case, future in futures:
                    assert future.result(timeout=120) == want[case], case
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("fn", [zeta, ball_mass], ids=["zeta", "ball_mass"])
    def test_centre_of_another_dimension_draws_nothing(self, monkeypatch, fn):
        draws = count_draws(monkeypatch)
        for x in ([1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]):
            got = outcome(fn, ProductPareto(1.0, 1.0, 2), x, 0.5)
            assert got == (ValueError, "2-D distribution expects a 2-D point")
        assert draws == []


class TestBisectionPpf:
    def test_log_pareto_regularity_grid(self):
        # One call for every level, and one call per level.
        dist = LogPareto(1.0, 1.0, 2.0)
        us = [(i + 0.5) / 50 for i in range(50)] + [1e-12, 1.0 - 1e-12]
        want = dist.ppf(np.array(us))
        assert [dist.ppf(u) for u in us] == want.tolist()
        # The quantiles invert the closed-form cdf.
        np.testing.assert_allclose(expected(dist, "cdf", want), us, rtol=0, atol=3e-13)

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

    def test_draws_once_per_family_in_two_dimensions(self, monkeypatch):
        # After the memo is cleared, local_mass_check and zeta calls on one
        # family draw once, and report what a cold memo reports.
        pp, rs = ProductPareto(1.0, 1.0, 2), [0.25, 0.5, 1.0]
        cold = local_mass_check(pp, 100.0, self.XS_2D, rs)
        distributions._ball_draws.cache_clear()
        cold_zeta = zeta(pp, self.XS_2D[0], 0.01)
        distributions._ball_draws.cache_clear()
        draws = count_draws(monkeypatch)
        for _ in range(2):
            assert local_mass_check(pp, 100.0, self.XS_2D, rs) == cold
            assert zeta(ProductPareto(1.0, 1.0, 2), self.XS_2D[0], 0.01) == cold_zeta
        assert draws == [distributions._BALL_MC_DRAWS]

    def test_one_cdf_call_per_side_in_one_dimension(self, monkeypatch):
        # check-regularity's default 50 x 20 grid on its benchmark family.
        dist = LogPareto(1.0, 1.0, 2.0)
        xs, rs = self.grids(dist)
        calls = []
        cdf = DistributionFamily.cdf

        def counted(self, x):
            calls.append(np.shape(x))
            return cdf(self, x)

        monkeypatch.setattr(DistributionFamily, "cdf", counted)
        local_mass_check(dist, 10.0, xs, rs)
        assert calls == [(50, 20), (50, 20)]

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
    def test_theta_outside_zero_to_inf_rejected(self, monkeypatch, theta):
        # A NaN theta would fail every pair and an infinite one pass every
        # pair, whatever the masses.
        calls = []
        monkeypatch.setattr(DistributionFamily, "cdf", lambda self, x: calls.append(x))
        with pytest.raises(ValueError, match="theta must be positive"):
            local_mass_check(Uniform(0, 1), theta, [0.5], [0.1, 0.2])
        assert calls == []

    def test_grid_outside_support_rejected(self):
        with pytest.raises(ValueError):
            local_mass_check(Uniform(0, 1), 2.0, [-0.5], [0.1])

    @pytest.mark.parametrize(
        "dist,grid",
        [(Pareto(1.0, 1.0), [0.5, math.nan]), (ProductPareto(1.0, 1.0, 2), [[0.5, math.nan]])],
        ids=["pareto", "product_pareto"],
    )
    def test_nan_grid_point_rejected_as_outside(self, dist, grid):
        text = "grid point " + str(np.array(grid[-1])) + " is outside the support"
        assert outcome(local_mass_check, dist, 2.0, grid, [0.5]) == (ValueError, text)

    @pytest.mark.parametrize("grid", [[[1.0, 2.0, 3.0]], [1.0, 2.0]], ids=["3-D", "flat"])
    def test_grid_of_another_dimension_draws_nothing(self, monkeypatch, grid):
        draws = count_draws(monkeypatch)
        got = outcome(local_mass_check, ProductPareto(1.0, 1.0, 2), 2.0, grid, [0.5])
        assert got[0] is ValueError
        assert draws == []


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
