"""Parametric covariate distributions with exact densities and samplers.

Every family exposes a density (right-continuous at the left support
endpoint), a CDF, inverse-CDF or rejection sampling, Euclidean
ball-mass, and, where the family is known to satisfy the local mass
property

    theta^-1 p(x) r^d  <=  P{B(x, r)}  <=  theta p(x) r^d,   r in (0, 1],

the constant theta.  Families are immutable and safe to share across
threads; samplers draw from a caller-owned numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import exp_clamped, improper_quad
from .errors import (
    ConfigError,
    NoClosedFormError,
    RadiusSearchError,
    config_choice,
    config_dimension,
    config_number,
    config_object,
)

# Width past which _bisect_levels stops growing a zeta or ppf bracket.
ZETA_BRACKET_CAP = 2.0**40

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _maybe_scalar(out: np.ndarray, like) -> float | np.ndarray:
    if np.isscalar(like) or getattr(like, "ndim", 1) == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def _bisect_levels(f, levels, lo: float, start: float, beyond, settle: bool = False):
    """Each level u's smallest t >= lo with f(t) >= u, for f non-decreasing on 1-D
    arrays: [lo, start] doubles its width until f reaches u (past ZETA_BRACKET_CAP,
    RadiusSearchError(beyond(u))), then is halved, at most 200 times, until its
    midpoint is an end or, with settle, its width is at most 1e-13 times its upper
    end and f there overshoots u by at most 1e-9.  f sees only levels still searching.
    """
    us = levels.reshape(-1)
    b, grow = np.full(len(us), start), np.arange(len(us))
    while len(grow):
        grow = grow[f(b[grow]) < us[grow]]
        b[grow] = lo + 2.0 * (b[grow] - lo)
        if len(past := grow[b[grow] - lo > ZETA_BRACKET_CAP]):
            raise RadiusSearchError(beyond(float(us[past[0]])))
    rows, a = np.arange(len(us)), np.full(len(us), lo)
    for _ in range(200):
        lower, upper = a[rows], b[rows]
        mid = 0.5 * (lower + upper)
        go = (mid > lower) & (mid < upper)
        if settle and np.count_nonzero(near := upper - lower <= 1e-13 * upper):
            go[near] &= ~(f(upper[near]) - us[rows[near]] <= 1e-9)
        # Once mid equals an end, every later step would set that end to itself.
        rows, mid = rows[go], mid[go]
        if not len(rows):
            break
        up = f(mid) >= us[rows]
        b[rows[up]] = mid[up]
        a[rows[~up]] = mid[~up]
    return b.reshape(levels.shape)


class DistributionFamily:
    """Base class; subclasses are frozen dataclasses of parameters.

    The base owns the support, NaN and scalar rules of every 1-D density,
    log density, cdf and ppf.  A 1-D family gives only formulas: `_pdf`,
    `_cdf` and, if its quantile has a closed form, `_ppf` (the base one
    bisects the cdf) on a float64 array, evaluated everywhere with numpy's
    warnings silenced, as every sampler draws; and `_log_pdf` at a float.
    Outside the support a density is 0 and a log density -inf; a cdf is 0
    below it and 1 from its upper end on; a scalar point or level gets a
    float.  A NaN point fails both support tests, so it reaches the
    formula, which must carry it: density, log_density and cdf return NaN
    there rather than a probability.
    """

    dimension: int = 1

    # -- densities -----------------------------------------------------
    def density(self, x):
        lo, hi = self.support
        xs = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            val = self._pdf(xs)
        return _maybe_scalar(np.where((xs < lo) | (xs > hi), 0.0, val), x)

    def log_density(self, x) -> float:
        """log of the density at a single point (-inf outside support)."""
        x = float(x)
        lo, hi = self.support
        if x < lo or x > hi:
            return -math.inf
        return self._log_pdf(x)

    # -- 1-D distribution functions ------------------------------------
    def cdf(self, x):
        lo, hi = self.support
        xs = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            val = self._cdf(xs)
        return _maybe_scalar(np.where(xs < lo, 0.0, np.where(xs >= hi, 1.0, val)), x)

    def ppf(self, u):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return _maybe_scalar(self._ppf(np.asarray(u, dtype=np.float64)), u)

    def _ppf(self, us):
        """Numeric quantile at levels in (0, 1): _bisect_levels of the cdf."""
        lo, hi = self.support
        if not np.all((0.0 < us) & (us < 1.0)):
            raise ValueError("ppf argument must lie in (0, 1)")
        cap = f"lies beyond the bracket cap x = {lo + ZETA_BRACKET_CAP:.6g}"
        return _bisect_levels(
            self.cdf, us, lo, min(hi, lo + 1.0), lambda u: f"quantile u = {u!r} {cap}"
        )

    # -- sampling --------------------------------------------------------
    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n inverse-CDF draws as an (n, 1) array."""
        return self.ppf(rng.random(n)).reshape(n, 1)

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    @property
    def local_mass_theta(self) -> float | None:
        """theta for which the family is known to lie in P(D, theta)."""
        return None


@dataclass(frozen=True)
class Pareto(DistributionFamily):
    """Density (alpha/sigma) (1 + x/sigma)^-(alpha+1) on [0, oo)."""

    alpha: float
    sigma: float

    def __post_init__(self):
        if self.alpha <= 0 or self.sigma <= 0:
            raise ValueError("Pareto requires alpha > 0 and sigma > 0")
        # The density's scale; its log is taken at every point.
        if not 0.0 < self.alpha / self.sigma < math.inf:
            raise ValueError(
                f"Pareto scale alpha / sigma = {self.alpha / self.sigma!r} is not "
                "a positive finite float"
            )

    def _pdf(self, xs):
        return (self.alpha / self.sigma) * np.power(
            1.0 + xs / self.sigma, -(self.alpha + 1.0)
        )

    def _log_pdf(self, x):
        return math.log(self.alpha / self.sigma) - (self.alpha + 1.0) * math.log1p(
            x / self.sigma
        )

    def _cdf(self, xs):
        # As Exponential's: 1 - (1 + x/sigma)^-alpha would cancel near x = 0.
        return -np.expm1(-self.alpha * np.log1p(np.maximum(xs, 0.0) / self.sigma))

    def _ppf(self, us):
        return self.sigma * (np.power(1.0 - us, -1.0 / self.alpha) - 1.0)

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def local_mass_theta(self):
        return 2.0 * (1.0 + 1.0 / self.sigma) ** (self.alpha + 1.0)


@dataclass(frozen=True)
class Exponential(DistributionFamily):
    """Density lam * exp(-lam x) on [0, oo)."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("Exponential requires lambda > 0")

    def _pdf(self, xs):
        return self.lam * np.exp(-self.lam * xs)

    def _log_pdf(self, x):
        return math.log(self.lam) - self.lam * x

    def _cdf(self, xs):
        # np.maximum turns x = -0.0 into 0.0, so the cdf there is 0.0, not -0.0.
        return -np.expm1(-self.lam * np.maximum(xs, 0.0))

    def _ppf(self, us):
        return -np.log1p(-us) / self.lam

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def local_mass_theta(self):
        return math.exp(self.lam)


@dataclass(frozen=True)
class Uniform(DistributionFamily):
    """Uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("Uniform requires a < b")
        # The density is 1 / (b - a), so an infinite width would make it 0.
        if math.isinf(self.b - self.a):
            raise ValueError(
                f"Uniform width b - a = {self.b - self.a!r} is not a finite float"
            )

    def _pdf(self, xs):
        return np.where(np.isnan(xs), math.nan, 1.0 / (self.b - self.a))

    def _log_pdf(self, x):
        # -log(b - a) stays a float where the density 1 / (b - a) passes the
        # largest float, for a width below 1 / 1.8e308.
        return math.nan if math.isnan(x) else -math.log(self.b - self.a)

    def _cdf(self, xs):
        return (xs - self.a) / (self.b - self.a)

    def _ppf(self, us):
        return self.a + us * (self.b - self.a)

    @property
    def support(self):
        return (self.a, self.b)

    @property
    def local_mass_theta(self):
        return max(2.0, 1.0 / (self.b - self.a))


@dataclass(frozen=True)
class ProductPareto(DistributionFamily):
    """Product of d i.i.d. Pareto(alpha, sigma) coordinates on [0, oo)^d."""

    alpha: float
    sigma: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("ProductPareto requires d >= 1")
        self._factor  # Pareto's checks of alpha and sigma

    @property
    def dimension(self):
        return self.d

    @cached_property
    def _factor(self) -> Pareto:
        return Pareto(self.alpha, self.sigma)

    def density(self, x):
        xs = np.asarray(x, dtype=np.float64)
        pts = xs.reshape(-1, self.d)
        vals = np.prod(self._factor.density(pts), axis=1)
        return float(vals[0]) if pts.shape[0] == 1 and xs.ndim <= 1 else vals

    def cdf(self, x):
        raise NotImplementedError("ProductPareto has no 1-D CDF")

    def log_density(self, x):
        """log density at each point of x, with points read as density reads them.

        Pareto's _log_pdf formula on every coordinate in one pass, with
        libm's log1p (numpy's SIMD log1p can differ in the last ulp), then
        the coordinates added left to right from 0: each row is bit for bit
        the sum of the scalar factor log densities in that order.
        """
        xs = np.asarray(x, dtype=np.float64)
        pts = xs.reshape(-1, self.d)
        f = self._factor
        scaled = (np.maximum(pts, 0.0) / f.sigma).ravel()
        log1p = np.fromiter(map(math.log1p, scaled), np.float64, len(scaled))
        log1p = log1p.reshape(pts.shape)
        coords = math.log(f.alpha / f.sigma) - (f.alpha + 1.0) * log1p
        coords[pts < 0.0] = -math.inf
        out = np.zeros(len(pts))
        for column in coords.T:
            out += column
        return float(out[0]) if len(pts) == 1 and xs.ndim <= 1 else out

    def sample_array(self, rng, n):
        return self._factor.ppf(rng.random((n, self.d)))

    @property
    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class LogPareto(DistributionFamily):
    """Density proportional to 1/(x^(b+1) log(x)^c) on [2, oo).

    The normalising constant is computed once by adaptive quadrature and
    cached.  The field `a` records the exponent of the companion
    power-law source density (proportional to x^-(a+1) on [2, oo)),
    which is the c = 0 member of the same family; it does not enter this
    distribution's own density.
    """

    a: float
    b: float
    c: float

    _LEFT = 2.0
    # Largest count of quadrature nodes in one temporary of the CDF
    # (8 MiB); one point at x = 1e300 takes 2,761 panels of 7 nodes.
    _NODE_BLOCK = 1 << 20

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("LogPareto requires a > 0 and b > 0")
        if self.c < 0:
            raise ValueError("LogPareto requires c >= 0")

    def _log_raw(self, x: float) -> float:
        lx = math.log(x)
        # With c = 0 the log term is absent: 0 * log(log(inf)) would be NaN.
        return -(self.b + 1.0) * lx - (self.c * math.log(lx) if self.c else 0.0)

    @cached_property
    def _norm(self) -> float:
        res = improper_quad(
            lambda x: exp_clamped(self._log_raw(x)),
            lambda t: exp_clamped(self._log_raw(math.exp(t)) + t),
            self._LEFT,
        )
        if not res.converged:
            raise ValueError("LogPareto density is not normalisable")
        if not res.error < res.value:
            raise ValueError(
                f"LogPareto normaliser {res.value:.3g} is not resolved by quadrature"
                f" (error estimate {res.error:.3g})"
            )
        return res.value

    @cached_property
    def _log_norm(self) -> float:
        return math.log(self._norm)

    def _pdf(self, xs):
        return np.power(xs, -(self.b + 1.0)) * np.power(np.log(xs), -self.c) / self._norm

    def _log_pdf(self, x):
        return self._log_raw(x) - self._log_norm

    def _raw_cdf_integral(self, xs: np.ndarray) -> np.ndarray:
        """Integral of the raw density from 2 to each finite x, NaN at NaN.

        Composite Gauss-Legendre in t = log x with panel width <= 0.25,
        which stays accurate however far into the tail x reaches.  Each x
        gets its own ceil((log x - log 2) / 0.25) panels from log 2, so
        its value does not depend on the other points of the call.
        Points with the same panel count are integrated together, at most
        _NODE_BLOCK nodes at a time; the edges are np.linspace's and each
        row's sum is np.sum's pairwise one, bit for bit.
        """
        t0 = math.log(self._LEFT)
        ts = np.log(np.maximum(xs, self._LEFT))
        todo = np.flatnonzero((ts > t0) & (ts < math.inf))
        panels = np.maximum(1, np.ceil((ts[todo] - t0) / 0.25)).astype(np.int64)
        out = np.where(np.isnan(ts), math.nan, 0.0)
        for p in np.unique(panels).tolist():
            group = todo[panels == p]
            step = max(1, self._NODE_BLOCK // (p * len(_GL_NODES)))
            for block in np.split(group, range(step, len(group), step)):
                t1 = ts[block]
                edges = np.arange(p + 1) * ((t1 - t0) / p)[:, None] + t0
                edges[:, -1] = t1
                mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
                half = 0.5 * (edges[:, 1:] - edges[:, :-1])
                lx = mid[:, :, None] + half[:, :, None] * _GL_NODES
                vals = np.exp(-(self.b + 1.0) * lx - self.c * np.log(lx) + lx)
                terms = vals * _GL_WEIGHTS * half[:, :, None]
                out[block] = terms.reshape(len(block), -1).sum(axis=1)
        return out

    def _cdf(self, xs):
        raw = self._raw_cdf_integral(xs.reshape(-1)).reshape(xs.shape)
        return np.clip(raw / self._norm, 0.0, 1.0)

    def sample_array(self, rng, n):
        # Rejection from the c = 0 power-law envelope: acceptance
        # probability (log 2 / log x)^c, so c = 0 accepts everything.
        out = np.empty(n)
        filled = 0
        log2 = math.log(2.0)
        while filled < n:
            todo = n - filled
            draw = max(64, int(1.3 * todo) + 16)
            with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                x = self._LEFT * np.power(rng.random(draw), -1.0 / self.b)
                accept = rng.random(draw) <= np.power(log2 / np.log(x), self.c)
            got = x[accept][:todo]
            out[filled : filled + len(got)] = got
            filled += len(got)
        return out.reshape(n, 1)

    @property
    def support(self):
        return (self._LEFT, math.inf)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


_BALL_MC_DRAWS = 100_000
_BALL_MC_SEED = 0x5EED_BA11


def _sample_distances(dist: DistributionFamily, x) -> np.ndarray:
    """Distances from x to _BALL_MC_DRAWS fixed-seed points of dist."""
    rng = np.random.default_rng(np.random.SeedSequence(_BALL_MC_SEED))
    pts = dist.sample_array(rng, _BALL_MC_DRAWS)
    center = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return np.linalg.norm(pts - center[None, :], axis=1)


def _mass_at(dist: DistributionFamily, x):
    """The ball mass around x, r -> P{B(x, r)}, at a radius or an array of them.

    Exact in 1-D, from two cdf calls.  Otherwise fixed-seed Monte Carlo:
    the distances from x are drawn and sorted once, and the mass at r is
    the count of them <= r, found by binary search, over the draw count.
    """
    if dist.dimension == 1:
        c = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if c.shape != (1,):
            raise ValueError("1-D distribution expects a 1-D point")
        return lambda r: dist.cdf(c[0] + r) - dist.cdf(c[0] - r)
    dists = np.sort(_sample_distances(dist, x))
    return lambda r: np.searchsorted(dists, r, side="right") / len(dists)


def ball_mass(dist: DistributionFamily, x, r):
    """P{B(x, r)} at a radius or an array of radii, 0 at r = 0.

    One _mass_at call covers all the radii: two cdf calls in 1-D, one
    fixed-seed draw otherwise.
    """
    rs = np.asarray(r, dtype=np.float64)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    return _maybe_scalar(np.where(rs > 0.0, _mass_at(dist, x)(rs), 0.0), r)


def zeta(dist: DistributionFamily, x, h: float) -> float:
    """Smallest radius whose ball around x carries mass at least h: the
    settled _bisect_levels of the _mass_at function that ball_mass reads.
    A non-finite centre x has no such radius and raises ValueError."""
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    centre = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(centre)):
        raise ValueError(f"zeta centre {centre.tolist()} is not finite")
    mass, level = _mass_at(dist, x), np.array(float(h))
    beyond = f"no radius <= {ZETA_BRACKET_CAP:g} reaches mass {h}"
    return float(_bisect_levels(mass, level, 0.0, 1.0, lambda u: beyond, settle=True))


@dataclass(frozen=True)
class LocalMassReport:
    """Grid verification of theta^-1 p(x) r^d <= P{B(x,r)} <= theta p(x) r^d."""

    theta: float
    passed: bool
    min_ratio: float
    max_ratio: float
    n_checked: int
    failures: tuple  # (x, r, ratio) triples violating either inequality


def local_mass_check(
    dist: DistributionFamily, theta: float, x_grid, r_grid
) -> LocalMassReport:
    """Check both local-mass inequalities at every (x, r) grid pair.

    One ball_mass call per x covers every radius.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    rs = np.asarray(r_grid, dtype=np.float64)
    if not np.all((0.0 < rs) & (rs <= 1.0)):
        raise ValueError("radii must lie in (0, 1]")
    # r^d by Python's float power; numpy's rs**d differs from it in the
    # last bit on some radii for d = 2 and 3.
    volumes = np.array([r**dist.dimension for r in rs.tolist()])
    ratios = []
    failures = []
    for x in np.asarray(x_grid, dtype=np.float64):
        px = float(dist.density(x))
        if px <= 0.0:
            raise ValueError(f"grid point {x} is outside the support")
        row = ball_mass(dist, x, rs) / (px * volumes)
        ratios.append(row)
        bad = ~((1.0 / theta <= row) & (row <= theta))
        failures += [
            (x.tolist(), r, ratio)
            for r, ratio in zip(rs[bad].tolist(), row[bad].tolist())
        ]
    ratios = np.concatenate(ratios)
    return LocalMassReport(
        theta=theta,
        passed=not failures,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        n_checked=len(ratios),
        failures=tuple(failures),
    )


def closed_form_indices(
    P: DistributionFamily, Q: DistributionFamily
) -> tuple[float, float]:
    """Closed-form (gamma*, s*) for supported source-target pairs.

    gamma* = gamma*(P, Q) and s* = gamma*(Q, Q); math.inf encodes an
    infinite index.  Raises NoClosedFormError for unsupported pairs.
    """
    if isinstance(P, Pareto) and isinstance(Q, Pareto):
        return Q.alpha / (P.alpha + 1.0), Q.alpha / (Q.alpha + 1.0)
    if isinstance(P, Exponential) and isinstance(Q, Exponential):
        return Q.lam / P.lam, 1.0
    if isinstance(P, Uniform) and isinstance(Q, Uniform):
        if (P.a, P.b) == (Q.a, Q.b):
            return math.inf, math.inf
        raise NoClosedFormError("uniform pairs need equal supports")
    if isinstance(P, Pareto) and isinstance(Q, Exponential):
        # The exponential target puts vanishing mass in the Pareto
        # source's low-density regions: every moment of 1/p is finite.
        return math.inf, 1.0
    if isinstance(P, LogPareto) and isinstance(Q, LogPareto):
        return Q.b / (P.b + 1.0), Q.b / (Q.b + 1.0)
    if isinstance(P, ProductPareto) and isinstance(Q, ProductPareto):
        if P.d == Q.d:
            # The transfer integral factorises over coordinates, so the
            # finiteness boundary matches the 1-D Pareto pair.
            return closed_form_indices(P._factor, Q._factor)
        raise NoClosedFormError("product pairs need equal dimension")
    raise NoClosedFormError(
        f"no closed-form indices for ({type(P).__name__}, {type(Q).__name__})"
    )


# ---------------------------------------------------------------------------
# Regression functions and noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolderFunction:
    """A regression function f_* of `dimension`-dimensional points.

    `fn` maps an (n, d) array to an (n,) array.  The smoothness that the
    k rule and the rates use is the estimator's beta, not a field here.
    """

    fn: object
    dimension: int = 1

    def __call__(self, x):
        xs = np.asarray(x, dtype=np.float64).reshape(-1, self.dimension)
        return _maybe_scalar(np.asarray(self.fn(xs), dtype=np.float64), x)


def holder_constant(c: float, d: int = 1) -> HolderFunction:
    return HolderFunction(fn=lambda X: np.full(len(X), float(c)), dimension=d)


def holder_parabola() -> HolderFunction:
    """f(x) = x(1 - x) on [0, 1], extended by 0 outside.

    The extension keeps f in the Lipschitz ball globally (sup 1/4,
    slope at most 1), which the raw parabola is not on unbounded
    supports; on [0, 1] the two agree exactly.
    """

    def evaluate(X):
        u = np.clip(X[:, 0], 0.0, 1.0)
        return u * (1.0 - u)

    return HolderFunction(fn=evaluate, dimension=1)


@dataclass(frozen=True)
class NoiseSpec:
    """Centred observation noise; Gaussian is the only variant."""

    sigma_e: float

    def __post_init__(self):
        if self.sigma_e < 0:
            raise ValueError("sigma_e must be nonnegative")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # A huge sigma_e overflows to +-inf, which fit rejects as
        # non-finite labels.
        with np.errstate(over="ignore"):
            return self.sigma_e * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# JSON specifications
# ---------------------------------------------------------------------------

# family name -> (class, fields in constructor order); "d" is an integer.
_FAMILIES = {
    "pareto": (Pareto, ("alpha", "sigma")),
    "exponential": (Exponential, ("lambda",)),
    "uniform": (Uniform, ("a", "b")),
    "product_pareto": (ProductPareto, ("alpha", "sigma", "d")),
    "log_pareto": (LogPareto, ("a", "b", "c")),
}
_FAMILY_KEYS = {key for _, fields in _FAMILIES.values() for key in fields}


def family_from_spec(obj: dict, where: str = "distribution") -> DistributionFamily:
    """Build a DistributionFamily from its JSON object representation."""
    config_object(obj, where, ("family",), _FAMILY_KEYS)
    family = config_choice(obj["family"], f"{where}.family", _FAMILIES)
    cls, fields = _FAMILIES[family]
    config_object(obj, where, ("family",) + fields)
    args = [
        (config_dimension if key == "d" else config_number)(obj[key], f"{where}.{key}")
        for key in fields
    ]
    try:
        family = cls(*args)
        if isinstance(family, LogPareto):
            family._norm  # computed on first use; raises if not normalisable
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None
    return family


def holder_from_spec(obj: dict) -> HolderFunction:
    """Build a built-in HolderFunction: zero, constant (value) or parabola.

    zero and constant take an optional integer d (default 1); parabola
    is 1-D only.
    """
    config_object(obj, "f_star", ("name",), ("value", "d"))
    name = config_choice(obj["name"], "f_star.name", ("zero", "constant", "parabola"))
    if name == "parabola":
        config_object(obj, "f_star", ("name",))
        return holder_parabola()
    value = ("value",) if name == "constant" else ()
    config_object(obj, "f_star", ("name",) + value, ("d",))
    d = config_dimension(obj.get("d", 1), "f_star.d")
    if name == "zero":
        return holder_constant(0.0, d)
    return holder_constant(config_number(obj["value"], "f_star.value"), d)


def noise_from_spec(obj: dict) -> NoiseSpec:
    config_object(obj, "noise", ("sigma_e",), ("type",))
    config_choice(obj.get("type", "gaussian"), "noise.type", ("gaussian",))
    sigma_e = config_number(obj["sigma_e"], "noise.sigma_e")
    try:
        return NoiseSpec(sigma_e)
    except ValueError as exc:
        raise ConfigError("noise", str(exc)) from None
