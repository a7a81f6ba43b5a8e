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

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._integrate import improper_quad, libm
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
    warnings silenced, as every sampler draws; and `_log_pdf` on the 1-D
    array of the points inside the support (NaN included), with libm's
    log and log1p through `libm` (numpy's differ from them in the last
    bit on some inputs), so each element equals the scalar formula's
    value bit for bit.
    Outside the support a density is 0 and a log density -inf; a cdf is 0
    below it and 1 from its upper end on; a closed-form quantile is NaN at
    a level outside [0, 1], as in scipy.stats, where the bisection raises
    ValueError; a scalar point or level gets a float.  A NaN point fails
    both support tests, so it reaches the formula, which must carry it:
    density, log_density and cdf return NaN there rather than a
    probability.
    """

    dimension: int = 1

    # -- densities -----------------------------------------------------
    def density(self, x):
        lo, hi = self.support
        xs = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            val = self._pdf(xs)
        return _maybe_scalar(np.where((xs < lo) | (xs > hi), 0.0, val), x)

    def log_density(self, x):
        lo, hi = self.support
        xs = np.asarray(x, dtype=np.float64)
        inside = ~((xs < lo) | (xs > hi))
        out = np.full(xs.shape, -math.inf)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out[inside] = self._log_pdf(xs[inside])
        return _maybe_scalar(out, x)

    # -- 1-D distribution functions ------------------------------------
    def cdf(self, x):
        lo, hi = self.support
        xs = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            val = self._cdf(xs)
        return _maybe_scalar(np.where(xs < lo, 0.0, np.where(xs >= hi, 1.0, val)), x)

    def ppf(self, u):
        """The quantile at each level, NaN outside [0, 1] as in scipy.stats."""
        us = np.asarray(u, dtype=np.float64)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            val = self._ppf(us)
        return _maybe_scalar(np.where((us >= 0.0) & (us <= 1.0), val, math.nan), u)

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
        """n inverse-CDF draws as an (n, 1) array.

        The levels lie in [0, 1), so they skip ppf's range test.
        """
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return self._ppf(rng.random(n)).reshape(n, 1)

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

    def _log_pdf(self, xs):
        return math.log(self.alpha / self.sigma) - (self.alpha + 1.0) * libm(
            math.log1p, xs / self.sigma
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

    def _log_pdf(self, xs):
        return math.log(self.lam) - self.lam * xs

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

    def _log_pdf(self, xs):
        # -log(b - a) stays a float where the density 1 / (b - a) passes the
        # largest float, for a width below 1 / 1.8e308.
        return np.where(np.isnan(xs), math.nan, -math.log(self.b - self.a))

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

        The Pareto factor's log density at every coordinate in one call,
        then the coordinates added left to right from 0: each row is bit
        for bit the sum of the scalar factor log densities in that order.
        """
        xs = np.asarray(x, dtype=np.float64)
        pts = xs.reshape(-1, self.d)
        out = np.zeros(len(pts))
        for column in self._factor.log_density(pts).T:
            out += column
        return float(out[0]) if len(pts) == 1 and xs.ndim <= 1 else out

    def sample_array(self, rng, n):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return self._factor._ppf(rng.random((n, self.d)))

    @property
    def support(self):
        return (0.0, math.inf)


def _log_pareto_raw(b: float, c: float, xs: np.ndarray) -> np.ndarray:
    """log of the raw LogPareto density x^-(b+1) log(x)^-c at each x."""
    lx = libm(math.log, xs)
    # With c = 0 the log term is absent: 0 * log(log(inf)) would be NaN.
    return -(b + 1.0) * lx - (c * libm(math.log, lx) if c else 0.0)


@functools.lru_cache(maxsize=16)
def _log_pareto_norm(b: float, c: float) -> float:
    """The LogPareto normaliser, shared by every family with this b and c.

    The density never reads a, so equal (b, c) share one quadrature.  A
    normaliser that is not finite or not resolved raises ValueError, which
    lru_cache does not store, so each call with it raises again.
    """
    res = improper_quad(
        lambda x: _log_pareto_raw(b, c, np.array([x]))[0],
        lambda ts: _log_pareto_raw(b, c, libm(math.exp, ts)) + ts,
        LogPareto._LEFT,
    )
    if not res.converged:
        raise ValueError("LogPareto density is not normalisable")
    if not res.error < res.value:
        raise ValueError(
            f"LogPareto normaliser {res.value:.3g} is not resolved by quadrature"
            f" (error estimate {res.error:.3g})"
        )
    return res.value


@dataclass(frozen=True)
class LogPareto(DistributionFamily):
    """Density proportional to 1/(x^(b+1) log(x)^c) on [2, oo).

    The normalising constant is computed by adaptive quadrature once per
    (b, c) in a process (_log_pareto_norm).  The field `a` records the
    exponent of the companion power-law source density (proportional to
    x^-(a+1) on [2, oo)), which is the c = 0 member of the same family;
    it does not enter this distribution's own density.  The CDF sums each
    point's own panels, unpadded, so batching changes no bit of it.
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

    @cached_property
    def _norm(self) -> float:
        return _log_pareto_norm(self.b, self.c)

    @cached_property
    def _log_norm(self) -> float:
        return math.log(self._norm)

    def _pdf(self, xs):
        return np.power(xs, -(self.b + 1.0)) * np.power(np.log(xs), -self.c) / self._norm

    def _log_pdf(self, xs):
        return _log_pareto_raw(self.b, self.c, xs) - self._log_norm

    def _raw_cdf_integral(self, xs: np.ndarray) -> np.ndarray:
        """Integral of the raw density from 2 to each finite x, NaN at NaN.

        Composite Gauss-Legendre in t = log x with panel width <= 0.25,
        which stays accurate however far into the tail x reaches.  Each x
        gets its own ceil((log x - log 2) / 0.25) panels from log 2, so
        its value does not depend on the other points of the call.
        The points, sorted by panel count, lay their panels end to end,
        unpadded, in blocks of at most _NODE_BLOCK nodes or one point.
        Panel j of a point at t1 spans j h + log 2 to (j + 1) h + log 2,
        h = (t1 - log 2) / panels, or to t1 for its last panel; each row's
        sum is np.sum's pairwise one over its own panels, bit for bit,
        taken once per panel count.
        """
        t0 = math.log(self._LEFT)
        ts = np.log(np.maximum(xs, self._LEFT))
        todo = np.flatnonzero((ts > t0) & (ts < math.inf))
        panels = np.maximum(1, np.ceil((ts[todo] - t0) / 0.25)).astype(np.int64)
        order = np.argsort(panels, kind="stable")
        todo, panels = todo[order], panels[order]
        out = np.where(np.isnan(ts), math.nan, 0.0)
        # Row i's panels end at ends[i] in the run of all rows' panels.
        ends, nodes = np.cumsum(panels), len(_GL_NODES)
        start = 0
        while start < len(todo):
            first = int(ends[start] - panels[start])
            fit = np.searchsorted(ends, first + self._NODE_BLOCK // nodes, "right")
            stop = max(start + 1, int(fit))
            rows, p, last = todo[start:stop], panels[start:stop], ends[start:stop] - first
            h = np.repeat((ts[rows] - t0) / p, p)
            j = np.arange(len(h)) - np.repeat(last - p, p)
            left, right = j * h + t0, (j + 1) * h + t0
            right[last - 1] = ts[rows]
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            lx = mid[:, None] + half[:, None] * _GL_NODES
            vals = np.exp(-(self.b + 1.0) * lx - self.c * np.log(lx) + lx)
            terms = vals * _GL_WEIGHTS * half[:, None]
            bounds = np.flatnonzero(np.diff(p)) + 1
            for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), len(rows)]):
                group = terms[last[lo] - p[lo] : last[hi - 1]]
                out[rows[lo:hi]] = group.reshape(hi - lo, -1).sum(axis=1)
            start = stop
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


@functools.lru_cache(maxsize=1)
def _ball_draws(dist: DistributionFamily) -> np.ndarray:
    """The _BALL_MC_DRAWS fixed-seed points of the most recent family, read-only.

    The families are frozen and hashable, so equal families share the draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_BALL_MC_SEED))
    pts = dist.sample_array(rng, _BALL_MC_DRAWS)
    pts.setflags(write=False)
    return pts


def _centre(dist: DistributionFamily, x) -> np.ndarray:
    """x as an array of dist.dimension coordinates; ValueError for another length."""
    c = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if c.shape != (dist.dimension,):
        d = dist.dimension
        raise ValueError(f"{d}-D distribution expects a {d}-D point")
    return c


def _sample_distances(dist: DistributionFamily, x) -> np.ndarray:
    """Distances from x to _BALL_MC_DRAWS fixed-seed points of dist, drawn
    once per family (_ball_draws).

    The squared coordinate differences are added column by column, left
    to right, then one sqrt: for d <= 7 this is np.linalg.norm(axis=1)'s
    order bit for bit, as numpy adds fewer than 8 terms in order.
    """
    center = _centre(dist, x)
    draws = _ball_draws(dist)
    squares = np.zeros(len(draws))
    for j, c in enumerate(center.tolist()):
        diff = draws[:, j] - c
        squares += diff * diff
    return np.sqrt(squares)


def _mass_at(dist: DistributionFamily, x):
    """The ball mass around x, r -> P{B(x, r)}, at a radius or an array of them.

    Exact in 1-D, from two cdf calls.  Otherwise fixed-seed Monte Carlo:
    the points are drawn once per family, the distances from x are formed
    and sorted once, and the mass at r is the count of them <= r, found by
    binary search, over the draw count.  A centre whose length is not the
    dimension raises ValueError before any draw.
    """
    c = _centre(dist, x)
    if dist.dimension == 1:
        return lambda r: dist.cdf(c[0] + r) - dist.cdf(c[0] - r)
    dists = np.sort(_sample_distances(dist, c))
    return lambda r: np.searchsorted(dists, r, side="right") / len(dists)


def ball_mass(dist: DistributionFamily, x, r):
    """P{B(x, r)} at a radius or an array of radii, 0 at r = 0.

    One _mass_at call covers all the radii: two cdf calls in 1-D, one
    sort of the family's fixed-seed draw otherwise.  A negative or NaN
    radius raises ValueError.
    """
    rs = np.asarray(r, dtype=np.float64)
    if not np.all(rs >= 0):
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

    In 1-D every mass of the grid comes from one cdf call per side;
    otherwise one ball_mass call per x covers every radius.  A grid point
    of another dimension, one where the density is not positive (NaN
    included), or a theta outside (0, inf) raises ValueError before any
    mass is computed.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError("theta must be positive and finite")
    rs = np.asarray(r_grid, dtype=np.float64)
    if not np.all((0.0 < rs) & (rs <= 1.0)):
        raise ValueError("radii must lie in (0, 1]")
    d = dist.dimension
    points = np.asarray(x_grid, dtype=np.float64)
    if not len(points):
        raise ValueError("x grid must be nonempty")
    centres = np.array([_centre(dist, x) for x in points])
    px = dist.density(centres).reshape(-1)
    if len(outside := np.flatnonzero(~(px > 0.0))):
        raise ValueError(f"grid point {points[outside[0]]} is outside the support")
    # r^d by Python's float power; numpy's rs**d differs from it in the
    # last bit on some radii for d = 2 and 3.
    volumes = np.array([r**d for r in rs.tolist()])
    if d == 1:
        masses = dist.cdf(centres + rs) - dist.cdf(centres - rs)
    else:
        masses = np.array([ball_mass(dist, c, rs) for c in centres])
    ratios = masses / (px[:, None] * volumes)
    bad = ~((1.0 / theta <= ratios) & (ratios <= theta))
    failures = tuple(
        (points[i].tolist(), float(rs[j]), float(ratios[i, j]))
        for i, j in zip(*np.nonzero(bad))
    )
    return LocalMassReport(
        theta=theta,
        passed=not failures,
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        n_checked=ratios.size,
        failures=failures,
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
