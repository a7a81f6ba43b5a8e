"""Shared test oracles, independent of the library's query paths."""

import csv
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from transfer_knn import transfer
from transfer_knn.distributions import (
    _BALL_MC_DRAWS,
    _GL_NODES,
    _GL_WEIGHTS,
    ZETA_BRACKET_CAP,
    Exponential,
    HolderFunction,
    LogPareto,
    Pareto,
    ProductPareto,
    Uniform,
    _sample_distances,
    ball_mass,
)
from transfer_knn.errors import RadiusSearchError
from transfer_knn.errors import ConfigError
from transfer_knn.rates import (
    ACCELERATED,
    SOURCE,
    SUPERCRITICAL,
    TARGET,
    WEDGE,
    RegimeReport,
    acceleration_window,
    classify_configuration,
    r_beta,
)
from transfer_knn.transfer import _MC_DRAWS, _MC_SEED


def brute_force_knn(points: np.ndarray, x, k: int):
    """k nearest neighbours by full distance sort.

    Sorts all stored points by (distance, original index) and takes the
    first k; the reference semantics for every index query.
    """
    pts = np.asarray(points, dtype=np.float64)
    query = np.atleast_1d(np.asarray(x, dtype=np.float64))
    dists = np.linalg.norm(pts - query[None, :], axis=1)
    order = sorted(range(len(pts)), key=lambda i: (dists[i], i))
    chosen = order[:k]
    return [(i, float(dists[i])) for i in chosen]


def brute_force_knn_rows(points: np.ndarray, queries: np.ndarray, k: int):
    """(distances, indices) of each query row's k nearest points.

    The same full (distance, original index) sort as brute_force_knn,
    vectorised over blocks of query rows.
    """
    pts = np.asarray(points, dtype=np.float64)
    dist, idx = [], []
    for block in np.array_split(queries, max(1, len(queries) // 100)):
        d_all = np.linalg.norm(pts[None, :, :] - block[:, None, :], axis=2)
        ties = np.broadcast_to(np.arange(len(pts)), d_all.shape)
        order = np.lexsort((ties, d_all), axis=-1)[:, :k]
        dist.append(np.take_along_axis(d_all, order, axis=-1))
        idx.append(order)
    return np.concatenate(dist), np.concatenate(idx)


def window_starts_bisection(coords: np.ndarray, x: np.ndarray, k) -> np.ndarray:
    """Start of each query's k-nearest window in the sorted coords.

    A masked bisection on the "shift right" predicate
    x - a[i] > a[i+k] - x over [max(pos - k, 0), min(pos, n - k)], where
    pos is the insertion point of x, one row-masked halving per round.
    """
    a = np.asarray(coords, dtype=np.float64)
    n = len(a)
    pos = np.searchsorted(a, x)
    lo = np.maximum(pos - k, 0)
    hi = np.minimum(pos, n - k)
    lo = np.minimum(lo, hi)
    while True:
        open_rows = lo < hi
        if not np.any(open_rows):
            return lo
        mid = (lo + hi) // 2
        probe = np.where(open_rows, mid, 0)
        shift = open_rows & (x - a[probe] > a[np.minimum(probe + k, n - 1)] - x)
        lo = np.where(shift, mid + 1, lo)
        hi = np.where(open_rows & ~shift, mid, hi)


def log_density_loop(P, X) -> np.ndarray:
    """ProductPareto log density row by row through the scalar per-point path.

    Each row is the sum, left to right from 0, of its scalar Pareto factor
    log densities.
    """
    factor = Pareto(P.alpha, P.sigma)
    out = []
    for row in np.asarray(X, dtype=np.float64):
        acc = 0
        for xi in row:
            acc = acc + factor.log_density(float(xi))
        out.append(acc)
    return np.array(out, dtype=np.float64)


def monte_carlo_transfer_loop(P, Q, gamma: float, n_draws: int, seed: int):
    """(value, stderr) of the Monte Carlo T(P, Q, gamma), one row at a time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = Q.sample_array(rng, n_draws)
    logs = np.array([-gamma * lp for lp in log_density_loop(P, draws)])
    if np.any(np.isinf(logs)):
        return math.inf, math.inf
    vals = np.exp(logs)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_draws))


def frozen_bounded_quad(f, lo: float, hi: float) -> tuple[float, float]:
    """Plain adaptive quadrature on a finite interval, warnings silenced.

    The library's bounded_quad as it was when every window entered a
    warning filter, kept here so the oracles below do not follow the
    library's quadrature.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200)


def frozen_improper_quad(log_f, x0: float) -> tuple[float, float, bool]:
    """(value, error, converged) of exp(log_f(x)) over [x0, oo).

    The library's improper_quad as it was when both its head and its
    tail integrand read log_f at x: the head [x0, x0 + 8] in x, then
    log-2 windows in t = log x up to t = 690, with the 1e6 cutoff, the
    1e-13 early exit and the 1e-4 stabilization rule at the cap.
    """

    def exp_clamped(v):
        if v == -math.inf:
            return 0.0
        if v > 700.0:
            return math.inf
        return math.exp(v)

    x1 = x0 + 8.0
    head, head_err = frozen_bounded_quad(lambda x: exp_clamped(log_f(x)), x0, x1)
    if not math.isfinite(head) or head > 1.0e6:
        return math.inf, math.inf, False
    total, err = head, head_err
    t = math.log(x1)
    last_rel = math.inf
    while t < 690.0:
        t_next = t + math.log(2.0)
        piece, piece_err = frozen_bounded_quad(
            lambda t: exp_clamped(log_f(math.exp(t)) + t), t, t_next
        )
        if not math.isfinite(piece):
            return math.inf, math.inf, False
        total += piece
        err += piece_err
        if total > 1.0e6:
            return math.inf, math.inf, False
        last_rel = piece / total if total > 0 else 0.0
        if last_rel < 1.0e-13:
            return total, err + piece, True
        t = t_next
    if last_rel < 1.0e-4:
        return total, err + last_rel * total, True
    return math.inf, math.inf, False


def quadrature_transfer(P, Q, gamma: float):
    """(value, error, converged) of T(P, Q, gamma) by 1-D quadrature.

    The route transfer_value takes for a 1-D pair without a closed form,
    here taken for any 1-D pair, so it can be checked against the closed
    form.
    """
    return transfer._quadrature(P, Q, gamma)


def _frozen_pow_rate(size: float, exp: float) -> float:
    """size^-exp, with an absent sample (size 0) contributing no rate."""
    if size == 0.0:
        return math.inf
    return size**-exp


def frozen_theoretical_rate(params, mode: str = "exponents_only") -> RegimeReport:
    """rates.theoretical_rate as it was with one hand-written copy of each
    rate term per mode, kept so the one-term formula can be checked
    against it report for report and error for error.  Its log(n m) is
    log n + log m where the product n m overflows a float, as in the
    library.
    """
    if mode not in ("exponents_only", "full"):
        raise ValueError(f"unknown mode '{mode}'")
    gamma, s, n, m = params.gamma, params.s, params.n, params.m
    r_b = r_beta(params.beta, params.d)
    config = classify_configuration(gamma, s, r_b)

    window = None
    if config == SUPERCRITICAL and n >= 1:
        window = acceleration_window(n, gamma, s)
    accelerated = window is not None and m >= 1 and window[0] <= m <= window[1]

    if mode == "full":
        if not max(n, m) >= 2:
            raise ConfigError("n, m", "full mode needs n or m >= 2 for the log factors")
        log_nm = math.log(max(n, 1.0) * max(m, 1.0))
        if log_nm == math.inf:
            log_nm = math.log(max(n, 1.0)) + math.log(max(m, 1.0))

    if accelerated:
        a = (r_b - s) / (gamma - s)
        src_exp = gamma * a
        tgt_exp = s * (1.0 - a)
        if mode == "exponents_only":
            rate = _frozen_pow_rate(n, src_exp) * _frozen_pow_rate(m, tgt_exp)
        else:
            if params.transfer_p is None or params.transfer_q is None:
                raise ConfigError(
                    "transfer_p, transfer_q",
                    "full mode needs both transfer values in the accelerated regime",
                )
            rate = (
                params.transfer_p**a
                * params.transfer_q ** (1.0 - a)
                * (log_nm / n) ** src_exp
                * (log_nm / m) ** tgt_exp
            )
        return RegimeReport(
            r_beta=r_b,
            configuration=config,
            regime=ACCELERATED,
            driver=None,
            window=window,
            rate_value=rate,
            source_exp=src_exp,
            target_exp=tgt_exp,
        )

    r_s = min(gamma, r_b)
    r_t = min(s, r_b)
    flags = ()
    if mode == "exponents_only":
        src_term = _frozen_pow_rate(n, r_s)
        tgt_term = _frozen_pow_rate(m, r_t)
    else:
        if params.transfer_p is None:
            src_term = math.inf
            flags += ("source term omitted: no transfer value",)
        else:
            src_term = (
                params.transfer_p * (log_nm / n) ** r_s if n > 0 else math.inf
            )
        if params.transfer_q is None:
            tgt_term = math.inf
            flags += ("target term omitted: no transfer value",)
        else:
            tgt_term = (
                params.transfer_q * (log_nm / m) ** r_t if m > 0 else math.inf
            )
        if src_term == math.inf and tgt_term == math.inf:
            if n == 0:
                raise ConfigError("transfer_q", "full-mode wedge needs it when n = 0")
            if m == 0:
                raise ConfigError("transfer_p", "full-mode wedge needs it when m = 0")
            raise ConfigError(
                "transfer_p, transfer_q", "full-mode wedge needs at least one of them"
            )
    return RegimeReport(
        r_beta=r_b,
        configuration=config,
        regime=WEDGE,
        driver=SOURCE if src_term <= tgt_term else TARGET,
        window=window,
        rate_value=min(src_term, tgt_term),
        source_exp=r_s,
        target_exp=r_t,
        flags=flags,
    )


def quadrature_uncached(P, Q, gamma: float):
    """(value, error, converged) of int q p^-gamma over Q's support.

    transfer._quadrature with both log densities evaluated afresh at
    every node scipy asks for, shared with no other call, in x at every
    node, and integrated by the frozen quadrature above.  On a bounded
    support it keeps the clamp of exp at 700 that _quadrature had before
    it integrated relative to its largest node, so there it stands for
    _quadrature only below the clamp.
    """

    def log_g(x):
        lq = Q.log_density(x)
        if lq == -math.inf:
            return -math.inf
        lp = P.log_density(x)
        if lp == -math.inf:
            return math.inf
        return lq - gamma * lp

    (lo, hi), (p_lo, p_hi) = Q.support, P.support
    if lo < p_lo or hi > p_hi:
        return math.inf, math.inf, False
    if math.isinf(hi):
        return frozen_improper_quad(log_g, lo)
    value, err = frozen_bounded_quad(lambda x: math.exp(min(log_g(x), 700.0)), lo, hi)
    if not math.isfinite(value):
        return math.inf, math.inf, False
    return value, err, True


def monte_carlo_uncached(P, Q, gamma: float):
    """(value, stderr, converged) of the Monte Carlo T(P, Q, gamma).

    Draws the _MC_DRAWS fixed-seed points from Q afresh and takes log p
    on them in one pass over the (n, d) draws, for this gamma alone.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_MC_SEED))
    logs = -gamma * P.log_density(Q.sample_array(rng, _MC_DRAWS))
    if np.any(np.isinf(logs)):
        return math.inf, math.inf, False
    vals = np.exp(logs)
    mean = float(np.mean(vals))
    return mean, float(np.std(vals, ddof=1) / math.sqrt(_MC_DRAWS)), math.isfinite(mean)


def zeta_per_step(dist, x, h: float) -> float:
    """zeta's bisection with a fresh ball_mass evaluation at every step."""
    lo, hi = 0.0, 1.0
    while ball_mass(dist, x, hi) < h:
        hi *= 2.0
    for _ in range(200):
        if hi - lo <= 1e-13 * hi and ball_mass(dist, x, hi) - h <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if ball_mass(dist, x, mid) >= h:
            hi = mid
        else:
            lo = mid
    return hi


def _frozen_maybe_scalar(out, like):
    if np.isscalar(like) or getattr(like, "ndim", 1) == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return out


def frozen_density(dist, x):
    """density as each family wrote out its own support, NaN and scalar
    rules, before the base class owned them.  Its numpy warnings are the
    caller's to silence: LogPareto's overflows below x = 2.
    """
    xs = np.asarray(x, dtype=np.float64)
    if isinstance(dist, Pareto):
        with np.errstate(invalid="ignore", divide="ignore"):
            val = (dist.alpha / dist.sigma) * np.power(
                1.0 + xs / dist.sigma, -(dist.alpha + 1.0)
            )
        return _frozen_maybe_scalar(np.where(xs < 0.0, 0.0, val), x)
    if isinstance(dist, Exponential):
        with np.errstate(over="ignore"):
            val = dist.lam * np.exp(-dist.lam * xs)
        return _frozen_maybe_scalar(np.where(xs < 0.0, 0.0, val), x)
    if isinstance(dist, Uniform):
        inside = (xs >= dist.a) & (xs <= dist.b)
        val = np.where(inside, 1.0 / (dist.b - dist.a), 0.0)
        val[np.isnan(xs)] = math.nan
        return _frozen_maybe_scalar(val, x)
    if isinstance(dist, LogPareto):
        with np.errstate(invalid="ignore", divide="ignore"):
            val = np.power(xs, -(dist.b + 1.0)) * np.power(
                np.log(np.maximum(xs, 1.5)), -dist.c
            )
        return _frozen_maybe_scalar(np.where(xs < 2.0, 0.0, val / dist._norm), x)
    pts = xs.reshape(-1, dist.d)
    vals = np.prod(frozen_density(Pareto(dist.alpha, dist.sigma), pts), axis=1)
    return float(vals[0]) if pts.shape[0] == 1 and xs.ndim <= 1 else vals


def frozen_log_density(dist, x):
    """The scalar log_density as Pareto, Exponential and LogPareto each
    wrote out its own support test, and as the others took the log of
    density.
    """
    if isinstance(dist, Pareto):
        x = float(x)
        if x < 0.0:
            return -math.inf
        return math.log(dist.alpha / dist.sigma) - (dist.alpha + 1.0) * math.log1p(
            x / dist.sigma
        )
    if isinstance(dist, Exponential):
        x = float(x)
        if x < 0.0:
            return -math.inf
        return math.log(dist.lam) - dist.lam * x
    if isinstance(dist, LogPareto):
        x = float(x)
        if x < dist._LEFT:
            return -math.inf
        lx = math.log(x)
        lr = -(dist.b + 1.0) * lx - dist.c * math.log(lx)
        return -math.inf if lr == -math.inf else lr - math.log(dist._norm)
    d = float(frozen_density(dist, x))
    return -math.inf if d <= 0.0 else math.log(d)


def frozen_cdf(dist, x):
    """cdf as each family wrote out its own support, NaN and scalar rules.

    LogPareto's raw integral from 2 is read from the library; its rules
    around it are frozen here.
    """
    xs = np.asarray(x, dtype=np.float64)
    if isinstance(dist, LogPareto):
        flat = xs.reshape(-1)
        res = np.clip(dist._raw_cdf_integral(flat) / dist._norm, 0.0, 1.0)
        res[flat < dist._LEFT] = 0.0
        res[flat == math.inf] = 1.0
        res[np.isnan(flat)] = math.nan
        return _frozen_maybe_scalar(res.reshape(xs.shape), x)
    if isinstance(dist, Pareto):
        val = 1.0 - np.power(1.0 + np.maximum(xs, 0.0) / dist.sigma, -dist.alpha)
        return _frozen_maybe_scalar(np.where(xs < 0.0, 0.0, val), x)
    if isinstance(dist, Exponential):
        val = -np.expm1(-dist.lam * np.maximum(xs, 0.0))
        return _frozen_maybe_scalar(np.where(xs < 0.0, 0.0, val), x)
    if isinstance(dist, Uniform):
        return _frozen_maybe_scalar(
            np.clip((xs - dist.a) / (dist.b - dist.a), 0.0, 1.0), x
        )
    raise NotImplementedError(f"{type(dist).__name__} has no 1-D CDF")


def frozen_ppf(dist, u):
    """ppf as Pareto, Exponential and Uniform each wrote out its own
    formula and scalar rule, and as the others bisected frozen_cdf.  Its
    numpy warnings are the caller's to silence.
    """
    us = np.asarray(u, dtype=np.float64)
    if isinstance(dist, Pareto):
        return _frozen_maybe_scalar(
            dist.sigma * (np.power(1.0 - us, -1.0 / dist.alpha) - 1.0), u
        )
    if isinstance(dist, Exponential):
        return _frozen_maybe_scalar(-np.log1p(-us) / dist.lam, u)
    if isinstance(dist, Uniform):
        return _frozen_maybe_scalar(dist.a + us * (dist.b - dist.a), u)
    lo, hi = dist.support
    us = us.reshape(-1)
    if not np.all((0.0 < us) & (us < 1.0)):
        raise ValueError("ppf argument must lie in (0, 1)")
    a = np.full(len(us), lo)
    b = np.full(len(us), min(hi, lo + 1.0))
    grow = np.flatnonzero(frozen_cdf(dist, b) < us)
    while len(grow):
        b[grow] = lo + 2.0 * (b[grow] - lo)
        beyond = grow[b[grow] - lo > ZETA_BRACKET_CAP]
        if len(beyond):
            raise RadiusSearchError(
                f"quantile u = {float(us[beyond[0]])!r} lies beyond the "
                f"bracket cap x = {lo + ZETA_BRACKET_CAP:.6g}"
            )
        grow = grow[frozen_cdf(dist, b[grow]) < us[grow]]
    rows = np.arange(len(us))
    for _ in range(200):
        mid = 0.5 * (a[rows] + b[rows])
        moving = (mid > a[rows]) & (mid < b[rows])
        rows, mid = rows[moving], mid[moving]
        if not len(rows):
            break
        below = frozen_cdf(dist, mid) < us[rows]
        a[rows[below]] = mid[below]
        b[rows[~below]] = mid[~below]
    return _frozen_maybe_scalar(b.reshape(np.shape(u)), u)


def _frozen_mc_mass(dist, x):
    dists = np.sort(_sample_distances(dist, x))
    return lambda r: np.searchsorted(dists, r, side="right") / len(dists)


def frozen_ball_mass(dist, x, r):
    """ball_mass as it was with its own 1-D and Monte Carlo branches."""
    rs = np.asarray(r, dtype=np.float64)
    if np.any(rs < 0):
        raise ValueError("radius must be nonnegative")
    if dist.dimension == 1:
        c = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if c.shape != (1,):
            raise ValueError("1-D distribution expects a 1-D point")
        mass = frozen_cdf(dist, c[0] + rs) - frozen_cdf(dist, c[0] - rs)
    else:
        mass = _frozen_mc_mass(dist, x)(rs)
    return _frozen_maybe_scalar(np.where(rs > 0.0, mass, 0.0), r)


def frozen_zeta(dist, x, h: float) -> float:
    """zeta as it was with its own choice between 1-D and Monte Carlo mass."""
    if not 0.0 < h <= 1.0:
        raise ValueError("h must lie in (0, 1]")
    if dist.dimension == 1:

        def mass(r):
            return frozen_ball_mass(dist, x, r)

    else:
        mass = _frozen_mc_mass(dist, x)
    lo, hi = 0.0, 1.0
    while mass(hi) < h:
        hi *= 2.0
        if hi > ZETA_BRACKET_CAP:
            raise RadiusSearchError(
                f"no radius <= {ZETA_BRACKET_CAP:g} reaches mass {h}"
            )
    for _ in range(200):
        if hi - lo <= 1e-13 * hi and mass(hi) - h <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mass(mid) >= h:
            hi = mid
        else:
            lo = mid
    return hi


def frozen_holder_call(f, x):
    """HolderFunction.__call__ as it was with a separate 1-D point path."""
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim <= 1 and f.dimension == 1:
        return _frozen_maybe_scalar(
            np.asarray(f.fn(xs.reshape(-1, 1)), dtype=np.float64), x
        )
    return np.asarray(f.fn(xs.reshape(-1, f.dimension)), dtype=np.float64)


def frozen_holder_zero(d: int = 1):
    """The f_star "zero" as it was built, from its own zeros function."""
    return HolderFunction(fn=lambda X: np.zeros(len(X)), dimension=d)


def ppf_bisection(dist, u: float, steps: int = 200) -> float:
    """Quantile by a fixed number of bisection steps on the CDF."""
    lo, hi = dist.support
    a, b = lo, min(hi, lo + 1.0)
    while dist.cdf(b) < u:
        b = lo + 2.0 * (b - lo)
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if dist.cdf(mid) < u:
            a = mid
        else:
            b = mid
    return b


def raw_cdf_integral_loop(dist, xs) -> np.ndarray:
    """LogPareto's raw CDF integral from 2 to each x, one knot at a time.

    Sorts the points and integrates each gap between neighbouring knots
    (log 2 first) with composite 7-node Gauss-Legendre in t = log x,
    ceil(gap / 0.25) panels from np.linspace, adding it to a running
    total.  A one-point call integrates from log 2 straight to log x.
    """
    ts = np.log(np.maximum(np.asarray(xs, dtype=np.float64), dist._LEFT))
    order = np.argsort(ts)
    knots = np.concatenate([[math.log(dist._LEFT)], ts[order]])
    out_sorted = np.zeros(len(ts))
    acc = 0.0
    for j in range(len(ts)):
        t0, t1 = knots[j], knots[j + 1]
        if t1 > t0:
            npanel = max(1, int(math.ceil((t1 - t0) / 0.25)))
            edges = np.linspace(t0, t1, npanel + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            lx = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            vals = np.exp(-(dist.b + 1.0) * lx - dist.c * np.log(lx) + lx)
            acc += float(np.sum(vals * _GL_WEIGHTS[None, :] * half[:, None]))
        out_sorted[j] = acc
    out = np.empty(len(ts))
    out[order] = out_sorted
    return out


def ball_mass_with_error(dist, x, r: float) -> tuple[float, float]:
    """Monte Carlo ball mass with its standard error (any dimension)."""
    p = float(np.mean(_sample_distances(dist, x) <= r))
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / _BALL_MC_DRAWS)


def local_mass_check_loop(dist, theta: float, x_grid, r_grid):
    """(passed, min_ratio, max_ratio, n_checked, failures) pair by pair.

    Each (x, r) pair's ball mass is its own computation: two one-point
    cdf calls in 1-D, ball_mass_with_error's Monte Carlo mean otherwise.
    """
    d = dist.dimension
    ratios, failures = [], []
    for x in np.asarray(x_grid, dtype=np.float64):
        px = float(dist.density(x))
        for r in np.asarray(r_grid, dtype=np.float64).tolist():
            if d == 1:
                mass = float(dist.cdf(float(x) + r) - dist.cdf(float(x) - r))
            else:
                mass = ball_mass_with_error(dist, x, r)[0]
            ratio = mass / (px * r**d)
            ratios.append(ratio)
            if not (1.0 / theta <= ratio <= theta):
                failures.append((x.tolist(), r, ratio))
    return not failures, min(ratios), max(ratios), len(ratios), tuple(failures)


def read_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a labeled sample with header x_1,...,x_d,y, as simulate writes it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "y" or not all(
            h == f"x_{i + 1}" for i, h in enumerate(header[:-1])
        ):
            raise ValueError(f"unexpected labeled CSV header: {header}")
        rows = [[float(v) for v in row] for row in reader]
    d = len(header) - 1
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), d + 1)
    return data[:, :d], data[:, d]
