"""Shared test oracles, independent of the library's query paths."""

import csv
import math

import numpy as np
from scipy import special

from transfer_knn import transfer
from transfer_knn.distributions import _BALL_MC_DRAWS, _sample_distances


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


def quadrature_transfer(P, Q, gamma: float):
    """(value, error, converged) of T(P, Q, gamma) by 1-D quadrature.

    The route transfer_value takes for a 1-D pair without a closed form,
    here taken for any 1-D pair, so it can be checked against the closed
    form.
    """
    return transfer._quadrature(P, Q, gamma)


def log_pareto_tail(b: float, c: float, t):
    """int_t^oo e^(-b u) u^-c du = t^(1 - c) E_c(b t), for an integer c and t > 0.

    In u = log x this is the raw LogPareto density x^-(b+1) log(x)^-c
    integrated from x = e^t to infinity: at t = log 2 the normaliser Z,
    and at t = log x the mass beyond x, so the cdf is 1 - tail / Z.
    """
    if c != int(c):
        raise ValueError("the closed form needs an integer c")
    t = np.asarray(t, dtype=np.float64)
    return t ** (1.0 - c) * special.expn(int(c), b * t)


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
