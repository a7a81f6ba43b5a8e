"""Design-adaptive local k-NN regression from one or two samples.

The prediction at x averages the labels of the k_P(x) nearest source
points and the k_Q(x) nearest target points, where each neighbour count
balances bias against variance through a plug-in density estimate:

    p_hat(x) = ell / (n R_ell(x)^d),
    k(x)     = n  AND  ceil(kappa L^(d/(2b+d)) (n p_hat(x))^(2b/(2b+d)))
                  OR  ceil(L),          L := log((n v 1)(m v 1)),

with AND/OR the min/max clamps.  kappa and the ell multiplier c_ell are
user-tunable stand-ins for the theory's conservative constants; the
functional form is unchanged.  A missing sample contributes factor 1 to
L, so the two-sample estimator with m = 0 reduces exactly to the
one-sample one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geom import NeighborIndex, PointSet

# Neighbour counts never drop below 1 on a nonempty sample, so tiny
# datasets (where log(nm) rounds to 0) still yield a prediction.
_MIN_K = 1


@dataclass(frozen=True)
class NeighborFunctionConfig:
    """Smoothness and clamp constants for the neighbour functions."""

    beta: float
    d: int
    kappa_p: float = 1.0
    kappa_q: float = 1.0
    ell_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if min(self.kappa_p, self.kappa_q, self.ell_factor) <= 0:
            raise ValueError("kappa_p, kappa_q, ell_factor must be positive")

    @property
    def density_exponent(self) -> float:
        return 2.0 * self.beta / (2.0 * self.beta + self.d)

    @property
    def log_exponent(self) -> float:
        return self.d / (2.0 * self.beta + self.d)


@dataclass(frozen=True)
class Prediction:
    value: float
    k_p_used: int
    k_q_used: int
    p_hat: float
    q_hat: float


def neighbor_counts(
    p_hat,
    n_own: int,
    joint_log: float,
    config: NeighborFunctionConfig,
    kappa: float,
) -> np.ndarray:
    """Clipped bias-variance-balancing neighbour counts for one sample.

    p_hat holds one plug-in density per query; +inf (R_ell = 0) takes
    the whole sample.
    """
    p_hat = np.asarray(p_hat, dtype=np.float64)
    lower = max(int(math.ceil(joint_log)), _MIN_K)
    with np.errstate(invalid="ignore"):
        core = (
            kappa
            * joint_log**config.log_exponent
            * (n_own * p_hat) ** config.density_exponent
        )
    k = np.minimum(n_own, np.maximum(np.ceil(core), lower))
    return np.where(np.isinf(p_hat), n_own, k).astype(np.int64)


class _SortedSample1D:
    """Coordinate-sorted view of a 1-D sample for O(log k) kNN windows.

    In one dimension the k nearest neighbours of x occupy a contiguous
    window of the sorted coordinates a.  With pos the insertion point of
    x, the window start lies in [max(pos - k, 0), min(pos, n - k)], and
    the "shift right" predicate x - a[i] > a[i+k] - x holds on a prefix
    of that range; the start is the length of that prefix past its low
    end.  window_starts finds it for every query at once with one fixed
    descending power-of-two step per round, about log2 k rounds, each a
    few array operations and no per-row bookkeeping.  positions runs one
    searchsorted on the queries in sorted order, and its result is
    shared by the ell-distance and label-sum steps of a batch.

    The sample is sorted once per fit by the default argsort, whose
    order is the unique one when all coordinates differ; a sample with
    an equal adjacent pair is re-sorted stably, so tied points keep
    ascending-index order.  Label sums come from a prefix-sum array.  A
    window whose boundary distance is exactly tied with the next point
    outside is ambiguous under the original-index tie rule and is
    resolved through the exact index path instead.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        x = X[:, 0]
        order = np.argsort(x)
        coords = x[order]
        if np.any(coords[1:] == coords[:-1]):
            order = np.argsort(x, kind="stable")
            coords = x[order]
        self.coords = coords
        self.labels = labels[order]
        self.prefix = np.concatenate([[0.0], np.cumsum(self.labels)])
        self.n = len(order)

    def positions(self, x: np.ndarray) -> np.ndarray:
        """searchsorted(coords, x), searched in ascending order of x."""
        order = np.argsort(x)
        pos = np.empty(len(x), dtype=np.intp)
        pos[order] = np.searchsorted(self.coords, x[order])
        return pos

    def window_starts(self, x: np.ndarray, k, pos: np.ndarray) -> np.ndarray:
        a = self.coords
        hi = np.minimum(pos, self.n - k)
        s = np.minimum(np.maximum(pos - k, 0), hi)
        span = int((hi - s).max(initial=0))
        step = 1 << (span.bit_length() - 1) if span else 0
        while step:
            # Rows with t == s (no room left) test an arbitrary in-range
            # pair and keep s whatever the outcome.
            t = np.minimum(s + step, hi)
            left = t - 1
            s = np.where(x - a[left] > a[left + k] - x, t, s)
            step >>= 1
        return s

    def window_radius(self, x, k, starts) -> np.ndarray:
        left = x - self.coords[starts]
        right = self.coords[starts + k - 1] - x
        return np.maximum(np.maximum(left, right), 0.0)

    def boundary_ties(self, x, k, starts) -> np.ndarray:
        r = self.window_radius(x, k, starts)
        tie_left = (starts > 0) & (x - self.coords[np.maximum(starts - 1, 0)] == r)
        outer = np.minimum(starts + k, self.n - 1)
        tie_right = (starts + k < self.n) & (self.coords[outer] - x == r)
        return tie_left | tie_right

    def label_sums(self, x, k, starts) -> np.ndarray:
        return self.prefix[starts + k] - self.prefix[starts]


class TrainedEstimator:
    """Immutable fitted state: samples, indexes, and density closures."""

    def __init__(self, source, target, config: NeighborFunctionConfig):
        sx, sy = _coerce_labeled(source, config.d)
        tx, ty = _coerce_labeled(target, config.d)
        self.n = len(sy)
        self.m = len(ty)
        if self.n + self.m < 1:
            raise ValueError("at least one of the two samples must be nonempty")
        self.config = config
        self.source_x, self.source_y = sx, sy
        self.target_x, self.target_y = tx, ty
        self.joint_log = math.log(max(self.n, 1) * max(self.m, 1))
        self.ell = int(math.ceil(config.ell_factor * self.joint_log))
        self._src_index = NeighborIndex(PointSet(sx)) if self.n >= 1 else None
        self._tgt_index = NeighborIndex(PointSet(tx)) if self.m >= 1 else None
        fast = config.d == 1
        self._src_sorted = _SortedSample1D(sx, sy) if fast and self.n else None
        self._tgt_sorted = _SortedSample1D(tx, ty) if fast and self.m else None

    # -- per-side machinery ---------------------------------------------
    def _side(self, which: str):
        if which == "p":
            return (
                self._src_index,
                self._src_sorted,
                self.source_y,
                self.n,
                self.config.kappa_p,
            )
        return (
            self._tgt_index,
            self._tgt_sorted,
            self.target_y,
            self.m,
            self.config.kappa_q,
        )

    def _density_enabled(self, n_own: int) -> bool:
        return n_own >= 1 and 1 <= self.ell <= n_own

    def _ell_distances(self, X, which: str, workers=1, pos=None) -> np.ndarray:
        """R_ell(x) from one sample at each row of X.

        pos is the 1-D path's positions of X in the sorted sample.
        """
        index, sorted1d, _, _, _ = self._side(which)
        if sorted1d is not None:
            starts = sorted1d.window_starts(X[:, 0], self.ell, pos)
            return sorted1d.window_radius(X[:, 0], self.ell, starts)
        dist, _ = index.query_batch(X, self.ell, workers=workers)
        return dist[:, -1]

    def _counts_batch(self, X: np.ndarray, which: str, workers: int = 1, pos=None):
        _, _, _, n_own, kappa = self._side(which)
        q = len(X)
        if n_own == 0:
            return np.zeros(q, dtype=np.int64), np.full(q, math.inf)
        if not self._density_enabled(n_own):
            k = min(n_own, max(int(math.ceil(self.joint_log)), _MIN_K))
            return np.full(q, k, dtype=np.int64), np.full(q, math.inf)
        r = self._ell_distances(X, which, workers, pos)
        with np.errstate(divide="ignore"):
            p_hat = np.where(r > 0.0, self.ell / (n_own * r**self.config.d), math.inf)
        k = neighbor_counts(p_hat, n_own, self.joint_log, self.config, kappa)
        return k, p_hat

    def _label_sums_exact(self, X, k, which, rows, workers=1):
        """Index-path label sums for the given rows (tie-rule exact).

        Rows are grouped by ceil(log2 k) and each group is queried at its
        own largest k, so no row fetches more than twice its neighbours.
        The sequential per-row cumsum makes a row's sum independent of how
        many extra neighbours its group fetched.
        """
        index, _, labels, _, _ = self._side(which)
        out = np.zeros(len(X))
        sub = np.nonzero(rows)[0]
        # frexp's exponent of k - 1 is ceil(log2 k), exactly, for k >= 1.
        bucket = np.frexp(k[sub] - 1)[1]
        for b in np.unique(bucket):
            group = sub[bucket == b]
            kg = k[group]
            _, idx = index.query_batch(X[group], int(kg.max()), workers=workers)
            csums = np.cumsum(labels[idx], axis=1)
            out[group] = csums[np.arange(len(group)), kg - 1]
        return out

    def _label_sums(self, X, k: np.ndarray, which: str, workers=1, pos=None):
        """Sum of the labels of each row's first k_i neighbours.

        pos is the 1-D path's positions of X in the sorted sample.
        """
        _, sorted1d, _, n_own, _ = self._side(which)
        sums = np.zeros(len(X))
        if n_own == 0 or len(k) == 0 or int(k.max()) == 0:
            return sums
        live = k > 0
        if sorted1d is None:
            return self._label_sums_exact(X, k, which, live, workers)
        x = X[:, 0]
        ks = np.maximum(k, 1)
        starts = sorted1d.window_starts(x, ks, pos)
        ambiguous = live & sorted1d.boundary_ties(x, ks, starts)
        clean = live & ~ambiguous
        sums[clean] = sorted1d.label_sums(x[clean], ks[clean], starts[clean])
        if np.any(ambiguous):
            sums += self._label_sums_exact(X, k, which, ambiguous, workers)
        return sums

    # -- public API -------------------------------------------------------
    def side_terms(self, X, side: str, workers: int = 1):
        """One sample's (k, density estimate, label sum) at each row of X.

        side is "p" for the source sample and "q" for the target sample.
        """
        if side not in ("p", "q"):
            raise ValueError(f"side must be 'p' or 'q', got {side!r}")
        X = _coerce_points(X, self.config.d)
        sorted1d = self._side(side)[1]
        pos = None if sorted1d is None else sorted1d.positions(X[:, 0])
        k, density = self._counts_batch(X, side, workers, pos)
        return k, density, self._label_sums(X, k, side, workers, pos)

    def predict_batch(self, X, workers: int = 1):
        """Vectorised predictions; returns (values, k_p, k_q, p_hat, q_hat)."""
        k_p, p_hat, sum_p = self.side_terms(X, "p", workers)
        k_q, q_hat, sum_q = self.side_terms(X, "q", workers)
        values = (sum_p + sum_q) / (k_p + k_q)
        return values, k_p, k_q, p_hat, q_hat

    def predict(self, x) -> Prediction:
        values, k_p, k_q, p_hat, q_hat = self.predict_batch(
            np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
        )
        return Prediction(
            value=float(values[0]),
            k_p_used=int(k_p[0]),
            k_q_used=int(k_q[0]),
            p_hat=float(p_hat[0]),
            q_hat=float(q_hat[0]),
        )


def _coerce_points(X, d: int) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None] if d == 1 else arr[None, :]
    if arr.size == 0:
        arr = arr.reshape(0, d)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"points must have shape (n, {d})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


def _coerce_labeled(data, d: int):
    if data is None:
        return np.empty((0, d)), np.empty(0)
    X, y = data
    X = _coerce_points(X, d)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != len(X):
        raise ValueError("labels and points must have equal length")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    return X, y


def fit(source, target, config: NeighborFunctionConfig) -> TrainedEstimator:
    """Fit on a source sample and a target sample; either may be empty."""
    return TrainedEstimator(source, target, config)


def pointwise_error_split(est: TrainedEstimator, x, f_star) -> tuple[float, float]:
    """Squared error at x and its convex-combination upper bound.

    The bound weighs the one-sample squared errors by the neighbour-count
    shares; the first component never exceeds the second (Jensen).
    """
    X = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    k_p, _, sum_p = est.side_terms(X, "p")
    k_q, _, sum_q = est.side_terms(X, "q")
    kp, kq = int(k_p[0]), int(k_q[0])
    total = (sum_p[0] + sum_q[0]) / (kp + kq)
    fx = float(np.asarray(f_star(X), dtype=np.float64).reshape(-1)[0])
    lhs = (total - fx) ** 2
    rhs = 0.0
    if kp > 0:
        rhs += kp / (kp + kq) * (sum_p[0] / kp - fx) ** 2
    if kq > 0:
        rhs += kq / (kp + kq) * (sum_q[0] / kq - fx) ** 2
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def read_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a labeled sample with header x_1,...,x_d,y."""
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


def write_labeled_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    d = X.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x_{i + 1}" for i in range(d)] + ["y"]) + "\n")
        for row, label in zip(X, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(label)!r}\n")


def write_predictions_csv(path, X, values, k_p, k_q, p_hat, q_hat) -> None:
    """Emit predictions as x_1,...,x_d,y_hat,k_p,k_q,p_hat,q_hat."""
    d = X.shape[1]
    header = [f"x_{i + 1}" for i in range(d)] + ["y_hat", "k_p", "k_q", "p_hat", "q_hat"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(X)):
            cells = [repr(float(v)) for v in X[i]]
            cells.append(repr(float(values[i])))
            cells.append(str(int(k_p[i])))
            cells.append(str(int(k_q[i])))
            cells.append(repr(float(p_hat[i])))
            cells.append(repr(float(q_hat[i])))
            fh.write(",".join(cells) + "\n")
