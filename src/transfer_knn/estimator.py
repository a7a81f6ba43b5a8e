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

import math
from dataclasses import dataclass

import numpy as np

from .geom import NeighborIndex

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


class _TreeSample:
    """One nonempty labeled sample, answered by exact k-NN queries (any d).

    The k-d tree of its NeighborIndex is built on the first query, so a
    1-D sample that never needs the exact path never builds one.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        self.n = len(labels)
        # Copied, as NeighborIndex copies its points, so that editing the
        # caller's array after fit changes no prediction.
        self.labels = np.array(labels, dtype=np.float64)
        self.labels.setflags(write=False)
        self.index = NeighborIndex(X)

    def positions(self, X):
        """State of one batch that radii and label_sums share, as pos; none here."""
        return None

    def radii(self, X, ell: int, pos) -> np.ndarray:
        """R_ell(x), the distance to the ell-th nearest point, per row of X."""
        return self.index.kth_distance(X, ell)

    def label_sums(self, X, k: np.ndarray, pos) -> np.ndarray:
        """Sum of the labels of each row's first k_i neighbours (k_i >= 1).

        Rows are grouped by ceil(16 log2 k), sixteen groups per doubling
        of k, and each group is queried at its own largest k, so no row
        fetches more than 2^(1/16) (about 1.044) times its neighbours.
        The tree's cost grows linearly in the depth, and finer groups
        only add per-call overhead.  A group is queried in row blocks of
        at most 2^20 fetched cells each, so rows that all take k = n (as
        every row with ell sample points at its own position does) cost
        memory linear in the rows, not rows x n at once.  The sequential
        per-row cumsum makes a row's sum independent of how many extra
        neighbours its group fetched.
        """
        out = np.zeros(len(X))
        bucket = np.ceil(16.0 * np.log2(k))
        for b in np.unique(bucket):
            group = np.nonzero(bucket == b)[0]
            depth = int(k[group].max())
            for rows in self.index.blocks(group, depth):
                _, idx = self.index.query_batch(X[rows], depth)
                csums = np.cumsum(self.labels[idx], axis=1)
                out[rows] = csums[np.arange(len(rows)), k[rows] - 1]
        return out


class _SortedSample1D(_TreeSample):
    """A 1-D sample answered from its sorted coordinates in O(log k).

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
    resolved through the exact tree path instead.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        super().__init__(X, labels)
        x = X[:, 0]
        order = np.argsort(x)
        coords = x[order]
        if np.any(coords[1:] == coords[:-1]):
            order = np.argsort(x, kind="stable")
            coords = x[order]
        self.padded = np.concatenate([coords, np.full(self.n, np.inf)])
        self.padded.setflags(write=False)
        self.coords = self.padded[: self.n]
        self.prefix = np.concatenate([[0.0], np.cumsum(self.labels[order])])
        self.prefix.setflags(write=False)

    def positions(self, X) -> np.ndarray:
        """searchsorted(coords, x), searched in ascending order of x."""
        x = X[:, 0]
        order = np.argsort(x)
        pos = np.empty(len(x), dtype=np.intp)
        pos[order] = np.searchsorted(self.coords, x[order])
        return pos

    def window_starts(self, x: np.ndarray, k, pos: np.ndarray) -> np.ndarray:
        # From pos on a[i] >= x, and from n - k on a[i+k] is padding +inf,
        # so the predicate is false from min(pos, n - k) on and no step is
        # clamped; as span <= min(k, n - k), no probe reads past n + n // 2 - 1.
        a = self.padded
        s = np.maximum(pos - k, 0)
        span = int((np.minimum(pos, self.n - k) - s).max(initial=0))
        step = 1 << (span.bit_length() - 1) if span else 0
        while step:
            left = s + (step - 1)
            s += (x - a[left] > a[left + k] - x) * step
            step >>= 1
        return s

    def window_radius(self, x, k, starts) -> np.ndarray:
        left = x - self.coords[starts]
        right = self.coords[starts + k - 1] - x
        return np.maximum(np.maximum(left, right), 0.0)

    def boundary_ties(self, x, k, starts) -> np.ndarray:
        r = self.window_radius(x, k, starts)
        tie_left = (starts > 0) & (x - self.coords[np.maximum(starts - 1, 0)] == r)
        return tie_left | (self.padded[starts + k] - x == r)

    def radii(self, X, ell: int, pos) -> np.ndarray:
        x = X[:, 0]
        return self.window_radius(x, ell, self.window_starts(x, ell, pos))

    def label_sums(self, X, k: np.ndarray, pos) -> np.ndarray:
        x = X[:, 0]
        starts = self.window_starts(x, k, pos)
        tied = self.boundary_ties(x, k, starts)
        sums = np.where(tied, 0.0, self.prefix[starts + k] - self.prefix[starts])
        if np.any(tied):
            # Added onto the whole batch, as 0.0 where no tie is: every
            # -0.0 sum of a batch with a tie row reads 0.0.
            exact = np.zeros(len(x))
            exact[tied] = super().label_sums(X[tied], k[tied], None)
            sums += exact
        return sums


def _sample(X: np.ndarray, labels: np.ndarray):
    """The neighbour backend of one sample; None when it is empty."""
    if not len(labels):
        return None
    return (_SortedSample1D if X.shape[1] == 1 else _TreeSample)(X, labels)


class TrainedEstimator:
    """Immutable fitted state: one neighbour backend per nonempty sample."""

    def __init__(self, source, target, config: NeighborFunctionConfig):
        sx, sy, s_size = _coerce_labeled(source, config.d, "source")
        tx, ty, t_size = _coerce_labeled(target, config.d, "target")
        if not math.isfinite(s_size + t_size):
            raise ValueError("source and target labels must have a finite sum of |y|")
        self.n = len(sy)
        self.m = len(ty)
        if self.n + self.m < 1:
            raise ValueError("at least one of the two samples must be nonempty")
        self.config = config
        self.joint_log = math.log(max(self.n, 1) * max(self.m, 1))
        # Past both samples every ell takes side_terms' floor branch, inf included.
        self.ell = math.ceil(min(config.ell_factor * self.joint_log, self.n + self.m + 1))
        self._source = _sample(sx, sy)
        self._target = _sample(tx, ty)

    def side_terms(self, X, side: str):
        """One sample's (k, density estimate, label sum) at each row of X.

        side is "p" for the source sample and "q" for the target sample.
        A missing sample gives k = 0, an infinite density and sum 0.
        """
        if side not in ("p", "q"):
            raise ValueError(f"side must be 'p' or 'q', got {side!r}")
        X = _coerce_points(X, self.config.d, "query")
        cfg = self.config
        sample, kappa = (
            (self._source, cfg.kappa_p) if side == "p" else (self._target, cfg.kappa_q)
        )
        q = len(X)
        if sample is None:
            return np.zeros(q, dtype=np.int64), np.full(q, math.inf), np.zeros(q)
        pos = sample.positions(X)
        if 1 <= self.ell <= sample.n:
            r = sample.radii(X, self.ell, pos)
            with np.errstate(divide="ignore"):
                p_hat = np.where(r > 0.0, self.ell / (sample.n * r**cfg.d), math.inf)
            k = neighbor_counts(p_hat, sample.n, self.joint_log, cfg, kappa)
        else:
            floor = max(int(math.ceil(self.joint_log)), _MIN_K)
            k = np.full(q, min(sample.n, floor), dtype=np.int64)
            p_hat = np.full(q, math.inf)
        return k, p_hat, sample.label_sums(X, k, pos)

    def predict_batch(self, X):
        """Vectorised predictions; returns (values, k_p, k_q, p_hat, q_hat)."""
        k_p, p_hat, sum_p = self.side_terms(X, "p")
        k_q, q_hat, sum_q = self.side_terms(X, "q")
        values = (sum_p + sum_q) / (k_p + k_q)
        return values, k_p, k_q, p_hat, q_hat


def _coerce_points(X, d: int, name: str) -> np.ndarray:
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None] if d == 1 else arr[None, :]
    if arr.size == 0:
        arr = arr.reshape(0, d)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"{name} points must have shape (n, {d})")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} coordinates must be finite")
    return arr


def _coerce_labeled(data, d: int, name: str):
    if data is None:
        return np.empty((0, d)), np.empty(0), 0.0
    X, y = data
    X = _coerce_points(X, d, name)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != len(X):
        raise ValueError(f"{name} labels and points must have equal length")
    with np.errstate(over="ignore"):
        size = float(np.abs(y).sum())  # bounds every label sum formed from y
    if not math.isfinite(size):
        raise ValueError(f"{name} labels must be finite, with a finite sum of |y|")
    return X, y, size


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

