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

    The k-d tree of its NeighborIndex is built on the first query.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        self.n = len(labels)
        # Copied, as NeighborIndex copies its points, so that editing the
        # caller's array after fit changes no prediction.
        self.labels = np.array(labels, dtype=np.float64)
        self.labels.setflags(write=False)
        self.index = NeighborIndex(X)

    def anchor(self, X, w: int):
        """(w, None, radius): R_w(x), the distance to the w-th nearest
        point, per row of X, from one tree query; label_sums reads none
        of it."""
        return w, None, self.index.kth_distance(X, w)

    def label_sums(self, X, k: np.ndarray, anchor) -> np.ndarray:
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


class _SortedSample1D:
    """A 1-D sample answered from its sorted coordinates.

    In one dimension the k nearest neighbours of x occupy a contiguous
    window of the sorted coordinates a, padded with n copies of +inf.
    The window starts at the first i where the "shift right" predicate
    x - a[i] > a[i+k] - x fails.  Both sides are monotone in i, so the
    predicate holds on a prefix of the indices.

    anchor finds each row's window for one size w shared by every row
    (ell, or the floor count): one searchsorted of 2x, in sorted query
    order, over the pair sums a[i] + a[i+w].  The exact predicate at
    s - 1 and s certifies the result.  A row it rejects (a rounding
    near-tie, or a pair sum or 2x past the float range) is searched
    again over [0, n - w].  k_starts then brackets each row's own k
    window by its w window, to a range |k - w| wide, so window_starts
    needs about log2 |k - w| rounds there.

    The sample is sorted once per fit by the default argsort, whose
    order is the unique one when all coordinates differ; a sample with
    an equal adjacent pair is re-sorted stably, so tied points keep
    ascending-index order.  coords and labels hold the sample in that
    order, and label sums come from their prefix-sum array.  A
    window whose boundary distance is exactly tied with the next point
    outside is ambiguous under the original-index tie rule and is
    resolved through the exact tree path instead.  That path's sample
    is rebuilt in original order from the sorted copies on the first
    such row, so most fits never build it.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        n = self.n = len(labels)
        x = X[:, 0]
        order = np.argsort(x)
        padded = np.empty(2 * n)
        # mode="clip" takes straight into out; argsort indices are in range.
        np.take(x, order, out=padded[:n], mode="clip")
        if np.any(padded[1:n] == padded[: n - 1]):
            order = np.argsort(x, kind="stable")
            np.take(x, order, out=padded[:n], mode="clip")
        padded[n:] = np.inf
        self.order = order
        self.labels = np.take(labels, order)
        self.prefix = np.empty(n + 1)
        self.prefix[0] = 0.0
        np.cumsum(self.labels, out=self.prefix[1:])
        for arr in (padded, order, self.labels, self.prefix):
            arr.setflags(write=False)
        self.padded = padded
        self.coords = padded[:n]
        self._tree = None

    def _tree_sample(self) -> _TreeSample:
        # Built on the first tie row.  No lock: as in NeighborIndex._kdtree,
        # threads racing here may each build an identical sample.
        if self._tree is None:
            points = np.empty((self.n, 1))
            points[self.order, 0] = self.coords
            labels = np.empty(self.n)
            labels[self.order] = self.labels
            self._tree = _TreeSample(points, labels)
        return self._tree

    def anchor(self, X, w: int):
        """(w, start, radius) of each row's w-nearest window, for one w in [1, n]."""
        x = X[:, 0]
        a, n = self.padded, self.n
        order = np.argsort(x)
        starts = np.empty(len(x), dtype=np.intp)
        # pair_sums[n - w] is +inf, so no start passes n - w.
        pair_sums = a[: n - w + 1] + a[w : n + 1]
        starts[order] = np.searchsorted(pair_sums, 2.0 * x[order])
        # The window's end distances double as the predicate's at s - 1 and s.
        first = x - a[starts]
        last = a[starts + w - 1] - x
        ok = ~(first > a[starts + w] - x) & (
            (starts == 0) | (x - a[np.maximum(starts - 1, 0)] > last)
        )
        radii = np.maximum(np.maximum(first, last), 0.0)
        if not np.all(ok):
            redo = np.flatnonzero(~ok)
            lo = np.zeros(len(redo), dtype=np.intp)
            starts[redo] = self.window_starts(x[redo], w, lo, n - w)
            radii[redo] = self.window_radius(x[redo], w, starts[redo])
        return w, starts, radii

    def window_starts(self, x: np.ndarray, k, lo: np.ndarray, hi) -> np.ndarray:
        """Each row's k window start, known to lie in [lo, hi].

        One fixed descending power-of-two step per round, from the largest
        not above the widest range of the batch: about log2(hi - lo)
        rounds of a few array operations and no per-row bookkeeping.  The
        predicate is false from a row's start on, so no step is clamped;
        a range is at most n - 1 wide and a window start at most n - k,
        so no probe reads past the padding.
        """
        s = lo.copy()
        span = int(np.max(hi - lo, initial=0))
        step = 1 << (span.bit_length() - 1) if span else 0
        while step:
            ahead = self.padded[step - 1 :]  # ahead[i] is a[i + step - 1]
            s += (x - ahead[s] > ahead[s + k] - x) * step
            step >>= 1
        return s

    def k_starts(self, x, k: np.ndarray, anchor) -> np.ndarray:
        """Each row's k_i window start, bracketed by its w window.

        For k >= w the k window holds the w window, so its start lies in
        [max(s_w + w - k, 0), min(s_w, n - k)]; for k < w it lies inside
        the w window, in [s_w, s_w + w - k].
        """
        w, s_w, _ = anchor
        lo = np.maximum(s_w + np.minimum(w - k, 0), 0)
        hi = np.minimum(s_w + np.maximum(w - k, 0), self.n - k)
        return self.window_starts(x, k, lo, hi)

    def window_radius(self, x, k, starts) -> np.ndarray:
        left = x - self.coords[starts]
        right = self.coords[starts + k - 1] - x
        return np.maximum(np.maximum(left, right), 0.0)

    def boundary_ties(self, x, k, starts) -> np.ndarray:
        r = self.window_radius(x, k, starts)
        tie_left = (starts > 0) & (x - self.coords[np.maximum(starts - 1, 0)] == r)
        return tie_left | (self.padded[starts + k] - x == r)

    def label_sums(self, X, k: np.ndarray, anchor) -> np.ndarray:
        x = X[:, 0]
        starts = self.k_starts(x, k, anchor)
        tied = self.boundary_ties(x, k, starts)
        sums = np.where(tied, 0.0, self.prefix[starts + k] - self.prefix[starts])
        if np.any(tied):
            # Added onto the whole batch, as 0.0 where no tie is: every
            # -0.0 sum of a batch with a tie row reads 0.0.
            exact = np.zeros(len(x))
            exact[tied] = self._tree_sample().label_sums(X[tied], k[tied], None)
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
        # A coordinate past about 9e307 can take a distance, a pair sum or
        # n R_ell^d to inf, which every comparison then reads as inf.
        with np.errstate(over="ignore", divide="ignore"):
            if 1 <= self.ell <= sample.n:
                anchor = sample.anchor(X, self.ell)
                r = anchor[2]
                p_hat = np.where(r > 0.0, self.ell / (sample.n * r**cfg.d), math.inf)
                k = neighbor_counts(p_hat, sample.n, self.joint_log, cfg, kappa)
            else:
                floor = min(sample.n, max(int(math.ceil(self.joint_log)), _MIN_K))
                k = np.full(q, floor, dtype=np.int64)
                p_hat = np.full(q, math.inf)
                anchor = sample.anchor(X, floor)
            return k, p_hat, sample.label_sums(X, k, anchor)

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

