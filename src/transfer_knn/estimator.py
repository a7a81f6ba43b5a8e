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
    # One array, updated in place: a batch keeps few temporaries alive.
    k = n_own * p_hat
    with np.errstate(invalid="ignore"):
        k **= config.density_exponent
        k *= kappa * joint_log**config.log_exponent
    np.ceil(k, out=k)
    np.maximum(k, lower, out=k)
    np.minimum(k, n_own, out=k)
    k[np.isinf(p_hat)] = n_own
    return k.astype(np.int64)


def _distances(x, a, idx, right=False):
    """x - a[idx], or a[idx] - x when right, in the gathered array."""
    out = a[idx]
    return np.subtract(out, x, out=out) if right else np.subtract(x, out, out=out)


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
    """A stack of R equal-size 1-D samples, answered from their sorted
    coordinates.  A single fit is a stack of one.

    In one dimension the k nearest neighbours of x occupy a contiguous
    window of a sample's sorted coordinates a, padded with n copies of
    +inf.  The window starts at the first i where the "shift right"
    predicate x - a[i] > a[i+k] - x fails.  Both sides are monotone in
    i, so the predicate holds on a prefix of the indices.

    The stack lives in two flat arrays: padded, whose block r of 2n
    cells holds sample r's sorted coordinates and their padding, and
    prefix, whose block r of n + 1 cells holds its label prefix sums
    (the sum of the first j labels at cell j).  Query rows split evenly
    over the stack in order, and each row carries the flat offset r 2n
    of its own sample.  Every window start is a flat index into padded,
    so window_starts runs over the flat array unchanged: no probe
    leaves its own sample's block.  label_sums moves a start to its
    sample's block of prefix.

    anchor finds each row's window for one size w shared by every row
    (ell, or the floor count): one searchsorted of 2x per sample, in
    sorted query order, over the pair sums a[i] + a[i+w].  The exact
    predicate at s - 1 and s certifies the result.  A row it rejects (a
    rounding near-tie, or a pair sum or 2x past the float range) is
    searched again over [0, n - w].  k_starts then brackets each row's
    own k window by its w window, to a range |k - w| wide, so
    window_starts needs about log2 |k - w| rounds there.

    The stack is sorted once per fit by one row-wise default argsort,
    whose order is the unique one when all coordinates differ; a sample
    with an equal adjacent pair is re-sorted stably, so tied points keep
    ascending-index order.  A window whose boundary distance is exactly
    tied with the next point outside is ambiguous under the
    original-index tie rule and is resolved through the exact tree path
    instead.  That path's sample is rebuilt in original order from the
    sorted copies on a sample's first such row, so most fits never
    build it.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray):
        y = np.atleast_2d(labels)
        reps, n = y.shape
        self.reps, self.n = reps, n
        x = np.reshape(X, (reps, n))
        # Each sample's sort order as flat indices into the stack, so
        # sample r's are offset by r n.
        order = np.argsort(x, axis=1)
        order += np.arange(0, reps * n, n)[:, None]
        padded = np.empty((reps, 2 * n))
        # mode="clip" takes straight into out; the indices are in range.
        np.take(x, order, out=padded[:, :n], mode="clip")
        equal = padded[:, 1:n] == padded[:, : n - 1]
        if np.any(equal):
            tied = np.flatnonzero(np.any(equal, axis=1))
            order[tied] = np.argsort(x[tied], axis=1, kind="stable") + tied[:, None] * n
            padded[tied, :n] = np.take(x, order[tied])
        del equal
        padded[:, n:] = np.inf
        labels = np.take(y, order)
        prefix = np.empty((reps, n + 1))
        prefix[:, 0] = 0.0
        np.cumsum(labels, axis=1, out=prefix[:, 1:])
        for arr in (padded, prefix, order, labels):
            arr.setflags(write=False)
        # Views of read-only arrays are read-only.
        self.padded, self.prefix = padded.reshape(-1), prefix.reshape(-1)
        self.coords, self.order, self.labels = padded[:, :n], order, labels
        self._trees = [None] * reps

    def _tree_sample(self, rep: int) -> _TreeSample:
        # Built on the sample's first tie row.  No lock: as in
        # NeighborIndex._kdtree, threads racing here may each build an
        # identical sample.
        if self._trees[rep] is None:
            order = self.order[rep] - rep * self.n
            points = np.empty((self.n, 1))
            points[order, 0] = self.coords[rep]
            labels = np.empty(self.n)
            labels[order] = self.labels[rep]
            self._trees[rep] = _TreeSample(points, labels)
        return self._trees[rep]

    def anchor(self, X, w: int):
        """(w, start, radius, offset) of each row's w-nearest window, for
        one w in [1, n]; offset is the flat start of the row's sample."""
        x = X[:, 0]
        a, n, reps = self.padded, self.n, self.reps
        off = np.repeat(np.arange(0, len(a), 2 * n), len(x) // reps)
        # Row r holds sample r's pair sums; the last, a[n - w] + a[n], is
        # +inf, so no start passes n - w.
        blocks = a.reshape(reps, 2 * n)
        pair_sums = blocks[:, : n - w + 1] + blocks[:, w : n + 1]
        q = len(x) // reps
        # Each sample's queries in sorted order, as flat row indices.
        rows = np.argsort(x.reshape(reps, q), axis=1)
        rows += np.arange(0, len(x), q)[:, None]
        twice = 2.0 * x[rows]
        starts = np.empty(len(x), dtype=np.intp)
        for r in range(reps):
            starts[rows[r]] = np.searchsorted(pair_sums[r], twice[r])
        del rows, twice, pair_sums
        starts += off
        # The window's end distances double as the predicate's at s - 1
        # and s.  At a sample's first point a[s - 1] is +inf padding (the
        # previous sample's, or a[-1], the last one's).  No distance is
        # NaN, so first <= right is "not first > right".
        first = _distances(x, a, starts)
        last = _distances(x, a[w - 1 :], starts, right=True)
        ok = first <= _distances(x, a[w:], starts, right=True)
        ok &= (starts == off) | (_distances(x, a, starts - 1) > last)
        radii = np.maximum(first, last, out=first)
        np.maximum(radii, 0.0, out=radii)
        del last
        if not np.all(ok):
            redo = np.flatnonzero(~ok)
            starts[redo] = self.window_starts(x[redo], w, off[redo], off[redo] + n - w)
            radii[redo] = self.window_radius(x[redo], w, starts[redo])
        return w, starts, radii, off

    def window_starts(self, x: np.ndarray, k, lo: np.ndarray, hi) -> np.ndarray:
        """Each row's k window start, known to lie in [lo, hi]; lo is
        advanced in place into the result.

        One fixed descending power-of-two step per round, from the largest
        not above the widest range of the batch: about log2(hi - lo)
        rounds of a few array operations and no per-row bookkeeping.  The
        predicate is false from a row's start on, so no step is clamped;
        a range is at most n - 1 wide and a window start at most n - k
        past its sample's offset, so no probe leaves the sample's block.
        """
        s = lo
        span = int(np.max(hi - lo, initial=0))
        del hi
        step = 1 << (span.bit_length() - 1) if span else 0
        while step:
            ahead = self.padded[step - 1 :]  # ahead[i] is a[i + step - 1]
            left = _distances(x, ahead, s)
            s += (left > _distances(x, ahead, s + k, right=True)) * step
            step >>= 1
        return s

    def k_starts(self, x, k: np.ndarray, anchor) -> np.ndarray:
        """Each row's k_i window start, bracketed by its w window.

        For k >= w the k window holds the w window, so its start lies in
        [max(s_w + w - k, 0), min(s_w, n - k)]; for k < w it lies inside
        the w window, in [s_w, s_w + w - k] (both offset by the row's
        sample).
        """
        w, s_w, _, off = anchor
        lo = np.minimum(w - k, 0)
        lo += s_w
        np.maximum(lo, off, out=lo)
        # hi is passed on unnamed, so window_starts frees it after one read.
        return self.window_starts(
            x, k, lo, np.minimum(np.maximum(w - k, 0) + s_w, off + (self.n - k))
        )

    def window_radius(self, x, k, starts) -> np.ndarray:
        left = _distances(x, self.padded, starts)
        right = _distances(x, self.padded, starts + (k - 1), right=True)
        np.maximum(left, right, out=left)
        return np.maximum(left, 0.0, out=left)

    def boundary_ties(self, x, k, starts) -> np.ndarray:
        # Left of a sample's first point lies +inf padding (the previous
        # sample's, or a[-1], the last one's), which ties no radius.
        r = self.window_radius(x, k, starts)
        tied = _distances(x, self.padded, starts - 1) == r
        tied |= _distances(x, self.padded, starts + k, right=True) == r
        return tied

    def label_sums(self, X, k: np.ndarray, anchor) -> np.ndarray:
        x = X[:, 0]
        starts = self.k_starts(x, k, anchor)
        tied = self.boundary_ties(x, k, starts)
        # Sample r's prefix sums start at r (n + 1), its coordinates at r 2n.
        starts -= anchor[3] // (2 * self.n) * (self.n - 1)
        sums = self.prefix[starts + k]
        sums -= self.prefix[starts]
        sums[tied] = 0.0
        if np.any(tied):
            # Added onto all the rows of each sample with a tie row, as 0.0
            # where no tie is: every -0.0 sum of such a sample reads 0.0.
            q = len(x) // self.reps
            for rep in np.unique(anchor[3][tied]) // (2 * self.n):
                rows = slice(rep * q, (rep + 1) * q)
                exact = np.zeros(q)
                t = tied[rows]
                exact[t] = self._tree_sample(rep).label_sums(X[rows][t], k[rows][t], None)
                sums[rows] += exact
        return sums


def _sample(X: np.ndarray, labels: np.ndarray):
    """The neighbour backend of one stack of samples; None when they are empty."""
    if not labels.shape[1]:
        return None
    if X.shape[2] == 1:
        return _SortedSample1D(X, labels)
    return _TreeSample(X[0], labels[0])


class TrainedEstimator:
    """Immutable fitted state: one neighbour backend per nonempty sample.

    In 1-D it may hold a stack of `reps` fits of equal-size samples (see
    fit); n and m are the sizes of each one's samples.
    """

    def __init__(self, source, target, config: NeighborFunctionConfig):
        sx, sy, s_size = _coerce_labeled(source, config.d, "source")
        tx, ty, t_size = _coerce_labeled(target, config.d, "target")
        self.n = sy.shape[1]
        self.m = ty.shape[1]
        if self.n + self.m < 1:
            raise ValueError("at least one of the two samples must be nonempty")
        if self.n and self.m and len(sy) != len(ty):
            raise ValueError("source and target stacks must hold equally many samples")
        self.reps = max(len(sy), len(ty))
        with np.errstate(over="ignore"):
            joint = s_size + t_size
        if not np.all(np.isfinite(joint)):
            raise ValueError("source and target labels must have a finite sum of |y|")
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
        if len(X) % self.reps:
            raise ValueError(f"{len(X)} query rows do not split evenly over {self.reps} fits")
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
                # R_ell becomes p_hat in place; ell / (n * 0.0) is +inf,
                # so R_ell = 0 reads an infinite density.
                p_hat = anchor[2]
                p_hat **= cfg.d
                p_hat *= sample.n
                np.divide(self.ell, p_hat, out=p_hat)
                k = neighbor_counts(p_hat, sample.n, self.joint_log, cfg, kappa)
            else:
                floor = min(sample.n, max(int(math.ceil(self.joint_log)), _MIN_K))
                k = np.full(q, floor, dtype=np.int64)
                p_hat = np.full(q, math.inf)
                anchor = sample.anchor(X, floor)
            return k, p_hat, sample.label_sums(X, k, anchor)

    def predict_batch(self, X):
        """Vectorised predictions; returns (values, k_p, k_q, p_hat, q_hat).

        A stack of R fits splits the rows of X into R equal runs, in
        order, and answers run r from fit r.
        """
        k_p, p_hat, sum_p = self.side_terms(X, "p")
        k_q, q_hat, sum_q = self.side_terms(X, "q")
        values = sum_p + sum_q
        values /= k_p + k_q
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
    """A sample as a stack (X, y, size): X of shape (R, n, d), y of shape
    (R, n) and size each sample's sum of |y|.  None, like any empty
    sample, is one empty sample."""
    empty = np.empty((1, 0, d)), np.empty((1, 0)), np.zeros(1)
    if data is None:
        return empty
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    stack = X.shape[:2] if X.ndim == 3 and X.shape[2] == d == 1 else None
    X = _coerce_points(X if stack is None else X.reshape(-1, 1), d, name)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != len(X):
        raise ValueError(f"{name} labels and points must have equal length")
    if not len(y):
        return empty
    stack = stack or (1, len(y))
    with np.errstate(over="ignore"):
        # bounds every label sum formed from a sample's y
        size = np.abs(y).reshape(stack).sum(axis=1)
    if not np.all(np.isfinite(size)):
        raise ValueError(f"{name} labels must be finite, with a finite sum of |y|")
    return X.reshape(*stack, d), y.reshape(stack), size


def fit(source, target, config: NeighborFunctionConfig) -> TrainedEstimator:
    """Fit on a source sample and a target sample; either may be empty.

    A sample is (X, y), X of shape (n, d) with n labels.  In 1-D it may
    also be a stack of R equal-size samples, X of shape (R, n, 1) and y
    of shape (R, n): the R fits then answer as one (see predict_batch).
    Both stacks must hold equally many samples unless one is empty.
    """
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

