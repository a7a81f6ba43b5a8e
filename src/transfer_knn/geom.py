"""Exact k-nearest-neighbour queries over a fixed set of points.

Distances are Euclidean.  Ties in distance are broken by ascending
original index so that results are reproducible across runs and
platforms.  An index never changes what it answers; its k-d tree is
built on the first query, and concurrent read-only queries are safe.

The tree sums squared coordinate differences, which overflow once a
query and a point differ by more than about 1.3e154; it then reads the
distance as inf and can answer the missing-neighbour index n.  So a
query whose answer holds an infinite distance raises ValueError.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# Extra neighbours fetched beyond k so that ties straddling the cut can be
# reordered deterministically without a second tree query in the common case.
_TIE_PAD = 8
# Largest rows x depth block of one fetch that a caller splits its rows
# for: a label-sum group, or a re-query of rows whose tie block runs past
# their fetch (16 MiB of distances and indices).
_REFETCH_CELLS = 1 << 20


def _blocks(rows, depth: int):
    """rows in consecutive blocks of at most _REFETCH_CELLS // depth each.

    A block is one row when a single row at this depth already holds more.
    """
    step = max(1, _REFETCH_CELLS // depth)
    return [rows[i : i + step] for i in range(0, len(rows), step)]


def _finite(dist: np.ndarray) -> np.ndarray:
    """dist, once no distance in it is infinite (squared distances overflowed)."""
    if np.isinf(dist).any():
        raise ValueError(
            "squared distances overflow past the largest float: query and point"
            " coordinates differ by more than about 1.3e154"
        )
    return dist


class NeighborIndex:
    """Exact nearest-neighbour index over n fixed points in R^d.

    Duplicates are retained, and a 1-D array is read as n points in R^1.
    The index keeps its own read-only copy of the points, so the caller's
    array stays writeable and a later edit to it changes no answer.
    """

    def __init__(self, points):
        pts = np.array(points, dtype=np.float64, order="C")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (n, d)")
        if pts.shape[0] == 0:
            raise ValueError("point set must be nonempty")
        if pts.shape[1] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("all coordinates must be finite")
        pts.setflags(write=False)
        self.points = pts
        self._tree = None

    def _kdtree(self) -> cKDTree:
        # Built on first use.  No lock: threads racing here may each build
        # an identical tree, and whichever assignment lands last is as
        # good as the other, so the duplicate build is benign.
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def _checked_queries(self, queries, k: int) -> np.ndarray:
        """queries as a (q, d) float64 array, once k and every row are checked."""
        n = len(self)
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range [1, {n}]")
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q[:, None] if self.dimension == 1 else q[None, :]
        if q.shape[1] != self.dimension:
            raise ValueError(
                f"query dimension {q.shape[1]} != index dimension {self.dimension}"
            )
        if not np.all(np.isfinite(q)):
            raise ValueError("query coordinates must be finite")
        return q

    def kth_distance(self, queries, k: int) -> np.ndarray:
        """Distance from each query row to its k-th nearest point, shape (q,).

        The k-th smallest distance is the same however ties are ordered,
        so this is one tree query that returns only that distance.
        """
        q = self._checked_queries(queries, k)
        return _finite(self._kdtree().query(q, k=[k])[0].reshape(len(q)))

    def query_batch(self, queries, k: int):
        """k nearest neighbours for each query row.

        Returns (distances, indices), each of shape (q, k), distances
        nondecreasing along axis 1 and ties resolved by ascending index.
        """
        q = self._checked_queries(queries, k)
        n = len(self)
        kq = min(n, k + _TIE_PAD)
        dist, idx = self._fetch(q, kq)
        reach = dist[:, -1].copy()
        dist, idx = dist[:, :k], idx[:, :k]
        # A tie block cut off at the end of a fetch cannot be ordered from
        # what the tree returned.  Those rows are fetched again at twice
        # the depth, at most _REFETCH_CELLS cells per query, until each
        # block ends inside its fetch or the fetch holds every point.
        rows = np.arange(len(q))
        while kq < n:
            rows = rows[dist[rows, k - 1] >= reach[rows]]
            if not len(rows):
                break
            kq = min(n, 2 * kq)
            for part in _blocks(rows, kq):
                wide_d, wide_i = self._fetch(q[part], kq)
                dist[part], idx[part] = wide_d[:, :k], wide_i[:, :k]
                reach[part] = wide_d[:, -1]
        return dist, idx

    def blocks(self, rows, k: int):
        """rows split so that each block's query_batch(., k) fetch holds at
        most _REFETCH_CELLS cells, or is one row."""
        return _blocks(rows, min(len(self), k + _TIE_PAD))

    def _fetch(self, q, kq: int):
        """The tree's kq nearest points of each row, in (distance, index) order."""
        dist, idx = self._kdtree().query(q, k=kq)
        dist = dist.reshape(len(q), kq)
        _finite(dist[:, -1])
        idx = idx.reshape(len(q), kq)
        # Rows come back sorted by distance; only a row holding an exactly
        # equal adjacent pair can be out of (distance, index) order.
        tied = np.nonzero(np.any(dist[:, 1:] == dist[:, :-1], axis=1))[0]
        if len(tied):
            order = np.lexsort((idx[tied], dist[tied]), axis=-1)
            dist[tied] = np.take_along_axis(dist[tied], order, axis=-1)
            idx[tied] = np.take_along_axis(idx[tied], order, axis=-1)
        return dist, idx
