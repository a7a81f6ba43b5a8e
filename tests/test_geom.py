import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial import cKDTree

from conftest import brute_force_knn, brute_force_knn_rows
from transfer_knn import geom
from transfer_knn.distributions import ProductPareto
from transfer_knn.geom import _TIE_PAD, NeighborIndex


def nearest(idx, x, k):
    """(index, distance) pairs of one query's k nearest points."""
    dist, ind = idx.query_batch(np.reshape(np.asarray(x, dtype=np.float64), (1, -1)), k)
    return list(zip(ind[0].tolist(), dist[0].tolist()))


def kth(idx, x, k):
    """R_k(x): the last distance of one query's k nearest points."""
    return nearest(idx, x, k)[-1][1]


class TestConstruction:
    def test_1d_three_points(self):
        idx = NeighborIndex([0.0, 1.0, 3.0])
        assert len(idx) == 3

    def test_duplicates_retained(self):
        idx = NeighborIndex([0.0, 0.0, 1.0])
        assert len(idx) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NeighborIndex(np.empty((0, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            NeighborIndex(np.array([[np.nan]]))

    def test_points_read_only(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        idx = NeighborIndex(pts)
        assert idx.points.shape == (2, 2) and idx.dimension == 2
        assert not idx.points.flags.writeable
        assert pts.flags.writeable  # the index froze its own copy

    def test_dimension_mismatch_query(self):
        idx = NeighborIndex(np.ones((4, 2)))
        with pytest.raises(ValueError):
            idx.query_batch(np.ones((1, 3)), 1)


class TestQueryKnn:
    def test_basic_order(self):
        idx = NeighborIndex([0.0, 1.0, 3.0])
        res = nearest(idx, [0.0], 2)
        assert [i for i, _ in res] == [0, 1]
        assert [d for _, d in res] == [0.0, 1.0]

    def test_self_distance_zero(self):
        idx = NeighborIndex([0.0, 1.0, 3.0])
        assert nearest(idx, [1.0], 1)[0][1] == 0.0

    def test_tie_lower_index_wins(self):
        idx = NeighborIndex([-1.0, 1.0])
        res = nearest(idx, [0.0], 1)
        assert res[0][0] == 0
        assert res[0][1] == 1.0

    def test_k_out_of_range(self):
        idx = NeighborIndex([0.0, 1.0])
        with pytest.raises(ValueError):
            nearest(idx, [0.0], 3)
        with pytest.raises(ValueError):
            nearest(idx, [0.0], 0)

    def test_deep_tie_blocks(self):
        # 12 points at the same coordinate exceed the query padding.
        pts = np.zeros(12)
        idx = NeighborIndex(pts)
        res = nearest(idx, [0.0], 5)
        assert [i for i, _ in res] == [0, 1, 2, 3, 4]

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(2024)
        pts = rng.random((500, 2))
        idx = NeighborIndex(pts)
        for _ in range(100):
            x = rng.random(2)
            k = int(rng.integers(1, 20))
            got = nearest(idx, x, k)
            want = brute_force_knn(pts, x, k)
            assert got == want


class TestKthDistance:
    def test_examples(self):
        idx = NeighborIndex([0.0, 1.0, 3.0])
        assert kth(idx, [0.0], 1) == 0.0
        assert kth(idx, [0.0], 2) == 1.0
        assert kth(idx, [0.0], 3) == 3.0

    def test_singleton(self):
        idx = NeighborIndex([5.0])
        assert kth(idx, [5.0], 1) == 0.0

    def test_tied_pair(self):
        idx = NeighborIndex([0.0, 2.0])
        assert kth(idx, [1.0], 2) == 1.0

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(5)
        pts = rng.random((60, 3))
        idx = NeighborIndex(pts)
        for _ in range(20):
            x = rng.random(3)
            dists = [kth(idx, x, k) for k in range(1, 61)]
            assert dists == sorted(dists)

    @staticmethod
    def sample_case(kind):
        """Points and queries of a d = 2 sample: continuous ProductPareto
        draws, or n/100 copies per cell of a 10 x 10 integer grid queried
        on and between its points."""
        rng = np.random.default_rng(131)
        n = 2048
        if kind == "product_pareto":
            pts = ProductPareto(1.0, 1.0, 2).sample_array(rng, n)
            queries = ProductPareto(2.0, 1.0, 2).sample_array(rng, 300)
        else:
            pts = rng.integers(0, 10, (n, 2)).astype(float)
            queries = np.concatenate(
                [rng.integers(0, 10, (150, 2)), rng.integers(0, 10, (150, 2)) + 0.5]
            ).astype(float)
        return pts, queries

    @pytest.mark.parametrize("kind", ["product_pareto", "grid"])
    def test_kth_distance_is_last_query_batch_distance(self, kind):
        pts, queries = self.sample_case(kind)
        idx = NeighborIndex(pts)
        # k = 1, the estimator's ell = ceil(log(n m)) at m = n, and k = n
        for k in (1, 16, len(pts)):
            got = idx.kth_distance(queries, k)
            want = idx.query_batch(queries, k)[0][:, -1]
            assert got.shape == (len(queries),) and got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_kth_distance_checks_as_query_batch(self):
        idx = NeighborIndex(np.ones((4, 2)))
        for queries, k in [
            (np.ones((1, 3)), 1),
            (np.ones((1, 2)), 0),
            (np.ones((1, 2)), 5),
            (np.full((1, 2), np.nan), 1),
        ]:
            for method in (idx.kth_distance, idx.query_batch):
                with pytest.raises(ValueError):
                    method(queries, k)


class TestDistanceOverflow:
    def test_both_query_methods_raise(self):
        # Points 1e159 apart: every squared distance between two of them
        # overflows, and the tree would answer the missing index n.
        pts = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2)) * 1e160
        idx = NeighborIndex(pts)
        for method, k in ((idx.query_batch, 1), (idx.kth_distance, 2)):
            with pytest.raises(ValueError, match="squared distances overflow"):
                method(pts, k)


class TestInvariants:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_index_equals_brute_force(self, d):
        rng = np.random.default_rng(100 + d)
        pts = rng.standard_normal((200, d))
        idx = NeighborIndex(pts)
        queries = rng.standard_normal((150, d))
        dist, ind = idx.query_batch(queries, 7)
        for row, x in enumerate(queries):
            want = brute_force_knn(pts, x, 7)
            assert list(ind[row]) == [w[0] for w in want]
            assert list(dist[row]) == [w[1] for w in want]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50),
            min_size=4,
            max_size=30,
            unique=True,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariance(self, coords, pyrandom):
        perm = list(range(len(coords)))
        pyrandom.shuffle(perm)
        base = NeighborIndex(coords)
        shuffled = NeighborIndex([coords[p] for p in perm])
        x = [0.25]
        k = len(coords) // 2 + 1
        res_a = nearest(base, x, k)
        res_b = nearest(shuffled, x, k)
        assert [d for _, d in res_a] == [d for _, d in res_b]
        # indices map through the permutation whenever no distances tie
        # (ties re-break by original index, which permutes differently)
        all_dists = sorted(abs(c - x[0]) for c in coords)
        if len(set(all_dists)) == len(all_dists):
            assert [coords[perm[i]] for i, _ in res_b] == [
                coords[i] for i, _ in res_a
            ]

    def test_concurrent_reads_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(77)
        pts = rng.random((300, 2))
        idx = NeighborIndex(pts)
        queries = rng.random((64, 2))

        def work(q):
            return nearest(idx, q, 5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, queries))
        for q, res in zip(queries, results):
            assert res == brute_force_knn(pts, q, 5)

    def test_concurrent_first_queries_race_the_tree_build(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(79)
        pts = rng.random((2000, 2))
        queries = rng.random((16, 2))
        want = [brute_force_knn(pts, q, 5) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                idx = NeighborIndex(pts)  # tree not built yet
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(nearest, idx, q, 5) for q in queries]
                    got = [f.result(timeout=60) for f in futures]
                for res, w in zip(got, want):
                    assert res == w
        finally:
            sys.setswitchinterval(interval)


class TestTieOnlyReordering:
    def test_untied_rows_kept_tied_rows_index_ordered(self):
        rng = np.random.default_rng(0)
        base = rng.random((200, 2))
        # points 200..207 repeat points 0..7: queries near them see ties
        pts = np.concatenate([base, base[:8]])
        idx = NeighborIndex(pts)
        queries = np.concatenate([base[:8], rng.random((40, 2))])
        k = 5
        dist, ind = idx.query_batch(queries, k)
        raw_d, raw_i = cKDTree(pts).query(queries, k=k + _TIE_PAD)
        tied = np.any(raw_d[:, 1:] == raw_d[:, :-1], axis=1)
        assert 0 < tied.sum() < len(queries)
        reordered = 0
        for row, x in enumerate(queries):
            want = brute_force_knn(pts, x, k)
            assert list(ind[row]) == [w[0] for w in want]
            assert list(dist[row]) == [w[1] for w in want]
            if tied[row]:
                reordered += list(raw_i[row, :k]) != list(ind[row])
            else:
                assert np.array_equal(ind[row], raw_i[row, :k])
                assert np.array_equal(dist[row], raw_d[row, :k])
        assert reordered > 0  # the tree's own order was not index order


class TestStaleTieRows:
    """Rows whose tie block at k runs past the k + _TIE_PAD fetch."""

    @staticmethod
    def grid_case():
        # n/100 copies per cell of a 10 x 10 integer grid.  At k = 17 an
        # on-grid query's distance-0 block (about 41 copies) and a mid-cell
        # query's shell (about 164 points) both outrun the fetch.
        rng = np.random.default_rng(101)
        n = 4096
        pts = rng.integers(0, 10, (n, 2)).astype(float)
        queries = np.concatenate(
            [rng.integers(0, 10, (1000, 2)), rng.integers(0, 10, (1000, 2)) + 0.5]
        ).astype(float)
        return pts, queries, 17

    def test_integer_grid_matches_oracle(self, monkeypatch):
        pts, queries, k = self.grid_case()
        raw_d, _ = cKDTree(pts).query(queries, k=k + _TIE_PAD)
        stale = raw_d[:, k - 1] == raw_d[:, -1]
        assert stale.mean() > 0.9
        fetched = []
        original = NeighborIndex._fetch

        def counting(self, q, kq):
            fetched.append(len(q) * kq)
            return original(self, q, kq)

        monkeypatch.setattr(NeighborIndex, "_fetch", counting)
        dist, ind = NeighborIndex(pts).query_batch(queries, k)
        want_d, want_i = brute_force_knn_rows(pts, queries, k)
        assert np.array_equal(ind, want_i) and np.array_equal(dist, want_d)
        # Doubling fetches each row to less than twice the end of its tie
        # block, and the depths before that sum to less than the last one.
        block_end = cKDTree(pts).query_ball_point(
            queries, want_d[:, -1], return_length=True
        )
        assert sum(fetched) <= len(queries) * (k + _TIE_PAD) + 4 * block_end.sum()
        assert sum(fetched) < len(queries) * len(pts) // 10

    def test_blocks_reaching_every_point(self):
        pts = np.concatenate([np.zeros((50, 2)), np.ones((3, 2))])
        queries = np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 1.0], [1.0, 1.0]])
        for k in (1, 5, 50, 52):
            dist, ind = NeighborIndex(pts).query_batch(queries, k)
            want_d, want_i = brute_force_knn_rows(pts, queries, k)
            assert np.array_equal(ind, want_i) and np.array_equal(dist, want_d)

    def test_refetch_split_into_parts(self, monkeypatch):
        pts, queries, k = self.grid_case()
        whole = NeighborIndex(pts).query_batch(queries, k)
        monkeypatch.setattr(geom, "_REFETCH_CELLS", 1000)
        parts = NeighborIndex(pts).query_batch(queries, k)
        assert np.array_equal(whole[0], parts[0]) and np.array_equal(whole[1], parts[1])
