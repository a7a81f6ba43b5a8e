import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_knn, read_labeled_csv, window_starts_bisection
from transfer_knn.cli import OutputStager, run
from transfer_knn.distributions import ProductPareto
from transfer_knn.estimator import (
    NeighborFunctionConfig,
    _SortedSample1D,
    _TreeSample,
    fit,
    neighbor_counts,
    pointwise_error_split,
)
from transfer_knn import geom
from transfer_knn.geom import _TIE_PAD, NeighborIndex

CFG = NeighborFunctionConfig(beta=1.0, d=1)


def oracle_label_sum(X, y, x, k):
    """Labels of the k brute-force neighbours of x, summed one by one in
    (distance, index) order, as a sequential cumsum does."""
    acc = 0.0
    for i, _ in brute_force_knn(X, x, k):
        acc += y[i]
    return acc


def oracle_side(X, y, x, ell, joint_log, kappa, beta, d):
    """(k, p_hat, label sum) of one sample at x.

    Recomputes the plug-in density and the clipped neighbour count from
    scratch on the brute-force oracle; shares no code with the estimator
    under test.
    """
    n = len(y)
    lower = max(int(math.ceil(joint_log)), 1)
    p_hat = math.inf
    k = min(n, lower)
    if 1 <= ell <= n:
        r_ell = brute_force_knn(X, x, ell)[-1][1]
        if r_ell == 0:
            k = n
        else:
            p_hat = ell / (n * r_ell**d)
            core = (
                kappa
                * joint_log ** (d / (2 * beta + d))
                * (n * p_hat) ** (2 * beta / (2 * beta + d))
            )
            k = min(n, max(int(math.ceil(core)), lower))
    return k, p_hat, oracle_label_sum(X, y, x, k)


def reference_one_sample_predict(X, y, x, beta, d, kappa=1.0, ell_factor=1.0):
    """Stand-alone one-sample local k-NN, built only on the brute-force oracle."""
    joint_log = math.log(len(y))  # missing second sample contributes factor 1
    ell = int(math.ceil(ell_factor * joint_log))
    k, _, total = oracle_side(X, y, x, ell, joint_log, kappa, beta, d)
    return total / k


def one_sample_p_hat(coords, x, cfg=CFG):
    """ell and the source density estimate p_hat(x) of a one-sample fit."""
    X = np.asarray(coords, dtype=np.float64)[:, None]
    est = fit((X, np.zeros(len(X))), None, cfg)
    return est.ell, est.predict_batch([[x]])[3][0]


class TestKnnDensity:
    def test_four_point_example(self):
        # ell = ceil(log 4) = 2, R_2(0) = 1
        assert one_sample_p_hat([0.0, 1.0, 2.0, 3.0], 0.0) == (2, 0.5)

    def test_grid_example(self):
        # ell = ceil(0.8 log 10) = 2, R_2(0.45) = 0.05
        cfg = NeighborFunctionConfig(beta=1.0, d=1, ell_factor=0.8)
        ell, p_hat = one_sample_p_hat(np.arange(10) / 10.0, 0.45, cfg)
        assert ell == 2
        assert math.isclose(p_hat, 4.0, rel_tol=1e-12)

    def test_duplicates_give_infinity(self):
        # ell = ceil(log 3) = 2, R_2(1) = 0
        assert one_sample_p_hat([1.0, 1.0, 2.0], 1.0) == (2, math.inf)


def count_at(p_hat, n_own, joint_log, config, kappa):
    """neighbor_counts at a single density value."""
    return int(neighbor_counts([p_hat], n_own, joint_log, config, kappa)[0])


class TestNeighborCount:
    def test_hand_example(self):
        assert count_at(0.5, 100, math.log(100), CFG, 1.0) == 23

    def test_zero_density_hits_lower_clamp(self):
        assert count_at(0.0, 100, math.log(100), CFG, 1.0) == 5

    def test_infinite_density_hits_upper_clamp(self):
        assert count_at(math.inf, 100, math.log(100), CFG, 1.0) == 100

    def test_huge_density_clamps_at_n(self):
        assert count_at(1e12, 100, math.log(100), CFG, 1.0) == 100

    @settings(max_examples=60, deadline=None)
    @given(
        p1=st.floats(min_value=0.0, max_value=50.0),
        p2=st.floats(min_value=0.0, max_value=50.0),
        n=st.integers(min_value=2, max_value=5000),
    )
    def test_monotone_in_density(self, p1, p2, n):
        lo, hi = sorted((p1, p2))
        jl = math.log(n * 7)
        k_lo, k_hi = neighbor_counts([lo, hi], n, jl, CFG, 1.0)
        assert k_lo <= k_hi

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=50.0),
        n1=st.integers(min_value=2, max_value=5000),
        n2=st.integers(min_value=2, max_value=5000),
    )
    def test_monotone_in_sample_size(self, p, n1, n2):
        lo, hi = sorted((n1, n2))
        jl = math.log(hi * 3)
        assert count_at(p, lo, jl, CFG, 1.0) <= count_at(p, hi, jl, CFG, 1.0)


class TestFit:
    def test_source_only(self):
        rng = np.random.default_rng(0)
        est = fit((rng.random((50, 1)), rng.random(50)), None, CFG)
        assert est.n == 50 and est.m == 0
        assert est.ell == math.ceil(math.log(50))

    def test_target_only(self):
        rng = np.random.default_rng(0)
        est = fit(None, (rng.random((50, 1)), rng.random(50)), CFG)
        assert est.n == 0 and est.m == 50

    def test_ell_at_hundred_by_hundred(self):
        rng = np.random.default_rng(0)
        est = fit(
            (rng.random((100, 1)), rng.random(100)),
            (rng.random((100, 1)), rng.random(100)),
            CFG,
        )
        assert est.ell == 10

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError):
            fit(None, None, CFG)

    def test_nonfinite_labels_rejected(self):
        with pytest.raises(ValueError):
            fit((np.zeros((2, 1)), np.array([1.0, np.nan])), None, CFG)

    def test_ell_past_the_float_range(self):
        # ell_factor * log(n m) = inf: ell is an int past both samples.
        rng = np.random.default_rng(3)
        data = (rng.random((100, 1)), rng.random(100))
        est = fit(data, None, NeighborFunctionConfig(beta=1.0, d=1, ell_factor=1e308))
        assert type(est.ell) is int and est.ell > est.n
        want = fit(data, None, NeighborFunctionConfig(beta=1.0, d=1, ell_factor=1e300))
        X = rng.random((20, 1))
        for got, ref in zip(est.predict_batch(X), want.predict_batch(X)):
            assert np.array_equal(got, ref)

    def test_overflowing_label_sums_rejected(self):
        # Each label is finite, but a sum of them is not: the label sums
        # and the prefix sums they are read from would be inf or NaN.
        big = (np.zeros((2, 1)), np.array([1e308, -1e308]))
        one = (np.zeros((1, 1)), np.array([1e308]))
        cases = [
            ((big, None), "source labels must be finite, with a finite sum"),
            ((one, big), "target labels must be finite, with a finite sum"),
            ((one, one), "source and target labels must have a finite sum"),
        ]
        for (source, target), text in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{text} of \\|y\\|$"):
                    fit(source, target, CFG)

    @pytest.mark.parametrize("d", [1, 2])
    def test_caller_points_stay_writeable(self, d):
        # Integer coordinates tie, so d = 1 takes the tree path too.
        rng = np.random.default_rng(41)
        X = rng.integers(0, 12, size=(200, d)).astype(np.float64)
        y = rng.standard_normal(200)
        est = fit((X, y), None, NeighborFunctionConfig(beta=1.0, d=d))
        queries = rng.integers(0, 12, size=(50, d)).astype(np.float64)
        before = est.predict_batch(queries)
        assert X.flags.writeable
        X[:] = rng.permutation(X)
        X += 100.0
        after = est.predict_batch(queries)
        for got, want in zip(after, before):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2])
    def test_caller_labels_copied(self, d):
        # Queries midway between integer points cut tie blocks, which
        # d = 1 sums through the tree path.
        rng = np.random.default_rng(43)
        X = rng.integers(0, 12, size=(200, d)).astype(np.float64)
        y = rng.standard_normal(200)
        est = fit((X, y), None, NeighborFunctionConfig(beta=1.0, d=d))
        queries = rng.integers(0, 12, size=(50, d)) + 0.5
        before = est.predict_batch(queries)[0]
        assert y.flags.writeable
        y[:] += 100.0
        assert np.array_equal(est.predict_batch(queries)[0], before)


class TestPredict:
    def test_constant_labels(self):
        rng = np.random.default_rng(3)
        est = fit(
            (rng.random((40, 1)), np.full(40, 2.5)),
            (rng.random((30, 1)), np.full(30, 2.5)),
            CFG,
        )
        for x in rng.random(10):
            assert est.predict_batch([[x]])[0][0] == 2.5

    def test_two_point_clamp_average(self):
        # huge kappa drives the count into the upper clamp k = n = 2
        cfg = NeighborFunctionConfig(beta=1.0, d=1, kappa_p=1e6)
        est = fit((np.array([[0.0], [1.0]]), np.array([0.0, 1.0])), None, cfg)
        for x in (-1.0, 0.2, 0.7, 3.0):
            values, k_p, _, _, _ = est.predict_batch([[x]])
            assert k_p[0] == 2 and values[0] == 0.5

    def test_m_zero_reduces_to_one_sample(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(3, 60))
            X = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            two = fit((X, y), (np.empty((0, 1)), np.empty(0)), CFG)
            one = fit((X, y), None, CFG)
            x = rng.standard_normal(1)
            assert two.predict_batch([x])[0][0] == one.predict_batch([x])[0][0]

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(5, 200))
            X = rng.random((n, 1))
            y = rng.standard_normal(n)
            est = fit((X, y), None, CFG)
            x = rng.random(1)
            want = reference_one_sample_predict(X, y, x, beta=1.0, d=1)
            got = est.predict_batch([x])[0][0]
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_clamp_envelope(self):
        rng = np.random.default_rng(13)
        n, m = 300, 200
        est = fit(
            (rng.random((n, 1)), rng.standard_normal(n)),
            (rng.random((m, 1)), rng.standard_normal(m)),
            CFG,
        )
        lower = math.ceil(est.joint_log)
        values, k_p, k_q, _, _ = est.predict_batch(rng.random((500, 1)))
        assert np.all((k_p >= lower) & (k_p <= n))
        assert np.all((k_q >= lower) & (k_q <= m))
        assert np.all(np.isfinite(values))

    def test_locality(self):
        rng = np.random.default_rng(17)
        n = 500
        X = np.sort(rng.random(n))[:, None]
        y = rng.standard_normal(n)
        est = fit((X, y), None, CFG)
        x = [0.1]
        base, k_p, _, _, _ = est.predict_batch([x])
        # perturb the label of the farthest point from x
        far = int(np.argmax(np.abs(X[:, 0] - x[0])))
        y2 = y.copy()
        y2[far] += 100.0
        est2 = fit((X, y2), None, CFG)
        after = est2.predict_batch([x])[0]
        assert k_p[0] < n  # otherwise the far point participates
        assert after[0] == base[0]

    def test_prediction_diagnostics(self):
        rng = np.random.default_rng(19)
        est = fit(
            (rng.random((64, 1)), rng.standard_normal(64)),
            (rng.random((32, 1)), rng.standard_normal(32)),
            CFG,
        )
        _, k_p, k_q, p_hat, q_hat = est.predict_batch([[0.4]])
        assert k_p[0] <= 64 and k_q[0] <= 32
        assert p_hat[0] > 0 and q_hat[0] > 0

    def test_tiny_sample_degenerate_ell(self):
        # n = 1, m = 0: log(nm) = 0, density step disabled, k floors at 1
        est = fit((np.array([[0.5]]), np.array([4.0])), None, CFG)
        values, k_p, _, p_hat, _ = est.predict_batch([[0.9]])
        assert values[0] == 4.0 and k_p[0] == 1
        assert p_hat[0] == math.inf

    def test_dimension_two(self):
        cfg = NeighborFunctionConfig(beta=0.5, d=2)
        rng = np.random.default_rng(23)
        est = fit((rng.random((80, 2)), rng.standard_normal(80)), None, cfg)
        values, k_p, _, _, _ = est.predict_batch([[0.5, 0.5]])
        assert math.isfinite(values[0]) and 1 <= k_p[0] <= 80

    def test_concurrent_predicts(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(59)
        est = fit(
            (rng.random((256, 1)), rng.standard_normal(256)),
            (rng.random((128, 1)), rng.standard_normal(128)),
            CFG,
        )
        queries = rng.random(100)

        def predict(x):
            return est.predict_batch([[x]])[0][0]

        serial = [predict(x) for x in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(predict, queries))
        assert threaded == serial


class TestErrorSplit:
    def test_equality_when_target_empty(self):
        rng = np.random.default_rng(29)
        est = fit((rng.random((40, 1)), rng.standard_normal(40)), None, CFG)
        lhs, rhs = pointwise_error_split(est, [0.3], lambda X: np.zeros(len(X)))
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_equality_for_mirrored_samples(self):
        # identical samples on both sides: f_P = f_Q and k_P = k_Q
        rng = np.random.default_rng(31)
        X = rng.random((64, 1))
        y = rng.standard_normal(64)
        est = fit((X, y), (X, y), CFG)
        lhs, rhs = pointwise_error_split(est, [0.5], lambda X_: np.zeros(len(X_)))
        assert math.isclose(lhs, rhs, rel_tol=1e-9)

    def test_inequality_random_instances(self):
        rng = np.random.default_rng(37)
        n = m = 200
        est = fit(
            (rng.random((n, 1)), rng.standard_normal(n)),
            (rng.random((m, 1)), rng.standard_normal(m)),
            CFG,
        )
        f = lambda X: np.sin(3 * X[:, 0])
        for x in rng.random(1000):
            lhs, rhs = pointwise_error_split(est, [x], f)
            assert lhs <= rhs + 1e-12


class TestSideTerms:
    @pytest.mark.parametrize("d", [1, 2])
    def test_predict_batch_is_built_from_both_sides(self, d):
        rng = np.random.default_rng(73)
        cfg = NeighborFunctionConfig(beta=1.0, d=d)
        est = fit(
            (rng.random((120, d)), rng.standard_normal(120)),
            (rng.random((40, d)), rng.standard_normal(40)),
            cfg,
        )
        X = rng.random((50, d))
        k_p, p_hat, sum_p = est.side_terms(X, "p")
        k_q, q_hat, sum_q = est.side_terms(X, "q")
        values, *rest = est.predict_batch(X)
        for got, want in zip(rest, (k_p, k_q, p_hat, q_hat)):
            assert np.array_equal(got, want)
        assert np.array_equal(values, (sum_p + sum_q) / (k_p + k_q))

    def test_empty_side_contributes_nothing(self):
        rng = np.random.default_rng(79)
        est = fit((rng.random((30, 1)), rng.standard_normal(30)), None, CFG)
        k, density, sums = est.side_terms(rng.random((5, 1)), "q")
        assert k.tolist() == [0] * 5 and sums.tolist() == [0.0] * 5
        assert np.all(np.isinf(density))

    def test_unknown_side_rejected(self):
        est = fit((np.zeros((3, 1)), np.zeros(3)), None, CFG)
        with pytest.raises(ValueError):
            est.side_terms([[0.0]], "source")

    def test_error_split_uses_the_prediction(self):
        rng = np.random.default_rng(83)
        est = fit(
            (rng.random((90, 1)), rng.standard_normal(90)),
            (rng.random((60, 1)), rng.standard_normal(60)),
            CFG,
        )
        f = lambda X: np.sin(3 * X[:, 0])
        for x in rng.random(20):
            value = est.predict_batch([[x]])[0][0]
            lhs, _ = pointwise_error_split(est, [x], f)
            assert lhs == (value - f(np.array([[x]]))[0]) ** 2


class TestFastPathConsistency:
    def test_matches_index_path_with_ties(self):
        # integer coordinates force exact distance ties
        rng = np.random.default_rng(41)
        X = rng.integers(0, 12, size=(60, 1)).astype(float)
        y = rng.standard_normal(60)
        Xt = rng.integers(0, 12, size=(25, 1)).astype(float)
        yt = rng.standard_normal(25)
        fast = fit((X, y), (Xt, yt), CFG)
        slow = fit((X, y), (Xt, yt), CFG)
        slow._source, slow._target = _TreeSample(X, y), _TreeSample(Xt, yt)
        queries = np.concatenate(
            [rng.integers(0, 12, size=(40, 1)).astype(float) + 0.5,
             rng.integers(0, 12, size=(40, 1)).astype(float)]
        )
        va = fast.predict_batch(queries)
        vb = slow.predict_batch(queries)
        # identical neighbour sets: counts match exactly and any wrong
        # set would shift the sums by O(1), far above float reassociation
        assert np.array_equal(va[1], vb[1]) and np.array_equal(va[2], vb[2])
        np.testing.assert_allclose(va[0], vb[0], rtol=0, atol=1e-12)

    def test_lazy_tie_index_ignores_caller_edits(self):
        # The tie rows' exact sample is built on their first query, after
        # the caller has overwritten the arrays it was fitted on.
        rng = np.random.default_rng(47)
        X = rng.integers(0, 12, size=(60, 1)).astype(float)
        y = rng.standard_normal(60)
        queries = rng.integers(0, 12, size=(80, 1)) + 0.5
        fast = fit((X, y), None, CFG)
        slow = fit((X, y), None, CFG)
        slow._source = _TreeSample(X, y)
        assert fast._source._tree is None
        X[:] = rng.permutation(X) + 100.0
        y[:] = rng.standard_normal(60)
        va = fast.predict_batch(queries)
        assert fast._source._tree is not None
        vb = slow.predict_batch(queries)
        x = queries[:, 0]
        anchor = fast._source.anchor(queries, fast.ell)
        starts = fast._source.k_starts(x, va[1], anchor)
        tied = fast._source.boundary_ties(x, va[1], starts)
        assert np.any(tied)
        fresh = fit((X, y), None, CFG).predict_batch(queries)
        assert not np.array_equal(fresh[0][tied], va[0][tied])
        assert np.array_equal(va[1], vb[1])
        np.testing.assert_allclose(va[0], vb[0], rtol=0, atol=1e-12)
        # The tree path's own sums agree with the sorted path's tie rows
        # bit for bit: both read the same neighbours in the same order.
        assert np.array_equal(va[0][tied], vb[0][tied])

    def test_matches_index_path_continuous(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((300, 1))
        y = rng.standard_normal(300)
        fast = fit((X, y), None, CFG)
        slow = fit((X, y), None, CFG)
        slow._source = _TreeSample(X, y)
        queries = rng.standard_normal((200, 1))
        va = fast.predict_batch(queries)
        vb = slow.predict_batch(queries)
        np.testing.assert_allclose(va[0], vb[0], rtol=1e-12, atol=1e-14)
        assert np.array_equal(va[1], vb[1])
        np.testing.assert_allclose(va[3], vb[3], rtol=1e-12)


class TestSortedWindow1D:
    """The 1-D window search and fit sort against the bisection oracle."""

    @staticmethod
    def sample(coords):
        X = np.asarray(coords, dtype=np.float64)[:, None]
        return _SortedSample1D(X, np.arange(len(X), dtype=np.float64))

    @staticmethod
    def starts(s, x, k):
        """Each row's k window start, bracketed by its w window for w = 1,
        n // 2 and n; the three must agree."""
        got = [
            s.k_starts(x, k, s.anchor(x[:, None], w))
            for w in sorted({1, max(s.n // 2, 1), s.n})
        ]
        assert all(np.array_equal(g, got[0]) for g in got)
        return got[0]

    @staticmethod
    def spy_redo(s, monkeypatch):
        """The rows of each window_starts call of s, as a list."""
        rows = []
        original = s.window_starts

        def recording(x, k, lo, hi):
            rows.append(len(x))
            return original(x, k, lo, hi)

        monkeypatch.setattr(s, "window_starts", recording)
        return rows

    @staticmethod
    def queries(a, rng):
        """Left of, right of, on, and between the sorted coords a."""
        return np.concatenate(
            [
                a[0] - np.array([0.5, 3.0, 1e3]),
                a[-1] + np.array([0.5, 3.0, 1e3]),
                a[rng.integers(0, len(a), 60)],
                (a[:-1] + a[1:])[rng.integers(0, len(a) - 1, 60)] / 2,
                rng.uniform(a[0], a[-1], 60),
            ]
        )

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "duplicates"])
    def test_matches_bisection(self, tied):
        rng = np.random.default_rng(83)
        n = 300
        coords = rng.integers(0, 40, n) if tied else rng.standard_normal(n)
        s = self.sample(coords)
        assert (len(np.unique(s.coords)) < n) == tied
        x = self.queries(s.coords, rng)
        k = rng.integers(1, n + 1, len(x))
        k[::5], k[1::5] = 1, n
        want = window_starts_bisection(s.coords, x, k)
        assert np.array_equal(self.starts(s, x, k), want)
        for kk in (1, 2, 17, n - 1, n):
            want = window_starts_bisection(s.coords, x, kk)
            assert np.array_equal(self.starts(s, x, kk), want)

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "duplicates"])
    def test_anchor_matches_bisection(self, tied, monkeypatch):
        # Midpoints of pairs w apart put 2x on a pair sum, where rounding
        # can make the pair-sum search and the exact predicate disagree.
        rng = np.random.default_rng(101)
        n = 300
        coords = rng.integers(0, 40, n) if tied else rng.standard_normal(n)
        s = self.sample(coords)
        a = s.coords
        for w in (1, 7, n // 2, n):
            x = self.queries(a, rng)
            if w < n:
                i = rng.integers(0, n - w, 200)
                x = np.concatenate([x, (a[i] + a[i + w]) / 2])
            redo = self.spy_redo(s, monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got_w, starts, radii = s.anchor(x[:, None], w)
            assert got_w == w
            assert np.array_equal(starts, window_starts_bisection(a, x, w))
            assert np.array_equal(radii, s.window_radius(x, w, starts))
            assert len(redo) <= 1
            if not tied and w in (7, n // 2):
                assert redo and 0 < redo[0] < len(x) // 4

    def test_anchor_past_the_float_range(self, monkeypatch):
        # Pair sums and 2x overflow to inf above about 9e307, where the
        # exact predicate still compares finite distances.
        rng = np.random.default_rng(103)
        n = 200
        coords = np.concatenate(
            [rng.uniform(0.5, 1.0, n - 4) * 1.7e308, [1.0, 2e307, 4e307, 1.7e308]]
        )
        s = self.sample(coords)
        a = s.coords
        x = np.concatenate(
            [a, a[:-1] / 2 + a[1:] / 2, rng.uniform(0.5, 1.0, 100) * 1.7e308, [0.0, 1e308]]
        )
        for w in (1, 2, n // 2, n - 1, n):
            redo = self.spy_redo(s, monkeypatch)
            with np.errstate(over="ignore"):
                got_w, starts, _ = s.anchor(x[:, None], w)
                want = window_starts_bisection(a, x, w)
            assert np.array_equal(starts, want)
            if w <= n // 2:
                assert redo and redo[0] > 0
        # Off the midpoints no window boundary ties, so the tree (whose
        # squared distances overflow here) is never built.  Integer labels
        # make the prefix sums exact.
        y = rng.integers(-8, 9, n).astype(float)
        est = fit((coords[:, None], y), None, NeighborFunctionConfig(beta=1.0, d=1))
        q = np.concatenate([a, rng.uniform(0.5, 1.0, 100) * 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, k, _, p_hat, _ = est.predict_batch(q[:, None])
        assert est._source._tree is None
        for i, xi in enumerate(q):
            dist = np.abs(xi - coords)
            near = np.lexsort((np.arange(n), dist))
            r = float(dist[near[est.ell - 1]])
            assert p_hat[i] == (est.ell / (n * r) if r > 0 else math.inf)
            assert values[i] == y[near[: k[i]]].sum() / k[i]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=40), st.data())
    def test_matches_bisection_property(self, coords, data):
        s = self.sample(np.array(coords) / 2)
        n = len(coords)
        ints = st.lists(st.integers(-50, 50), min_size=1, max_size=20)
        x = np.array(data.draw(ints)) / 4
        k = np.array(
            data.draw(st.lists(st.integers(1, n), min_size=len(x), max_size=len(x)))
        )
        want = window_starts_bisection(s.coords, x, k)
        assert np.array_equal(self.starts(s, x, k), want)

    @staticmethod
    def edge_queries(a):
        """Left of every point (pos = 0), right of every point (pos = n),
        on each distinct point and halfway between each neighbouring pair."""
        u = np.unique(a)
        return np.concatenate([[u[0] - 1.0, u[-1] + 1.0], u, (u[:-1] + u[1:]) / 2])

    @staticmethod
    def ties_brute_force(a, x, k, starts):
        """Whether a point outside each window is exactly as far from x
        as the farthest point inside it."""
        out = []
        for xi, ki, si in zip(x, k, starts):
            r = np.abs(xi - a[si : si + ki]).max()
            outside = np.concatenate([a[:si], a[si + ki :]])
            out.append(bool(np.any(np.abs(xi - outside) == r)))
        return np.array(out)

    @pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17, 31, 32, 33])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "duplicates"])
    def test_edge_sizes_match_bisection(self, n, tied):
        # Integer coordinates put many queries at exactly equal distances
        # from two points; n // 2 values for n points force duplicates.
        rng = np.random.default_rng(n)
        if tied:
            coords = rng.integers(0, max(n // 2, 1), n)
        else:
            coords = rng.choice(3 * n, n, replace=False)
        s = self.sample(coords.astype(float))
        assert (len(np.unique(s.coords)) < n) == (tied and n > 1)
        x = self.edge_queries(s.coords)
        for kk in range(1, n + 1):
            got = self.starts(s, x, kk)
            assert np.array_equal(got, window_starts_bisection(s.coords, x, kk))
        # Every (query, k) pair in one batch, so each row's probes are
        # sized by the widest range of the batch, not its own.
        x = np.repeat(x, n)
        k = np.tile(np.arange(1, n + 1), len(x) // n)
        starts = self.starts(s, x, k)
        assert np.array_equal(starts, window_starts_bisection(s.coords, x, k))
        assert np.any(starts + k == n)
        want = self.ties_brute_force(s.coords, x, k, starts)
        assert np.array_equal(s.boundary_ties(x, k, starts), want)

    @pytest.mark.parametrize("name", ["padded", "coords", "prefix", "labels", "order"])
    def test_fitted_arrays_are_read_only(self, name):
        s = self.sample([2.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            getattr(s, name)[0] = 5.0

    @pytest.mark.parametrize(
        "coords",
        [
            np.random.default_rng(89).integers(0, 50, 5000).astype(float),
            np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0, -1.0]),
            np.random.default_rng(89).standard_normal(5000),
        ],
        ids=["duplicates", "signed-zeros", "distinct"],
    )
    def test_fit_order_is_the_stable_order(self, coords):
        # labels are the original indices, so the prefix-sum steps spell
        # out the order (integer sums below 2^53 are exact)
        s = self.sample(coords)
        order = np.argsort(coords, kind="stable")
        assert np.array_equal(np.diff(s.prefix), order.astype(float))
        assert np.array_equal(s.coords, coords[order])
        assert np.array_equal(s.order, order)

    def test_tied_sample_predict_batch_matches_oracle(self):
        # Integer labels make every summation order exact, so the
        # prefix-sum path and the oracle's sequential sums agree bit for
        # bit; integer coordinates tie distances at window boundaries.
        rng = np.random.default_rng(97)
        X = rng.integers(0, 60, (400, 1)).astype(float)
        y = rng.integers(-8, 9, 400).astype(float)
        Xt = rng.integers(0, 60, (150, 1)).astype(float)
        yt = rng.integers(-8, 9, 150).astype(float)
        queries = np.concatenate(
            [rng.integers(-3, 63, (60, 1)), rng.integers(-3, 63, (60, 1)) + 0.5]
        ).astype(float)
        cfg = NeighborFunctionConfig(beta=1.0, d=1, kappa_p=2.0, kappa_q=2.0)
        est = fit((X, y), (Xt, yt), cfg)
        values, k_p, k_q, p_hat, q_hat = est.predict_batch(queries)
        assert np.any(np.isinf(p_hat)) and np.any(np.isfinite(p_hat))
        assert any(tied_at_cut(X, x, k) for x, k in zip(queries, k_p))
        for i, x in enumerate(queries):
            consts = (est.ell, est.joint_log)
            kp, ph, sp = oracle_side(X, y, x, *consts, cfg.kappa_p, cfg.beta, 1)
            kq, qh, sq = oracle_side(Xt, yt, x, *consts, cfg.kappa_q, cfg.beta, 1)
            assert (k_p[i], k_q[i], p_hat[i], q_hat[i]) == (kp, kq, ph, qh)
            assert values[i] == (sp + sq) / (kp + kq)


def covers_groups(k):
    """Whether k spans at least three label-sum query groups, ceil(16
    log2 k), and one group holds two different k (fewer groups than
    distinct k, by pigeonhole)."""
    groups = len(np.unique(np.ceil(16 * np.log2(k))))
    return 3 <= groups < len(np.unique(k))


def tied_at_cut(X, x, k):
    """Whether the k-th and (k+1)-th nearest points of x are equally far."""
    if k >= len(X):
        return False
    near = brute_force_knn(X, x, k + 1)
    return near[-1][1] == near[-2][1]


class TestBucketedLabelSums:
    """d = 2 index-path label sums against the brute-force oracle.

    Integer coordinates give exact distance ties and duplicated points;
    a dense cluster, a sparse spread and a 12-fold duplicate give per-row
    k over several query groups, up to k = n.  Queries at real points
    of the dense cluster put near but unequal k in one group.
    """

    CFG = NeighborFunctionConfig(beta=1.0, d=2, kappa_p=8.0, kappa_q=8.0)

    @staticmethod
    def samples():
        rng = np.random.default_rng(61)
        X = np.concatenate(
            [
                rng.integers(0, 4, (120, 2)),
                rng.integers(0, 30, (80, 2)),
                np.full((12, 2), 17),
            ]
        ).astype(float)
        Xt = np.concatenate(
            [
                rng.integers(0, 6, (60, 2)),
                rng.integers(0, 30, (30, 2)),
                np.full((12, 2), 17),
            ]
        ).astype(float)
        queries = np.concatenate(
            [
                rng.integers(0, 30, (60, 2)).astype(float),
                rng.integers(0, 30, (30, 2)) + 0.5,
                rng.uniform(0, 6, (20, 2)),
                [[17.0, 17.0], [1.0, 1.0]],
            ]
        )
        return (
            (X, rng.standard_normal(len(X))),
            (Xt, rng.standard_normal(len(Xt))),
            queries,
        )

    def test_label_sums_exact_match_oracle(self):
        (X, y), target, queries = self.samples()
        est = fit((X, y), target, self.CFG)
        n = len(y)
        rng = np.random.default_rng(67)
        k = rng.integers(1, n + 1, size=len(queries))
        k[::9] = n
        rows = rng.random(len(queries)) < 0.8
        assert covers_groups(k[rows]) and np.any(k[rows] == n)
        assert any(tied_at_cut(X, x, ki) for x, ki in zip(queries[rows], k[rows]))
        assert isinstance(est._source, _TreeSample)
        got = est._source.label_sums(queries[rows], k[rows], None)
        want = [oracle_label_sum(X, y, x, ki) for x, ki in zip(queries[rows], k[rows])]
        assert got.tolist() == want

    def test_predict_batch_matches_oracle(self):
        (X, y), (Xt, yt), queries = self.samples()
        est = fit((X, y), (Xt, yt), self.CFG)
        values, k_p, k_q, p_hat, q_hat = est.predict_batch(queries)
        for k, n_own in ((k_p, len(y)), (k_q, len(yt))):
            assert covers_groups(k) and np.any(k == n_own)
        assert any(tied_at_cut(X, x, k) for x, k in zip(queries, k_p))
        cfg = self.CFG
        for i, x in enumerate(queries):
            consts = (est.ell, est.joint_log, cfg.kappa_p, cfg.beta, cfg.d)
            kp, ph, sp = oracle_side(X, y, x, *consts)
            kq, qh, sq = oracle_side(Xt, yt, x, *consts)
            assert (k_p[i], k_q[i], p_hat[i], q_hat[i]) == (kp, kq, ph, qh)
            assert values[i] == (sp + sq) / (kp + kq)

    def test_duplicate_point_batch_fetch_follows_k(self, monkeypatch):
        # 64 copies of one point: the query there gets p_hat = inf and
        # k = n, which must not make every other row fetch n neighbours.
        rng = np.random.default_rng(71)
        n, m, q = 4096, 256, 400
        X = ProductPareto(1.0, 1.0, 2).sample_array(rng, n)
        X[:64] = X[0]
        Xt = ProductPareto(2.0, 1.0, 2).sample_array(rng, m)
        est = fit(
            (X, rng.standard_normal(n)),
            (Xt, rng.standard_normal(m)),
            NeighborFunctionConfig(beta=1.0, d=2),
        )
        queries = ProductPareto(2.0, 1.0, 2).sample_array(rng, q)
        queries[0] = X[0]
        values, k_p, k_q, p_hat, _ = est.predict_batch(queries)
        assert p_hat[0] == math.inf and k_p[0] == n

        fetched = []
        original = NeighborIndex.query_batch

        def counting(self, batch, k):
            fetched.append(len(batch) * min(len(self), k + _TIE_PAD))
            return original(self, batch, k)

        monkeypatch.setattr(NeighborIndex, "query_batch", counting)
        sums = est._source.label_sums(queries, k_p, None) + est._target.label_sums(
            queries, k_q, None
        )
        assert np.array_equal(sums / (k_p + k_q), values)
        # Each group's depth is below 2^(1/16) times each of its rows' k.
        bound = sum(
            int(np.minimum(n_own, np.ceil(2 ** (1 / 16) * k) + _TIE_PAD).sum())
            for k, n_own in ((k_p, n), (k_q, m))
        )
        assert sum(fetched) <= bound


class TestDuplicateGrid:
    """n/100 copies per cell of a 10 x 10 integer grid.  Every on-grid
    query has R_ell = 0, so p_hat = inf and k = n: the input on which the
    radius step once ran its tie re-queries, and every such row landed in
    one label-sum group of rows x n cells."""

    N = 16384

    @classmethod
    def sample(cls):
        rng = np.random.default_rng(89)
        X = rng.integers(0, 10, (cls.N, 2)).astype(float)
        return X, rng.standard_normal(cls.N), rng

    def test_radii_one_tree_query(self, monkeypatch):
        X, y, rng = self.sample()
        sample = _TreeSample(X, y)
        tree = sample.index._kdtree()
        depths = []

        class CountingTree:
            def query(self, q, k):
                depths.append(k)
                return tree.query(q, k=k)

        monkeypatch.setattr(sample.index, "_kdtree", CountingTree)
        queries = rng.integers(0, 10, (2000, 2)).astype(float)
        ell = math.ceil(math.log(self.N * 1024))
        assert np.all(sample.anchor(queries, ell)[2] == 0.0)
        assert depths == [[ell]]

    def test_label_sums_fetched_in_blocks(self, monkeypatch):
        X, y, rng = self.sample()
        est = fit((X, y), None, NeighborFunctionConfig(beta=1.0, d=2))
        queries = np.concatenate(
            [rng.integers(0, 10, (80, 2)), rng.integers(0, 10, (40, 2)) + 0.5]
        ).astype(float)
        _, k, _, p_hat, _ = est.predict_batch(queries)
        assert np.all(p_hat[:80] == math.inf) and np.all(k[:80] == self.N)

        fetched = []
        original = NeighborIndex._fetch

        def recording(self, q, kq):
            fetched.append((len(q), kq))
            return original(self, q, kq)

        monkeypatch.setattr(NeighborIndex, "_fetch", recording)
        got = est._source.label_sums(queries, k, None)
        assert len(fetched) > 1
        assert all(rows * kq <= max(geom._REFETCH_CELLS, kq) for rows, kq in fetched)
        want = [oracle_label_sum(X, y, x, ki) for x, ki in zip(queries, k)]
        assert got.tolist() == want


class TestCsvInterfaces:
    @staticmethod
    def write_labeled(out_dir, X, y):
        """A labeled CSV written as simulate writes its training samples."""
        stager = OutputStager(str(out_dir))
        header = [f"x_{i + 1}" for i in range(X.shape[1])] + ["y"]
        rows = [[*x, label] for x, label in zip(X.tolist(), y.tolist())]
        stager.write_rows("train.csv", header, rows)
        stager.commit()
        return out_dir / "train.csv"

    def test_labeled_round_trip(self, tmp_path):
        rng = np.random.default_rng(47)
        X = rng.random((20, 3))
        y = rng.standard_normal(20)
        X2, y2 = read_labeled_csv(self.write_labeled(tmp_path, X, y))
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_labeled_header(self, tmp_path):
        path = self.write_labeled(tmp_path, np.zeros((1, 2)), np.zeros(1))
        assert path.read_text().splitlines()[0] == "x_1,x_2,y"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_labeled_csv(path)

    def test_predictions_schema(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(
            '{"target": {"family": "uniform", "a": 0.0, "b": 1.0},'
            ' "f_star": {"name": "zero"}, "noise": {"sigma_e": 1.0},'
            ' "estimator": {"beta": 1.0, "d": 1},'
            ' "n": 0, "m": 30, "n_test": 5, "seed": 53}'
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "x_1,y_hat,k_p,k_q,p_hat,q_hat"
        assert len(lines) == 6
