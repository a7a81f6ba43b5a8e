"""The windowed quadrature against closed forms and against scipy's quad.

A window where QUADPACK stops short (ier != 0) returns its best estimate,
within its error estimate of the exact value, without issuing a warning.
The warning policy in pyproject.toml makes a warning from a quad call,
or from numpy, an error.

The batched first pass is checked window by window against quad itself:
a window it keeps has quad's (value, error) bit for bit, and quad takes
more than its first 21 nodes on every window it hands on.
"""

import itertools
import math
import struct
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning, quad

from conftest import log_pareto_tail
from transfer_knn import _integrate, distributions, transfer
from transfer_knn._integrate import (
    TailIntegral,
    exp_clamped_array,
    first_pass,
    improper_quad,
    libm,
    log_quad,
)
from transfer_knn.distributions import (
    Exponential,
    LogPareto,
    Pareto,
    ProductPareto,
    Uniform,
)

# The library's tolerances, written out.
QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=200, full_output=1)
# dqk21's ten Kronrod abscissae above the centre of [-1, 1], descending.
_XGK = [
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
]


def bits(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def log_wiggle(x):
    """log of e^-x (1 + sin^2(1/(x - 2))), oscillating without bound at 2."""
    return math.log1p(math.sin(1.0 / (x - 2.0)) ** 2) - x


def wiggle(x):
    return math.exp(log_wiggle(x))


def quadpack_fails(f, lo, hi) -> bool:
    """Whether plain quad at the library's tolerances ends with ier != 0."""
    out = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200, full_output=1)
    return len(out) == 4


def counted_quad(monkeypatch) -> list:
    """The (lo, hi) of every quad call _integrate makes from here on."""
    calls = []

    def counted(f, lo, hi, **kw):
        calls.append((lo, hi))
        return quad(f, lo, hi, **kw)

    monkeypatch.setattr(_integrate, "quad", counted)
    return calls


def wiggle_integral() -> float:
    """int_2^oo of e^-x (1 + sin^2(1/(x - 2))) dx: e^-2 (1 + int_0^oo e^-y
    sin^2(1/y) dy), where the integral of e^-y cos(2/y) is Re 2 sqrt(-2i)
    K_1(2 sqrt(-2i)), sqrt(-2i) = 1 - i."""
    bessel = 2.0 * (1.0 - 1.0j) * special.kv(1, 2.0 - 2.0j)
    return math.exp(-2.0) * (3.0 - bessel.real) / 2.0


@pytest.mark.parametrize("c", [0.0, 2.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 38.0])
def test_log_pareto_normaliser_unchanged(b, c):
    # Z = (log 2)^(1 - c) E_c(b log 2); 2^-b / b at c = 0.
    want = log_pareto_tail(b, c, math.log(2.0))
    assert LogPareto(1.0, b, c)._norm == pytest.approx(want, rel=3e-10, abs=0)


def test_failed_window_warns_nothing():
    assert quadpack_fails(wiggle, 2.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, error = log_quad(log_wiggle, 2.0, 10.0)
    # The integrand is smooth past 10, where quad resolves it.
    beyond = quad(wiggle, 10.0, math.inf, **QUAD_KW)[0]
    assert abs(value - (wiggle_integral() - beyond)) <= error


def test_failed_head_window_warns_nothing():
    assert quadpack_fails(wiggle, 2.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = improper_quad(
            log_wiggle, lambda ts: libm(log_wiggle, libm(math.exp, ts)) + ts, 2.0
        )
    assert res.converged
    assert abs(res.value - wiggle_integral()) <= res.error


class TestLogQuad:
    @pytest.mark.parametrize(
        "log_f, lo, hi",
        [
            (log_wiggle, 2.0, 10.0),
            (lambda x: -x, 0.0, 5.0),
            (lambda x: 700.0 - x * x, -3.0, 3.0),
            (lambda x: -math.log1p(x * x), -1e3, 1e3),
            (lambda x: -math.inf if x < 0.5 else math.log(x), 0.0, 1.0),
        ],
        ids=["wiggle", "exp", "peak_at_700", "cauchy", "minus_inf"],
    )
    def test_equals_quad_below_the_clamp(self, log_f, lo, hi):
        got = log_quad(log_f, lo, hi)
        want = quad(lambda x: math.exp(log_f(x)), lo, hi, **QUAD_KW)[:2]
        assert bits(*got) == bits(*want)

    def test_rescales_past_the_clamp(self, monkeypatch):
        calls = counted_quad(monkeypatch)
        value, error = log_quad(lambda x: 705.0 - x, 0.0, 1.0)
        want = math.exp(705.0) * -math.expm1(-1.0)
        assert value == pytest.approx(want, rel=1e-13) and error < 1e-11 * value
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "log_f",
        [lambda x: 720.0 - x, lambda x: math.inf if x > 0.5 else 0.0],
        ids=["past_the_largest_float", "plus_inf"],
    )
    def test_inf(self, log_f):
        assert log_quad(log_f, 0.0, 1.0) == (math.inf, math.inf)


@pytest.mark.parametrize(
    "category",
    [RuntimeWarning, DeprecationWarning, IntegrationWarning],
    ids=lambda category: category.__name__,
)
def test_warning_policy_raises(category):
    with pytest.raises(category):
        warnings.warn("probe", category)


class TestArrayLibm:
    EXPONENTS = [
        -math.inf, -745.2, -1e-300, 0.0, 700.0, math.nextafter(700.0, math.inf),
        709.78, 710.0, math.nan,
    ]

    def test_exp_clamped_array(self):
        xs = np.array(self.EXPONENTS)
        want = [math.exp(x) if not x > 700.0 else math.inf for x in self.EXPONENTS]
        got = exp_clamped_array(xs)
        assert bits(*got) == bits(*want)
        assert got[-4:-1].tolist() == [math.inf] * 3 and math.isnan(got[-1])
        grid = exp_clamped_array(xs[:8].reshape(2, 4))
        assert grid.shape == (2, 4) and bits(*grid.ravel()) == bits(*want[:8])

    def test_extra_argument_iterables(self):
        xs = np.linspace(0.0, 3.0, 13).reshape(1, 13)
        got = libm(math.pow, xs, itertools.repeat(1.5))
        assert got.shape == (1, 13)
        assert bits(*got[0]) == bits(*(math.pow(x, 1.5) for x in xs[0].tolist()))


def tail_windows(x0: float):
    """(a, b) of every tail window improper_quad makes past x0 + 8."""
    t, starts = math.log(x0 + 8.0), []
    while t < 690.0:
        starts.append(t)
        t += math.log(2.0)
    a = np.array(starts)
    return a, a + math.log(2.0)


def check_against_quad(tail, a, b) -> np.ndarray:
    """first_pass's kept mask on the windows [a_i, b_i], checked against
    quad on each window of the tail at one node a call."""
    result, abserr, kept = first_pass(tail, a, b)

    def at(s):
        return float(tail(np.array([s]))[0])

    for i in range(len(a)):
        out = quad(at, float(a[i]), float(b[i]), **QUAD_KW)
        if kept[i]:
            assert bits(*out[:2]) == bits(result[i], abserr[i]), (a[i], out[:2])
        else:
            assert out[2]["neval"] > 21, (a[i], out[:2])
    return kept


def pair_tail(monkeypatch, P, Q, gamma):
    """The log tail integrand, and x0, that _quadrature hands improper_quad."""
    seen = []

    def record(log_head, log_tail, x0):
        seen.append((log_tail, x0))
        return TailIntegral(0.0, 0.0, True)

    monkeypatch.setattr(transfer, "improper_quad", record)
    transfer._quadrature(P, Q, gamma)
    return seen[0]


class TestTailContract:
    """A log tail integrand at an array of t equals, element by element and
    bit for bit, t + log f(e^t) formed one t at a time from libm's scalar
    exp and log and the scalar log densities."""

    def nodes(self, x0):
        a, b = tail_windows(x0)
        rng = np.random.default_rng(3)
        return np.concatenate([a, 0.5 * (a + b), rng.uniform(a[0], 700.0, 2000)])

    @pytest.mark.parametrize(
        "P, Q",
        [
            (LogPareto(1, 1, 0), LogPareto(1, 1, 2)),
            (Pareto(1.0, 1.0), Exponential(1.0)),
            (Pareto(2.0, 0.5), Pareto(3.0, 0.5)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("gamma", [0.1, 0.6])
    def test_pair_tail(self, monkeypatch, P, Q, gamma):
        log_tail, x0 = pair_tail(monkeypatch, P, Q, gamma)
        ts = self.nodes(x0)
        want = [
            Q.log_density(math.exp(t)) - gamma * P.log_density(math.exp(t)) + t
            for t in ts.tolist()
        ]
        assert bits(*log_tail(ts)) == bits(*want)

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_log_pareto_normaliser_tail(self, monkeypatch, c):
        seen = []

        def record(log_head, log_tail, x0):
            seen.append(log_tail)
            return TailIntegral(1.0, 0.0, True)

        monkeypatch.setattr(distributions, "improper_quad", record)
        LogPareto(1.0, 1.5, c)._norm
        ts = self.nodes(2.0)

        def scalar(t):
            lx = math.log(math.exp(t))
            return -2.5 * lx - (c * math.log(lx) if c else 0.0) + t

        assert bits(*seen[0](ts)) == bits(*map(scalar, ts.tolist()))


class TestFirstPass:
    """first_pass is QUADPACK's first dqk21 step and dqagse's test of it."""

    @pytest.mark.parametrize("gamma", [0.01, 0.25, 0.5, 0.51])
    def test_log_pareto_pair(self, monkeypatch, gamma):
        log_tail, x0 = pair_tail(monkeypatch, LogPareto(1, 1, 0), LogPareto(1, 1, 2), gamma)
        # Every window of this tail resolves on quad's first pass.
        kept = check_against_quad(
            lambda ts: exp_clamped_array(log_tail(ts)), *tail_windows(x0)
        )
        assert kept.all()

    def test_exp_minus_t(self):
        check_against_quad(lambda ts: libm(math.exp, -ts), *tail_windows(2.0))

    def test_zero_integrand(self):
        # resk = resg = 0: abserr == 0 ends dqagse at once.
        a, b = tail_windows(0.0)
        assert check_against_quad(np.zeros_like, a, b).all()
        assert not first_pass(np.zeros_like, a, b)[0].any()

    def test_one_node_past_the_clamp(self):
        # The window's top node alone lies past 700, where the tail is inf.
        a = np.array([700.0 + 1e-3 - 0.5 * math.log(2.0) * (1.0 + _XGK[0])])
        b = a + math.log(2.0)
        nodes = []

        def tail(ts):
            nodes.append(ts)
            return exp_clamped_array(ts)

        assert first_pass(tail, a, b)[0][0] == math.inf
        assert np.count_nonzero(nodes[0] > 700.0) == 1
        assert check_against_quad(tail, a, b).all()

    def test_window_quadpack_bisects(self):
        # A kink inside each window: the first pass cannot resolve it.
        a = np.array([0.0, 1.0, 5.0])

        def tail(ts):
            return libm(math.sqrt, np.abs(ts - 0.3 - a.min()))

        kept = check_against_quad(tail, a, a + 1.0)
        assert not kept[0] and kept[1:].all()

    def test_roundoff_exit(self):
        # dqagse's ier = 2 exit: an error bound at rounding level above
        # the requested one, which quad reports without bisecting.
        A = np.linspace(0.5, 3.0, 40)
        assert len(quad(lambda t: 1e4 * t, -1.0, 1.0, **QUAD_KW)) == 4
        assert check_against_quad(lambda ts: 1e4 * ts, -A, A).all()

    def test_non_finite_and_extreme_nodes(self):
        # Node values of inf, -inf, NaN, the largest and smallest floats:
        # QUADPACK's fmin and fmax drop a NaN, and the first pass keeps
        # exactly the windows quad stops after.
        rng = np.random.default_rng(7)
        specials = [math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, 5e-324]
        nodes = [0.5] + [0.5 + s * 0.5 * x for s in (-1, 1) for x in _XGK]
        kept_count = 0
        for trial in range(300):
            values = rng.normal(size=21) * 10.0 ** float(rng.integers(-300, 300))
            hit = rng.choice(21, int(rng.integers(0, 4)), replace=False)
            values[hit] = rng.choice(specials, len(hit))
            if trial % 5 == 0:
                values[:] = specials[trial // 5 % len(specials)]
            table = dict(zip(nodes, values.tolist()))

            def tail(ts, table=table):
                # Any node off the first pass's 21 reads 1.
                return np.vectorize(lambda s: table.get(s, 1.0), otypes=[float])(ts)

            kept_count += int(check_against_quad(tail, np.array([0.0]), np.array([1.0]))[0])
        assert 0 < kept_count < 300


def log_pareto_normaliser_like(x):
    return -2.0 * math.log(x) - 2.0 * math.log(math.log(x))


# (log head, log tail, x0) of a convergent integral, one past
# VALUE_CUTOFF, and two that reach the cap, one stable (1/t^2 in t) and
# one not (1/t).
INTEGRANDS = {
    "converges": (
        log_pareto_normaliser_like,
        lambda ts: -ts - 2.0 * libm(math.log, ts),
        2.0,
    ),
    "past_the_cutoff": (
        lambda x: math.log(1e4) - math.log(x),
        lambda ts: np.full(ts.shape, math.log(1e4)),
        1.0,
    ),
    "stable_at_the_cap": (
        lambda x: -math.log(x) - 2.0 * math.log(math.log(x)),
        lambda ts: -2.0 * libm(math.log, ts),
        2.0,
    ),
    "unstable_at_the_cap": (
        lambda x: -math.log(x) - math.log(math.log(x)),
        lambda ts: -libm(math.log, ts),
        2.0,
    ),
}


def window_by_window(log_head, log_tail, x0: float) -> TailIntegral:
    """improper_quad's result as a Python loop that adds quad's (value,
    error) of the head and of each tail window in order, with the same
    exits."""
    diverged = TailIntegral(math.inf, math.inf, False)
    total, err = quad(lambda x: math.exp(log_head(x)), x0, x0 + 8.0, **QUAD_KW)[:2]
    if not math.isfinite(total) or total > 1e6:
        return diverged
    last_rel = math.inf
    for lo, hi in zip(*(ends.tolist() for ends in tail_windows(x0))):
        piece, piece_err = quad(
            lambda s: math.exp(log_tail(np.array([s]))[0]), lo, hi, **QUAD_KW
        )[:2]
        if not math.isfinite(piece):
            return diverged
        total += piece
        err += piece_err
        if total > 1e6:
            return diverged
        last_rel = piece / total if total > 0 else 0.0
        if last_rel < 1e-13:
            return TailIntegral(total, err + piece, True)
    if last_rel < 1e-4:
        return TailIntegral(total, err + last_rel * total, True)
    return diverged


def log_head_of(log_tail):
    """The log head of a log tail integrand: log f(x) = log_tail(log x) - log x."""
    return lambda x: float(log_tail(np.array([math.log(x)]))[0]) - math.log(x)


def kinked_exp(kinks):
    """(log head, log tail) of e^-t (1 + sum of |t - k| over the kinks k)
    in t = log x, a tail QUADPACK bisects on each window that holds a kink."""

    def log_tail(ts):
        return libm(math.log1p, sum((np.abs(ts - k) for k in kinks), np.zeros_like(ts))) - ts

    return log_head_of(log_tail), log_tail


def cut_after(window: int, fill: float):
    """(log head, log tail, x0) of kinked_exp([]) past x0 = 2, with the log
    tail fill from the middle of the given window on."""
    a, b = tail_windows(2.0)
    edge = 0.5 * (a[window] + b[window])
    log_head, log_tail = kinked_exp([])
    return log_head, (lambda ts: np.where(ts < edge, log_tail(ts), fill)), 2.0


class TestImproperQuad:
    def test_bisected_window_in_a_chunk(self, monkeypatch):
        # QUADPACK bisects window 5 of the first chunk of 64, at a kink,
        # and window 60, at a tent of height 1e-4 that is 0 elsewhere; the
        # sums exit on _EXIT_REL at window 43, so quad redoes window 5 only.
        a, b = tail_windows(2.0)
        _, log_kinked = kinked_exp([a[5] + 0.3 * (b[5] - a[5])])
        peak = a[60] + 0.3 * (b[60] - a[60])

        def log_tail(ts):
            tent = 1e-3 * np.maximum(0.0, 0.1 - np.abs(ts - peak))
            return libm(math.log, libm(math.exp, log_kinked(ts)) + tent)

        log_head = log_head_of(log_tail)
        kept = first_pass(lambda ts: exp_clamped_array(log_tail(ts)), a[:64], b[:64])[2]
        assert np.flatnonzero(~kept).tolist() == [5, 60]
        want = window_by_window(log_head, log_tail, 2.0)
        calls = counted_quad(monkeypatch)
        got = improper_quad(log_head, log_tail, 2.0)
        assert bits(got.value, got.error) == bits(want.value, want.error)
        assert got.converged and want.converged
        assert calls == [(2.0, 10.0), (float(a[5]), float(a[5]) + math.log(2.0))]

    def test_chunks_end_at_bisected_windows(self, monkeypatch):
        # QUADPACK bisects windows 5 and 6, an adjacent pair, and 20, at
        # kinks, and window 50, at a tent of height 1e-4 that is 0
        # elsewhere; the sums exit on _EXIT_REL before window 50, so quad
        # redoes windows 5, 6 and 20 only, in order, each once.
        a, b = tail_windows(2.0)
        bisected = [5, 6, 20, 50]
        _, log_kinked = kinked_exp([a[w] + 0.3 * (b[w] - a[w]) for w in bisected[:3]])
        peak = a[50] + 0.3 * (b[50] - a[50])

        def log_tail(ts):
            tent = 1e-3 * np.maximum(0.0, 0.1 - np.abs(ts - peak))
            return libm(math.log, libm(math.exp, log_kinked(ts)) + tent)

        log_head = log_head_of(log_tail)
        kept = first_pass(lambda ts: exp_clamped_array(log_tail(ts)), a[:64], b[:64])[2]
        assert np.flatnonzero(~kept).tolist() == bisected
        want = window_by_window(log_head, log_tail, 2.0)
        calls = counted_quad(monkeypatch)
        got = improper_quad(log_head, log_tail, 2.0)
        assert bits(got.value, got.error) == bits(want.value, want.error)
        assert got.converged and want.converged
        step = math.log(2.0)
        assert calls == [(2.0, 10.0)] + [(float(a[w]), float(a[w]) + step) for w in bisected[:3]]

    def test_pareto_exponential_bisects_only_past_the_exits(self, monkeypatch):
        # Each of the 12 quadrature tails holds 3 windows QUADPACK bisects,
        # all past the window where the sums exit, so quad runs on the
        # heads alone.
        calls = counted_quad(monkeypatch)
        bisected = []

        def counted(f, a, b):
            result, abserr, kept = first_pass(f, a, b)
            bisected.append(int(np.count_nonzero(~kept)))
            return result, abserr, kept

        monkeypatch.setattr(_integrate, "first_pass", counted)
        transfer._pair_memo.cache_clear()
        grid = [i * 0.25 for i in range(13)]
        est = transfer.estimate_index(Pareto(1, 1), Exponential(1), grid)
        assert [e.method for e in est.evaluations] == ["closed_form"] + ["quadrature"] * 12
        assert all(e.converged for e in est.evaluations)
        assert calls == [(0.0, 8.0)] * 12
        assert sum(bisected) == 36

    @pytest.mark.parametrize(
        "log_head, passes",
        [
            (lambda x: 701.0 - x, 2),
            (lambda x: 800.0 - x, 2),
            (lambda x: math.inf if x > 5.0 else -x, 1),
        ],
        ids=["rescaled", "past_the_largest_float", "plus_inf"],
    )
    def test_head_past_the_clamp_diverges(self, monkeypatch, log_head, passes):
        # A head node past exp's 700 clamp is rescaled, not read as inf;
        # the head total is still past VALUE_CUTOFF or past the largest
        # float, and a log value of +inf ends the head after one pass.
        calls = counted_quad(monkeypatch)
        res = improper_quad(log_head, lambda ts: -ts, 0.0)
        assert res == TailIntegral(math.inf, math.inf, False)
        assert calls == [(0.0, 8.0)] * passes

    @pytest.mark.parametrize("case", [*INTEGRANDS, "inf_piece", "nan_piece"])
    def test_equals_window_by_window(self, case):
        # Each exit inside a chunk: _EXIT_REL at window 32 of the first
        # chunk (windows 0-63), VALUE_CUTOFF at window 141 of the third
        # (128-255), a non-finite piece at window 13 of the first; and both
        # ends at the cap.
        log_head, log_tail, x0 = {
            "inf_piece": lambda: cut_after(13, math.inf),
            "nan_piece": lambda: cut_after(13, math.nan),
        }.get(case, lambda: INTEGRANDS[case])()
        got = improper_quad(log_head, log_tail, x0)
        want = window_by_window(log_head, log_tail, x0)
        assert bits(got.value, got.error) == bits(want.value, want.error)
        assert got.converged == want.converged == (case in ("converges", "stable_at_the_cap"))

    @pytest.mark.parametrize("name", INTEGRANDS)
    def test_chunk_size_does_not_matter(self, monkeypatch, name):
        log_head, log_tail, x0 = INTEGRANDS[name]
        batched = improper_quad(log_head, log_tail, x0)
        monkeypatch.setattr(_integrate, "_CHUNK_FIRST", 1)
        monkeypatch.setattr(_integrate, "_CHUNK_CAP", 1)
        assert improper_quad(log_head, log_tail, x0) == batched
        want = {
            "converges": True,
            "past_the_cutoff": False,
            "stable_at_the_cap": True,
            "unstable_at_the_cap": False,
        }
        assert batched.converged == want[name]

    @pytest.mark.parametrize("gamma", [0.01, 0.3, 0.5, 0.51])
    def test_equals_quad_on_every_window(self, monkeypatch, gamma):
        # A first pass that keeps no window sends every one to quad.
        P, Q = LogPareto(1, 1, 0), LogPareto(1, 1, 2)
        batched = transfer._quadrature(P, Q, gamma)
        keep_none = first_pass

        def no_window_kept(f, a, b):
            result, abserr, kept = keep_none(f, a, b)
            return result, abserr, np.zeros_like(kept)

        monkeypatch.setattr(_integrate, "first_pass", no_window_kept)
        windows = []
        monkeypatch.setattr(_integrate, "quad", lambda *a, **k: windows.append(a) or quad(*a, **k))
        assert bits(*transfer._quadrature(P, Q, gamma)[:2]) == bits(*batched[:2])
        assert len(windows) > 1

    @staticmethod
    def count_passes(monkeypatch) -> list:
        """The window count of every first_pass call from here on, in order."""
        passes = []

        def counted(f, a, b):
            passes.append(len(a))
            return first_pass(f, a, b)

        monkeypatch.setattr(_integrate, "first_pass", counted)
        return passes

    def log_pareto_grid(self, monkeypatch):
        """(quad windows, first_pass window counts) of a cold LogPareto grid."""
        quads = []
        monkeypatch.setattr(_integrate, "quad", lambda *a, **k: quads.append(a) or quad(*a, **k))
        passes = self.count_passes(monkeypatch)
        transfer._pair_memo.cache_clear()
        P, Q = LogPareto(1, 1, 0), LogPareto(1, 1, 2)
        est = transfer.estimate_index(P, Q, [i / 100 for i in range(101)])
        assert sum(e.method == "quadrature" for e in est.evaluations) == 100
        return len(quads), passes

    def test_quad_runs_only_on_the_heads(self, monkeypatch):
        # Every tail window resolves on the first pass, so quad runs on
        # the heads alone: the two normalisers' and the 51 quadratures'
        # up to the first divergence at gamma 0.51.
        assert self.log_pareto_grid(monkeypatch)[0] == 53

    def test_chunks_evaluate_at_most_twice_the_windows_used(self, monkeypatch):
        batched = sum(self.log_pareto_grid(monkeypatch)[1])
        monkeypatch.setattr(_integrate, "_CHUNK_FIRST", 1)
        monkeypatch.setattr(_integrate, "_CHUNK_CAP", 1)
        used = sum(self.log_pareto_grid(monkeypatch)[1])
        assert used < batched <= 2 * used

    def test_few_first_pass_calls_on_the_log_pareto_grid(self, monkeypatch):
        # A call costs about the work of 40 windows before its first one,
        # so the first chunk holds 64: the 53 integrals' tails take at most
        # 110 calls for their 10,211 windows (265 with a first chunk of 8).
        passes = self.log_pareto_grid(monkeypatch)[1]
        assert len(passes) <= 110 and sum(passes) == 10_211

    def test_short_tail_evaluates_one_first_chunk(self, monkeypatch):
        # The exponential target's tail stops within a few windows, yet
        # its one call evaluates the whole first chunk of 64.
        passes = self.count_passes(monkeypatch)
        value, _, converged = transfer._quadrature(Pareto(1, 1), Exponential(1), 0.5)
        assert converged and math.isfinite(value)
        assert passes == [64]


def scalar_log_pdf(dist, x: float) -> float:
    """Each 1-D family's log density at one point inside its support, in
    libm's scalar functions."""
    if isinstance(dist, Pareto):
        return math.log(dist.alpha / dist.sigma) - (dist.alpha + 1.0) * math.log1p(
            x / dist.sigma
        )
    if isinstance(dist, Exponential):
        return math.log(dist.lam) - dist.lam * x
    if isinstance(dist, Uniform):
        return -math.log(dist.b - dist.a)
    lx = math.log(x)
    raw = -(dist.b + 1.0) * lx - (dist.c * math.log(lx) if dist.c else 0.0)
    return raw - math.log(dist._norm)


ONE_D = [
    Pareto(1.0, 1.0),
    Pareto(3.0, 2.0),
    Pareto(2.0, 1e-300),
    Exponential(2.0),
    Exponential(1e300),
    Uniform(-1.0, 3.0),
    Uniform(0.0, 5e-324),
    LogPareto(1.0, 1.0, 2.0),
    LogPareto(1.0, 0.7, 0.0),
]


class TestArrayLogDensity:
    """An array log density equals the scalar one at each point, bit for bit."""

    def points(self, dist):
        lo, hi = dist.support
        rng = np.random.default_rng(5)
        inside = lo + (min(hi, lo + 1e3) - lo) * rng.random(500) ** 3
        ends = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        outside = [lo - 1.0, -1e300, 1e300, -math.inf, math.inf, math.nan]
        return inside, np.concatenate([inside, ends, outside])

    @pytest.mark.parametrize("dist", ONE_D, ids=str)
    def test_one_d(self, dist):
        inside, xs = self.points(dist)
        got = dist.log_density(xs)
        one_by_one = [dist.log_density(x) for x in xs.tolist()]
        assert all(isinstance(v, float) for v in one_by_one)
        assert bits(*got) == bits(*one_by_one)
        assert bits(*got[: len(inside)]) == bits(*(scalar_log_pdf(dist, x) for x in inside))
        lo, hi = dist.support
        outside = (xs < lo) | (xs > hi)
        assert np.all(got[outside] == -math.inf)
        assert np.array_equal(np.isnan(got), np.isnan(xs))
        grid = xs[:40].reshape(5, 8)
        assert bits(*dist.log_density(grid).ravel()) == bits(*got[:40])

    def test_product_pareto(self):
        P = ProductPareto(1.5, 0.7, 3)
        factor = Pareto(1.5, 0.7)
        _, coords = self.points(factor)
        rng = np.random.default_rng(6)
        X = rng.choice(coords, size=(400, 3))
        got = P.log_density(X)
        for row, value in zip(X.tolist(), got.tolist()):
            # The scalar factor log densities added left to right from 0.
            want = 0.0
            for x in row:
                want += factor.log_density(x)
            assert bits(value) == bits(want) == bits(P.log_density(row))
