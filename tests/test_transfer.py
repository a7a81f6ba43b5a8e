import math
import sys

import numpy as np
import pytest

from conftest import quadrature_transfer
from transfer_knn import transfer
from transfer_knn.distributions import (
    Exponential,
    LogPareto,
    Pareto,
    ProductPareto,
    Uniform,
    closed_form_indices,
)
from transfer_knn.errors import NumericError
from transfer_knn.transfer import (
    _MC_DRAWS,
    TransferEvaluation,
    estimate_index,
    transfer_value,
)

PAR = Pareto(1.0, 1.0)
EXP1 = Exponential(1.0)
EXP2 = Exponential(2.0)


@pytest.fixture(autouse=True)
def fresh_memo():
    """Equal pairs share the per-pair memo, so each test starts without one."""
    transfer._pair_memo.cache_clear()


def exp_pair_value(lam_p, lam_q, gamma):
    """Analytic T for exponential pairs: close the proof's integral.

    q p^-gamma = lam_q lam_p^-gamma exp((gamma lam_p - lam_q) x), which
    integrates to lam_q lam_p^-gamma / (lam_q - gamma lam_p).
    """
    if gamma * lam_p >= lam_q:
        return math.inf
    return lam_q * lam_p**-gamma / (lam_q - gamma * lam_p)


def pareto_equal_scale_value(a_p, a_q, sigma, gamma):
    """Analytic T for equal-scale Pareto pairs via the power integral."""
    if gamma * (a_p + 1) >= a_q:
        return math.inf
    return a_q * (sigma / a_p) ** gamma / (a_q - gamma * (a_p + 1))


class TestTransferValue:
    def test_gamma_zero_is_one_exactly(self):
        for P, Q in [(PAR, PAR), (EXP2, EXP1), (PAR, EXP1), (Uniform(0, 1),) * 2]:
            ev = transfer_value(P, Q, 0.0)
            assert ev.value == 1.0 and ev.converged

    def test_exponential_example(self):
        ev = transfer_value(EXP1, EXP1, 0.5)
        assert ev.value == exp_pair_value(1.0, 1.0, 0.5) == 2.0
        value, _, _ = quadrature_transfer(EXP1, EXP1, 0.5)
        assert abs(value - 2.0) <= 1e-8

    def test_pareto_example(self):
        ev = transfer_value(PAR, PAR, 0.25)
        assert ev.value == pareto_equal_scale_value(1.0, 1.0, 1.0, 0.25) == 2.0
        value, _, _ = quadrature_transfer(PAR, PAR, 0.25)
        assert abs(value - 2.0) <= 1e-8

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            transfer_value(PAR, PAR, -0.1)

    @pytest.mark.parametrize(
        "P,Q,gamma_star",
        [
            (PAR, PAR, 0.5),
            (Pareto(2.0, 1.0), Pareto(1.5, 1.0), 0.5),
            (EXP2, EXP1, 0.5),
            (Exponential(1.0), Exponential(3.0), 3.0),
        ],
    )
    def test_quadrature_matches_closed_form(self, P, Q, gamma_star):
        for frac in np.arange(0.1, 0.95, 0.1):
            g = frac * gamma_star
            cf = transfer_value(P, Q, g)
            assert cf.method == "closed_form"
            value, _, converged = quadrature_transfer(P, Q, g)
            assert converged
            assert abs(value - cf.value) <= 1e-6 * cf.value

    def test_divergence_at_index(self):
        assert not transfer_value(PAR, PAR, 0.5).converged
        _, _, converged = quadrature_transfer(EXP2, EXP1, 0.5)
        assert not converged
        assert transfer_value(PAR, PAR, 0.5).value == math.inf

    @pytest.mark.parametrize(
        "P,Q,want",
        [
            (EXP2, EXP1, ("closed_form", True)),
            (PAR, PAR, ("closed_form", True)),
            (Uniform(0.0, 2.0), Uniform(0.0, 2.0), ("closed_form", True)),
            (Pareto(1.0, 1.0), Pareto(1.0, 2.0), ("quadrature", True)),
            # A Pareto target has no exponential moment.
            (EXP1, Pareto(3.0, 1.0), ("quadrature", False)),
            (LogPareto(1.0, 1.0, 0.0), LogPareto(1.0, 1.0, 2.0), ("quadrature", True)),
            (ProductPareto(1.0, 1.0, 2), ProductPareto(2.0, 1.0, 2), ("monte_carlo", True)),
            (ProductPareto(1.0, 1.0, 2), Pareto(1.0, 1.0), ValueError),
        ],
        ids=[
            "exponential",
            "pareto_equal_sigma",
            "uniform_equal_support",
            "pareto_unequal_sigma",
            "exponential_to_pareto",
            "log_pareto",
            "product_pareto",
            "dimension_mismatch",
        ],
    )
    def test_route_follows_the_pair(self, P, Q, want):
        """(method, converged) at gamma = 0.2, fixed by the pair alone."""
        if want is ValueError:
            with pytest.raises(ValueError, match="share a dimension"):
                transfer_value(P, Q, 0.2)
        else:
            ev = transfer_value(P, Q, 0.2)
            assert (ev.method, ev.converged) == want

    def test_disjoint_support_diverges(self):
        # target mass where the source density vanishes
        ev = transfer_value(Uniform(0.0, 1.0), Uniform(0.0, 2.0), 0.3)
        assert not ev.converged
        assert transfer_value(Uniform(0, 1), Uniform(0, 2), 1.0).value == math.inf

    @pytest.mark.parametrize(
        "P, Q",
        [
            (Uniform(0.0, 100.0), EXP1),
            (Uniform(-5.0, 1000.0), EXP1),
            (Uniform(0.0, 100.0), PAR),
        ],
    )
    def test_uncovered_infinite_support_diverges(self, P, Q):
        # q > 0 = p beyond P's right end, which lies past the head
        # [x0, x0 + 8] and past where the tail windows stop adding mass.
        for gamma in (0.05, 0.3, 0.5, 1.0, 2.0):
            ev = transfer_value(P, Q, gamma)
            assert ev.method == "quadrature"
            assert ev.value == math.inf and not ev.converged

    def test_large_finite_value_on_bounded_support(self):
        # p = 1e-7 on Q's whole support, so T = 1e7 exactly.
        ev = transfer_value(Uniform(0, 1e7), Uniform(0, 1e6), 1.0)
        assert ev.method == "quadrature" and ev.converged
        assert math.isclose(ev.value, 1e7, rel_tol=1e-9)

    def test_monte_carlo_product_pair(self):
        P = ProductPareto(1.0, 1.0, 2)
        Q = ProductPareto(1.0, 1.0, 2)
        gamma = 0.2
        ev = transfer_value(P, Q, gamma)
        assert ev.converged
        # the integral factorises: T_2d = (T_1d)^2
        want = pareto_equal_scale_value(1.0, 1.0, 1.0, gamma) ** 2
        assert abs(ev.value - want) <= 5 * ev.error_estimate


class TestClosedFormOverflow:
    """A closed-form T is finite whenever its condition holds, however large."""

    @pytest.mark.parametrize(
        "P, Q, want",
        [
            # T = lam_p^-1 lam_q / (lam_q - lam_p) = 1e300 (1 + 1e-310)
            (Exponential(1e-300), Exponential(1e10), 1e300),
            # T = (1/alpha_p) alpha_q / (alpha_q - alpha_p - 1) = 1e300 / (1 - 1e-10)
            (Pareto(1e-300, 1.0), Pareto(1e10, 1.0), 1e300 / (1.0 - 1e-10)),
        ],
    )
    def test_large_finite_value_is_not_divergent(self, P, Q, want):
        ev = transfer_value(P, Q, 1.0)
        assert ev.method == "closed_form" and ev.converged
        assert math.isclose(ev.value, want, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "P, Q",
        [
            (Exponential(1e-300), Exponential(1.0)),  # T = 1e600
            (Pareto(1e-300, 1.0), Pareto(1e10, 1.0)),
            (Uniform(0.0, 1e300), Uniform(0.0, 1e300)),  # T = (b - a)^2
        ],
    )
    def test_value_beyond_a_float_raises_naming_gamma(self, P, Q):
        with pytest.raises(NumericError, match="gamma=2.0"):
            transfer_value(P, Q, 2.0)

    def test_values_that_fit_are_unchanged(self):
        # Every T that the formula as written holds in a float is returned
        # bit for bit; the oracles are that formula.
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(2000):
            a_p, a_q, width = (float(v) for v in 10.0 ** rng.uniform(-300, 300, size=3))
            gamma = float(rng.uniform(0.01, 3.0))
            cases = [
                (Exponential(a_p), Exponential(a_q), exp_pair_value, (a_p, a_q)),
                (Uniform(0.0, width), Uniform(0.0, width), lambda w, g: w**g, (width,)),
            ]
            # A Pareto whose scale alpha / sigma leaves the positive floats
            # is refused at construction.
            if all(0.0 < a / width < math.inf for a in (a_p, a_q)):
                cases.insert(1, (Pareto(a_p, width), Pareto(a_q, width),
                                 pareto_equal_scale_value, (a_p, a_q, width)))
            for P, Q, oracle, params in cases:
                try:
                    want = oracle(*params, gamma)
                except OverflowError:
                    continue
                if want < math.inf:
                    assert transfer_value(P, Q, gamma).value == want
                    checked += 1
        assert checked > 1000


class TestBoundedQuadratureOverflow:
    """A bounded-support integrand past exp's 700 clamp is integrated as g / 2^k
    and scaled back, so its T is right or, past the largest float, raises;
    below the clamp every T is the one the clamped rule gave."""

    # T = (1e300)^gamma, whose log 690.8 gamma passes 700 from gamma = 1.0134.
    P, Q = Uniform(0.0, 1e300), Uniform(0.0, 1.0)

    def test_value_past_the_clamp(self):
        # The clamp read every node as exp(700) and returned 1.014e304.
        ev = transfer_value(self.P, self.Q, 1.02)
        assert (ev.method, ev.converged) == ("quadrature", True)
        assert math.isclose(ev.value, 1e306, rel_tol=1e-12)

    @pytest.mark.parametrize("gamma", [1.05, 1.1])
    def test_value_beyond_a_float_raises_naming_gamma(self, gamma):
        with pytest.raises(NumericError, match=f"T at gamma={gamma} is finite"):
            transfer_value(self.P, self.Q, gamma)

    @pytest.mark.parametrize(
        "P, Q",
        [
            (Uniform(0.0, 1e300), Uniform(0.0, 1.0)),
            (Uniform(0.0, 1e7), Uniform(0.0, 1e6)),
            (Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
            (PAR, Uniform(0.0, 5.0)),
        ],
    )
    def test_below_the_clamp_unchanged(self, P, Q):
        for gamma in (0.3, 1.0):
            if isinstance(P, Uniform):  # p is 1 / width on Q's support
                exact = (P.b - P.a) ** gamma
            else:  # (1/5) int_0^5 (1 + x)^(2 gamma) dx
                exact = (6.0 ** (2 * gamma + 1) - 1) / (5 * (2 * gamma + 1))
            ev = transfer_value(P, Q, gamma)
            assert (ev.method, ev.converged) == ("quadrature", True)
            assert ev.value == pytest.approx(exact, rel=1e-10, abs=0)


class TestMonteCarloRows:
    """The Monte Carlo T over the (n, d) draws against the exact product value."""

    PAIRS = [(ProductPareto(1.0, 1.0, 2), ProductPareto(2.0, 1.0, 2))]

    @pytest.mark.parametrize("P,Q", PAIRS, ids=["product_d2"])
    def test_transfer_value_equals_loop(self, P, Q):
        # T factorises over coordinates; the 1-D Pareto(1, 1) -> Pareto(2, 1)
        # T is 1 / (1 - gamma), so T = (1 - gamma)^-2 here.  Above 0.45 the
        # draws do not resolve it (test_product_pair_at_0_9).
        for gamma in (0.15, 0.3, 0.45):
            ev = transfer_value(P, Q, gamma)
            assert (ev.method, ev.converged) == ("monte_carlo", True)
            assert abs(ev.value - (1.0 - gamma) ** -2) <= 4.0 * ev.error_estimate


def bits(ev: TransferEvaluation) -> tuple:
    """Every field of an evaluation, floats by their exact bits."""
    return (
        ev.gamma.hex(),
        float(ev.value).hex(),
        ev.method,
        float(ev.error_estimate).hex(),
        ev.converged,
    )


def cold(P, Q, gamma: float) -> TransferEvaluation:
    """transfer_value from an empty memo, sharing no node with another call."""
    transfer._pair_memo.cache_clear()
    return transfer_value(P, Q, gamma)


LOG_SOURCE = LogPareto(1.0, 1.0, 0.0)
LOG_TARGET = LogPareto(1.0, 1.0, 2.0)
# The CLI's 0:1:0.01 grid, point for point (parse_grid's 0.0 + i * 0.01).
LOG_GRID = [i * 0.01 for i in range(101)]
PRODUCT_SOURCE = ProductPareto(1.0, 1.0, 2)
PRODUCT_TARGET = ProductPareto(2.0, 1.0, 2)
PRODUCT_GRID = [i * 0.15 for i in range(7)]


@pytest.fixture(scope="module")
def log_pareto_reference():
    """gamma -> bits of the cold evaluation on LOG_GRID."""
    return {g: bits(cold(LOG_SOURCE, LOG_TARGET, g)) for g in LOG_GRID}


class TestPairMemo:
    """Every gamma of a pair reads one memo, and its value equals, bit for
    bit, the value from an empty memo."""

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_log_pareto_grid(self, log_pareto_reference, order):
        grid = LOG_GRID if order == "forward" else LOG_GRID[::-1]
        for g in grid:
            ev = transfer_value(LOG_SOURCE, LOG_TARGET, g)
            assert bits(ev) == log_pareto_reference[g], g

    def test_log_pareto_grid_interleaved_with_another_pair(self, log_pareto_reference):
        # Alternating pairs evicts the one-pair memo at every call.
        light = LogPareto(1.0, 1.0, 0.5)
        for g in LOG_GRID[::5]:
            ev = transfer_value(LOG_SOURCE, LOG_TARGET, g)
            other = transfer_value(LOG_SOURCE, light, g)
            assert bits(ev) == log_pareto_reference[g], g
            assert bits(other) == bits(cold(LOG_SOURCE, light, g)), g

    def test_estimate_index_bracket(self, log_pareto_reference):
        est = estimate_index(LOG_SOURCE, LOG_TARGET, LOG_GRID)
        assert [bits(e) for e in est.evaluations] == [
            log_pareto_reference[g] for g in LOG_GRID
        ]
        assert est.lower_confirmed == 0.5 < est.upper_confirmed <= 0.55

    @pytest.mark.parametrize(
        "P,Q",
        [
            (Pareto(1.0, 1.0), Pareto(1.0, 2.0)),
            (Exponential(1.0), Pareto(3.0, 1.0)),
            (Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
        ],
        ids=["pareto_unequal_sigma", "exponential_to_pareto", "uniform_bounded"],
    )
    def test_quadrature_pairs(self, P, Q):
        grid = [0.1, 0.3, 0.45, 0.7, 1.2]
        want = {g: bits(cold(P, Q, g)) for g in grid}
        transfer._pair_memo.cache_clear()
        for g in grid + grid[::-1]:
            ev = transfer_value(P, Q, g)
            assert ev.method == "quadrature"
            assert bits(ev) == want[g], g

    def test_monte_carlo_product_grid(self):
        grid = PRODUCT_GRID[1:]
        want = {g: bits(cold(PRODUCT_SOURCE, PRODUCT_TARGET, g)) for g in grid}
        transfer._pair_memo.cache_clear()
        for g in grid + grid[::-1]:
            ev = transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, g)
            assert ev.method == "monte_carlo"
            assert bits(ev) == want[g], g

    def test_product_pair_draws_once(self, monkeypatch):
        draws = []
        sample = ProductPareto.sample_array

        def counted(self, rng, n):
            draws.append(n)
            return sample(self, rng, n)

        monkeypatch.setattr(ProductPareto, "sample_array", counted)
        transfer._pair_memo.cache_clear()
        for g in PRODUCT_GRID[1:4]:
            ev = transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, g)
            assert ev.method == "monte_carlo"
        assert draws == [_MC_DRAWS]

    def test_threads_racing_on_the_memo(self, log_pareto_reference):
        # Two threads per pair, so entries are raced for and the one-pair
        # memo is evicted back and forth.
        from concurrent.futures import ThreadPoolExecutor

        log_grid, mc_grid = LOG_GRID[::10], PRODUCT_GRID[1:]
        mc_want = {g: bits(cold(PRODUCT_SOURCE, PRODUCT_TARGET, g)) for g in mc_grid}
        transfer._pair_memo.cache_clear()

        def log_pareto(g):
            return bits(transfer_value(LOG_SOURCE, LOG_TARGET, g))

        def product(g):
            return bits(transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, g))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    (fn, g, pool.submit(fn, g))
                    for _ in range(2)
                    for fn, grid in ((log_pareto, log_grid), (product, mc_grid))
                    for g in grid
                ]
                for fn, g, future in futures:
                    want = log_pareto_reference[g] if fn is log_pareto else mc_want[g]
                    assert future.result(timeout=120) == want, (fn.__name__, g)
        finally:
            sys.setswitchinterval(interval)

    def test_log_pareto_grid_log_density_calls(self, monkeypatch):
        calls = []
        log_density = LogPareto.log_density

        def counted(self, x):
            calls.append(x)
            return log_density(self, x)

        monkeypatch.setattr(LogPareto, "log_density", counted)
        for g in LOG_GRID:
            transfer_value(LOG_SOURCE, LOG_TARGET, g)
        # 570,192 without the node table: 21,000 distinct nodes, each
        # side's value asked for 13.6 times on average.
        assert len(calls) <= 50_000

    def test_cached_log_p_is_read_only(self):
        transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, 0.3)
        log_p = transfer._pair_memo(PRODUCT_SOURCE, PRODUCT_TARGET).mc_log_p
        assert not log_p.flags.writeable
        with pytest.raises(ValueError):
            log_p[0] = 0.0


class TestTransferProperties:
    GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]

    @pytest.mark.parametrize("P,Q", [(PAR, PAR), (EXP2, EXP1)])
    def test_interpolation_bound(self, P, Q):
        for g in self.GRID:
            for s in self.GRID:
                if g <= s:
                    tg = transfer_value(P, Q, g).value
                    ts = transfer_value(P, Q, s).value
                    assert tg <= ts ** (g / s) + 1e-8

    @pytest.mark.parametrize("P,Q", [(PAR, PAR), (EXP2, EXP1)])
    def test_log_convexity(self, P, Q):
        vals = {g: transfer_value(P, Q, g).value for g in self.GRID}
        for i in range(len(self.GRID) - 2):
            g1, g2, g3 = self.GRID[i : i + 3]
            interp = math.log(vals[g1]) + (math.log(vals[g3]) - math.log(vals[g1])) * (
                g2 - g1
            ) / (g3 - g1)
            assert math.log(vals[g2]) <= interp + 1e-8

    def test_closed_form_domain_is_an_interval(self):
        # Where T has an exact value, it is infinite at every gamma above one
        # where it is infinite: the lemma estimate_index stops on.
        rng = np.random.default_rng(27)
        grid = [i * 0.05 for i in range(1, 101)]
        crossings = 0
        for _ in range(200):
            a_p, a_q = (float(v) for v in 10.0 ** rng.uniform(-1, 1, size=2))
            sigma = float(10.0 ** rng.uniform(-3, 3))
            for P, Q in (
                (Exponential(a_p), Exponential(a_q)),
                (Pareto(a_p, sigma), Pareto(a_q, sigma)),
            ):
                values = [transfer._closed_form(P, Q, g) for g in grid]
                if math.inf in values:
                    first = values.index(math.inf)
                    assert values[first:] == [math.inf] * (len(grid) - first), (P, Q)
                    crossings += first > 0
        assert crossings > 200


class TestEstimateIndex:
    GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)

    def test_pareto_bracket(self):
        est = estimate_index(PAR, PAR, self.GRID)
        assert est.lower_confirmed <= 0.5 <= est.upper_confirmed
        assert est.upper_confirmed - est.lower_confirmed <= 0.05 + 1e-12

    def test_exponential_bracket(self):
        est = estimate_index(EXP2, EXP1, self.GRID)
        assert est.lower_confirmed <= 0.5 <= est.upper_confirmed
        gamma_star, _ = closed_form_indices(EXP2, EXP1)
        assert est.lower_confirmed <= gamma_star <= est.upper_confirmed

    def test_log_pareto_dichotomy_bracket(self):
        src = LogPareto(1.0, 1.0, 0.0)
        est = estimate_index(src, LogPareto(1.0, 1.0, 2.0), self.GRID)
        # T is finite at gamma* itself here, so 0.5 is a confirmed point
        assert est.lower_confirmed == 0.5
        assert est.upper_confirmed > 0.5

    def test_all_converged_grid(self):
        est = estimate_index(PAR, EXP1, [0.0, 0.5, 1.0, 2.0])
        assert est.upper_confirmed == math.inf
        assert est.lower_confirmed == 2.0

    def test_lower_never_above_upper(self, monkeypatch):
        # A stub that reads finite again above its first divergence is not
        # asked past it: T is infinite there, and each row says so.
        finite = {0.1: True, 0.2: False, 0.3: True, 0.4: False}
        calls = []

        def stub(P, Q, gamma):
            calls.append(gamma)
            value = 1.0 if finite[gamma] else math.inf
            return TransferEvaluation(gamma, value, "quadrature", 0.0, finite[gamma])

        monkeypatch.setattr(transfer, "transfer_value", stub)
        est = estimate_index(PAR, PAR, [0.1, 0.2, 0.3, 0.4])
        assert calls == [0.1, 0.2]
        assert (est.lower_confirmed, est.upper_confirmed) == (0.1, 0.2)
        assert est.evaluations[1:] == tuple(
            TransferEvaluation(g, math.inf, "quadrature", 0.0, False) for g in (0.2, 0.3, 0.4)
        )

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            estimate_index(PAR, PAR, [])
        with pytest.raises(ValueError):
            estimate_index(PAR, PAR, [0.2, 0.1])


class TestKnownWrongValues:
    """Values the library gets wrong today, each against its exact value.

    Every test is a strict xfail naming the ROADMAP item that fixes it, so
    the fix fails here until its marker is removed.  No test imports
    mpmath; each constant's comment gives the command that derived it.
    """

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: d >= 2 Monte Carlo T")
    def test_product_pair_at_0_9(self):
        # T = (1 - 0.9)^-2 = 100; the fixed-seed draws give 42.83 +- 4.24.
        ev = transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, 0.9)
        assert ev.value == pytest.approx(100.0, rel=1e-9, abs=0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: d >= 2 Monte Carlo T")
    def test_product_pair_diverges_at_1_2(self):
        # T is infinite from gamma* = 1 on; the draws give 874, converged.
        ev = transfer_value(PRODUCT_SOURCE, PRODUCT_TARGET, 1.2)
        assert ev.value == math.inf and not ev.converged

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the x = e^690 truncation")
    def test_log_pareto_pair_at_its_index(self):
        # T(0.5) = sqrt(0.5) / E_2(log 2); the truncated tail gives 2.9739874.
        # python -c "import mpmath as m; m.mp.dps = 30;
        #   print(m.sqrt(0.5) / m.expint(2, m.log(2)))"
        ev = transfer_value(LOG_SOURCE, LOG_TARGET, 0.5)
        assert ev.value == pytest.approx(2.97697540953602071857, rel=1e-9, abs=0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the x = e^690 truncation")
    def test_log_pareto_normaliser_at_small_b(self):
        # Z = 2^-b / b at c = 0; the truncated tail gives 99.209.
        # python -c "import mpmath as m; m.mp.dps = 30;
        #   print(m.mpf(2) ** m.mpf('-0.01') / m.mpf('0.01'))"
        assert LogPareto(1.0, 0.01, 0.0)._norm == pytest.approx(
            99.3092495437035901533, rel=1e-9
        )

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the 1e6 value cutoff")
    def test_large_finite_value_is_finite(self):
        # T is finite below gamma = 1.5; the cutoff reads inf at 1.47.
        # python -c "import mpmath as m; m.mp.dps = 30; g = m.mpf('1.47');
        #   f = lambda t: m.exp(t) * 3 * (1 + m.exp(t)) ** -4
        #       * m.mpf(1000) ** -g * (1 + 1000 * m.exp(t)) ** (2 * g);
        #   print(m.quad(f, [-m.inf, -20, -7, 0, 10, 100, 1000, m.inf]))"
        ev = transfer_value(Pareto(1.0, 0.001), Pareto(3.0, 1.0), 1.47)
        assert ev.value == pytest.approx(1155304.80665836442589, rel=1e-6, abs=0)
