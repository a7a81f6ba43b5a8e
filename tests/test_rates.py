import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfer_knn.errors import ConfigError
from transfer_knn.rates import (
    ACCELERATED,
    CRITICAL,
    SOURCE,
    SUBCRITICAL,
    SUPERCRITICAL,
    TARGET,
    WEDGE,
    RateParams,
    acceleration_window,
    classify_configuration,
    lower_bound_rate,
    phase_grid,
    r_beta,
    theoretical_rate,
)

R23 = 2.0 / 3.0


class TestRBeta:
    def test_unit_case(self):
        assert r_beta(1.0, 1) == R23

    def test_high_dimension_limit(self):
        assert r_beta(1.0, 10**6) <= 1e-5

    def test_half_beta(self):
        assert math.isclose(r_beta(0.5, 2), 1.0 / 3.0, rel_tol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            r_beta(0.0, 1)
        with pytest.raises(ValueError):
            r_beta(1.5, 1)


class TestClassification:
    def test_supercritical(self):
        assert classify_configuration(1.0, 0.2, R23) == SUPERCRITICAL

    def test_subcritical_both_below(self):
        assert classify_configuration(0.5, 0.5, R23) == SUBCRITICAL

    def test_critical_on_the_line(self):
        assert classify_configuration(0.9, R23, R23) == CRITICAL
        assert classify_configuration(R23, 0.1, R23) == CRITICAL


class TestWindow:
    def test_gamma_over_s_large(self):
        lo, hi = acceleration_window(1000, 1.0, 0.2)
        assert lo == 1000 and math.isclose(hi, 1000.0**5)

    def test_gamma_over_s_small(self):
        lo, hi = acceleration_window(1000, 0.4, 0.8)
        assert math.isclose(lo, math.sqrt(1000)) and hi == 1000

    def test_degenerate_n(self):
        assert acceleration_window(1, 2.0, 1.0) == (1, 1)

    def test_equal_exponents_rejected(self):
        with pytest.raises(ValueError):
            acceleration_window(10, 0.5, 0.5)


class TestTheoreticalRate:
    def test_accelerated_example_one(self):
        rep = theoretical_rate(RateParams(1.0, 0.2, 1.0, 1, 1e4, 1e5))
        assert rep.regime == ACCELERATED
        assert math.isclose(rep.source_exp, 0.58333333333333, rel_tol=1e-10)
        assert math.isclose(rep.target_exp, 0.08333333333333, rel_tol=1e-8)
        assert abs(rep.source_exp + rep.target_exp - R23) <= 1e-12

    def test_accelerated_example_two(self):
        rep = theoretical_rate(RateParams(0.4, 0.8, 1.0, 1, 1000, 100))
        assert rep.configuration == SUPERCRITICAL and rep.regime == ACCELERATED
        assert math.isclose(rep.source_exp, 0.4 / 3.0, rel_tol=1e-12)
        assert math.isclose(rep.target_exp, 0.8 * 2.0 / 3.0, rel_tol=1e-12)

    def test_wedge_equal_exponents(self):
        # gamma = s >= r_beta: both wedge exponents are r_beta and the
        # minimum of the two terms is driven by the larger sample
        rep = theoretical_rate(RateParams(0.9, 0.9, 1.0, 1, 1000, 500))
        assert rep.regime == WEDGE
        assert rep.source_exp == rep.target_exp == R23
        assert math.isclose(rep.rate_value, 1000.0 ** -R23, rel_tol=1e-12)
        assert rep.driver == SOURCE

    def test_pure_source(self):
        rep = theoretical_rate(RateParams(0.5, 0.9, 1.0, 1, 4096, 0))
        assert rep.regime == WEDGE and rep.driver == SOURCE
        assert math.isclose(rep.rate_value, 4096.0**-0.5, rel_tol=1e-12)

    def test_pure_target(self):
        rep = theoretical_rate(RateParams(0.5, 0.9, 1.0, 1, 0, 4096))
        assert rep.driver == TARGET
        assert math.isclose(rep.rate_value, 4096.0 ** -R23, rel_tol=1e-12)

    def test_gamma_equal_s_routes_to_wedge(self):
        rep = theoretical_rate(RateParams(0.7, 0.7, 1.0, 1, 100, 100))
        assert rep.regime == WEDGE

    def test_full_mode_accelerated(self):
        rep = theoretical_rate(
            RateParams(1.0, 0.2, 1.0, 1, 1e4, 1e5, transfer_p=2.0, transfer_q=3.0),
            mode="full",
        )
        a = (R23 - 0.2) / (1.0 - 0.2)
        log_nm = math.log(1e9)
        want = (
            2.0**a
            * 3.0 ** (1 - a)
            * (log_nm / 1e4) ** rep.source_exp
            * (log_nm / 1e5) ** rep.target_exp
        )
        assert math.isclose(rep.rate_value, want, rel_tol=1e-12)

    def test_full_mode_product_past_the_largest_float(self):
        # n m = 1e400 overflows a float; log(n m) = 400 log 10 does not.
        rep = theoretical_rate(
            RateParams(0.3, 0.8, 1.0, 1, 1e200, 1e200, transfer_p=2.0, transfer_q=3.0),
            mode="full",
        )
        assert rep.regime == ACCELERATED
        a = (R23 - 0.8) / (0.3 - 0.8)
        log_nm = 400.0 * math.log(10.0)
        want = (
            2.0**a
            * 3.0 ** (1 - a)
            * (log_nm / 1e200) ** rep.source_exp
            * (log_nm / 1e200) ** rep.target_exp
        )
        assert math.isclose(rep.rate_value, want, rel_tol=1e-12)
        assert math.isclose(rep.rate_value, 1.183e-131, rel_tol=1e-3)

    def test_full_mode_wedge_with_missing_transfer(self):
        rep = theoretical_rate(
            RateParams(0.5, 0.5, 1.0, 1, 1000, 1000, transfer_q=1.5),
            mode="full",
        )
        assert rep.regime == WEDGE and rep.driver == TARGET
        assert any("source term omitted" in f for f in rep.flags)

    def test_full_mode_wedge_names_only_the_missing_t_of_a_present_sample(self):
        # An empty sample has no term, so its T cannot supply the rate.
        cases = (
            ((0, 1e5), {"transfer_p": 2.0}, "'transfer_q': full-mode wedge needs it when n = 0"),
            ((0, 1e5), {}, "'transfer_q': full-mode wedge needs it when n = 0"),
            ((1e4, 0), {"transfer_q": 3.0}, "'transfer_p': full-mode wedge needs it when m = 0"),
            ((1e4, 1e5), {}, "'transfer_p, transfer_q': full-mode wedge needs at least one"),
        )
        for (n, m), values, message in cases:
            with pytest.raises(ConfigError, match=message):
                theoretical_rate(RateParams(0.4, 0.8, 1.0, 1, n, m, **values), mode="full")

    def test_nonpositive_transfer_value_rejected(self):
        # T(P, Q, gamma) > 0, so a given T of 0 or less names its field.
        for field, value in (("transfer_p", -2.0), ("transfer_q", 0.0)):
            values = {"transfer_p": 2.0, "transfer_q": 3.0, field: value}
            with pytest.raises(ConfigError, match=f"'{field}': must be positive"):
                RateParams(1.0, 0.2, 1.0, 1, 1e4, 1e5, **values)

    def test_infinite_transfer_value_rejected(self):
        # An infinite T is a vacuous rate term, not a missing one.
        for field in ("transfer_p", "transfer_q"):
            values = {"transfer_p": 2.0, "transfer_q": 3.0, field: math.inf}
            with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
                RateParams(0.4, 0.8, 1.0, 1, 1e4, 1e5, **values)

    def test_non_finite_sample_size_rejected(self):
        # An infinite n read as a rate of NaN (full mode) or 0.0, unflagged.
        for field in ("n", "m"):
            for value in (math.inf, math.nan):
                sizes = {"n": 1e4, "m": 1e5, field: value}
                with pytest.raises(ConfigError, match=f"'{field}': must be finite"):
                    RateParams(1.0, 0.2, 1.0, 1, **sizes, transfer_p=2.0, transfer_q=3.0)

    def test_full_mode_needs_log_scale(self):
        with pytest.raises(ValueError):
            theoretical_rate(
                RateParams(0.5, 0.5, 1.0, 1, 1, 1, transfer_p=1.0, transfer_q=1.0),
                mode="full",
            )


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(min_value=0.05, max_value=3.0),
        s=st.floats(min_value=0.05, max_value=1.0),
        beta=st.floats(min_value=0.05, max_value=1.0),
        d=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=10**6),
        m=st.integers(min_value=0, max_value=10**6),
    )
    def test_lower_bound_matches_theoretical(self, gamma, s, beta, d, n, m):
        params = RateParams(gamma, s, beta, d, n, m)
        a = theoretical_rate(params).rate_value
        b = lower_bound_rate(params)
        assert math.isclose(a, b, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(min_value=0.05, max_value=3.0),
        s=st.floats(min_value=0.05, max_value=1.0),
        beta=st.floats(min_value=0.05, max_value=1.0),
        d=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=10**6),
        m=st.integers(min_value=1, max_value=10**6),
    )
    def test_accelerated_exponents_sum_to_r_beta(self, gamma, s, beta, d, n, m):
        rep = theoretical_rate(RateParams(gamma, s, beta, d, n, m))
        if rep.regime == ACCELERATED:
            assert abs(rep.source_exp + rep.target_exp - rep.r_beta) <= 1e-12

    def test_lower_bound_wedge_outside_window(self):
        # gamma = 0.3 < r_beta, s = 0.9, m = n^2 lies outside the window
        # (gamma/s < 1 needs m <= n), so the wedge branch applies
        n = 500.0
        params = RateParams(0.3, 0.9, 1.0, 1, n, n * n)
        want = min(n**-0.3, (n * n) ** -R23)
        assert math.isclose(lower_bound_rate(params), want, rel_tol=1e-12)
        assert theoretical_rate(params).regime == WEDGE

    def test_lower_bound_boundary_m_equals_n(self):
        n = 1000.0
        params = RateParams(1.0, 0.2, 1.0, 1, n, n)
        assert math.isclose(lower_bound_rate(params), n**-R23, rel_tol=1e-12)

    def test_boundary_continuity(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            beta = rng.uniform(0.1, 1.0)
            d = int(rng.integers(1, 4))
            rb = r_beta(beta, d)
            gamma = rng.uniform(rb + 0.05, 3.0)
            s = rng.uniform(0.05, max(rb - 0.05, 0.06))
            if s >= rb:
                continue
            n = float(rng.integers(10, 10**5))
            window = acceleration_window(n, gamma, s)
            for m in (edge for edge in window if math.isfinite(edge)):
                acc = theoretical_rate(RateParams(gamma, s, beta, d, n, m))
                assert acc.regime == ACCELERATED
                wedge = min(n ** -min(gamma, rb), m ** -min(s, rb))
                assert math.isclose(acc.rate_value, wedge, rel_tol=1e-9)

    def test_dominance_inside_window(self):
        gamma, s, beta, d = 1.2, 0.3, 1.0, 1
        rb = r_beta(beta, d)
        for n in np.geomspace(10, 1e4, 20):
            lo, hi = acceleration_window(n, gamma, s)
            for m in np.geomspace(lo * 1.01, min(hi * 0.99, 1e12), 20):
                rep = theoretical_rate(RateParams(gamma, s, beta, d, n, m))
                assert rep.regime == ACCELERATED
                wedge = min(n ** -min(gamma, rb), m ** -min(s, rb))
                assert rep.rate_value < wedge

    def test_mutual_exclusivity_of_orientations(self):
        # at a fixed (n, m), only the orientation compatible with the
        # ordering of n and m can accelerate
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = float(rng.integers(2, 10**4))
            m = float(rng.integers(2, 10**4))
            if n == m:
                continue
            plus_minus = theoretical_rate(RateParams(1.5, 0.3, 1.0, 1, n, m))
            minus_plus = theoretical_rate(RateParams(0.3, 0.9, 0.5, 1, n, m))
            both = (
                plus_minus.regime == ACCELERATED
                and minus_plus.regime == ACCELERATED
            )
            assert not both


TIE = "either driver"


def reference_report(p: RateParams, mode: str):
    """(configuration, regime, driver, source_exp, target_exp, rate) of a
    report, from the module docstring, or the ConfigError's field.

    In exponents_only mode the rate is lower_bound_rate's, a separate
    transcription of the lower-bound statement; in full mode it is the
    docstring's one-term formula with log(n m) = log n + log m.
    """
    rb = 2.0 * p.beta / (2.0 * p.beta + p.d)
    sign = (p.gamma - rb) * (p.s - rb)
    config = SUPERCRITICAL if sign < 0 else CRITICAL if sign == 0 else SUBCRITICAL
    accelerated = False
    if config == SUPERCRITICAL and p.n >= 1 and p.m >= 1:
        edge = (p.gamma / p.s) * math.log(p.n)
        edge = math.inf if edge > 700.0 else math.exp(edge)
        accelerated = min(p.n, edge) <= p.m <= max(p.n, edge)
    full = mode == "full"
    if full:
        if max(p.n, p.m) < 2:
            return "n, m"
        log_nm = math.log(max(p.n, 1.0)) + math.log(max(p.m, 1.0))

    def term(size, e):
        if size == 0:
            return math.inf
        return (log_nm / size) ** e if full else size**-e

    if accelerated:
        a = (rb - p.s) / (p.gamma - p.s)
        src, tgt = p.gamma * a, p.s * (1.0 - a)
        if not full:
            return config, ACCELERATED, None, src, tgt, lower_bound_rate(p)
        if p.transfer_p is None or p.transfer_q is None:
            return "transfer_p, transfer_q"
        coef = p.transfer_p**a * p.transfer_q ** (1.0 - a)
        return config, ACCELERATED, None, src, tgt, coef * term(p.n, src) * term(p.m, tgt)
    rs, rt = min(p.gamma, rb), min(p.s, rb)
    wp, wq = (p.transfer_p, p.transfer_q) if full else (1.0, 1.0)
    src = math.inf if wp is None else wp * term(p.n, rs)
    tgt = math.inf if wq is None else wq * term(p.m, rt)
    if src == tgt == math.inf:
        # An empty sample has no term, so the error names the other's T.
        if p.n == 0 or p.m == 0:
            return "transfer_q" if p.n == 0 else "transfer_p"
        return "transfer_p, transfer_q"
    rate = min(src, tgt) if full else lower_bound_rate(p)
    # Terms that tie to rounding may name either driver.
    driver = TIE if math.isclose(src, tgt, rel_tol=1e-12) else SOURCE if src < tgt else TARGET
    return config, WEDGE, driver, rs, rt, rate


def assert_matches_reference(params, mode):
    want = reference_report(params, mode)
    if isinstance(want, str):
        with pytest.raises(ConfigError, match=f"config field '{want}': "):
            theoretical_rate(params, mode=mode)
        return
    rep = theoretical_rate(params, mode=mode)
    config, regime, driver, src, tgt, rate = want
    assert (rep.configuration, rep.regime) == (config, regime)
    assert rep.driver == driver or (driver == TIE and rep.driver in (SOURCE, TARGET))
    assert rep.source_exp == pytest.approx(src, rel=1e-12, abs=0)
    assert rep.target_exp == pytest.approx(tgt, rel=1e-12, abs=0)
    assert rep.rate_value == pytest.approx(rate, rel=1e-12, abs=0)


SIZES = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.integers(min_value=3, max_value=10**8),
    st.floats(min_value=0.0, max_value=1e12),
)
T_VALUES = st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1e6))


class TestOneTermFormula:
    """theoretical_rate against references that share none of its code, in
    both modes: lower_bound_rate, the module docstring's formula and a
    table derived by hand."""

    @settings(max_examples=500, deadline=None)
    @given(
        gamma=st.floats(min_value=0.01, max_value=3.0),
        s=st.floats(min_value=0.01, max_value=3.0),
        beta=st.floats(min_value=0.05, max_value=1.0),
        d=st.integers(min_value=1, max_value=5),
        n=SIZES,
        m=SIZES,
        transfer_p=T_VALUES,
        transfer_q=T_VALUES,
        mode=st.sampled_from(["exponents_only", "full"]),
    )
    def test_matches_the_references(
        self, gamma, s, beta, d, n, m, transfer_p, transfer_q, mode
    ):
        if n == 0 and m == 0:
            m = 1
        params = RateParams(gamma, s, beta, d, n, m, transfer_p, transfer_q)
        assert_matches_reference(params, mode)

    @settings(max_examples=300, deadline=None)
    @given(
        beta=st.floats(min_value=0.05, max_value=1.0),
        d=st.integers(min_value=1, max_value=5),
        gamma_over=st.floats(min_value=0.01, max_value=2.0),
        s_frac=st.floats(min_value=0.01, max_value=0.99),
        n=st.integers(min_value=2, max_value=10**8),
        u=st.floats(min_value=0.0, max_value=1.0),
        transfer_p=T_VALUES,
        transfer_q=T_VALUES,
        mode=st.sampled_from(["exponents_only", "full"]),
    )
    def test_matches_the_references_in_the_window(
        self, beta, d, gamma_over, s_frac, n, u, transfer_p, transfer_q, mode
    ):
        # s < r_beta < gamma and m between n and n^(gamma/s), short of
        # overflow: accelerated
        rb = r_beta(beta, d)
        gamma, s = rb + gamma_over, s_frac * rb
        m = math.exp(min(math.log(n) * (1.0 + u * (gamma / s - 1.0)), 700.0))
        params = RateParams(gamma, s, beta, d, n, m, transfer_p, transfer_q)
        assert_matches_reference(params, mode)

    def test_small_samples_and_missing_t(self):
        for mode, (n, m), transfer_p, transfer_q, (gamma, s) in itertools.product(
            ("exponents_only", "full"),
            ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)),
            (None, 3.0),
            (None, 0.5),
            ((1.0, 0.2), (0.2, 1.0), (0.5, 0.5)),
        ):
            params = RateParams(gamma, s, 1.0, 1, n, m, transfer_p, transfer_q)
            assert_matches_reference(params, mode)

    # (gamma, s, beta, d, n, m, T_p, T_q), mode, then the report's
    # configuration, regime, driver, exponents and rate, worked by hand.
    # At beta = 1, d = 1, r_beta = 2/3; at d = 2 it is 1/2.
    TABLE = [
        # window [1e3, 1e15]; a = (2/3 - 1/5) / (4/5) = 7/12
        ((1.0, 0.2, 1.0, 1, 1e3, 1e4, None, None), "exponents_only",
         (SUPERCRITICAL, ACCELERATED, None, 7 / 12, 1 / 12, 10 ** (-25 / 12))),
        # window [1e4^(5/9), 1e4] = [166.8, 1e4] misses m = 100:
        # min(1e4^-1/2, 1e2^-2/3) = 1e-2
        ((0.5, 0.9, 1.0, 1, 1e4, 1e2, None, None), "exponents_only",
         (SUPERCRITICAL, WEDGE, SOURCE, 0.5, 2 / 3, 1e-2)),
        # m = 1e3 in it; a = (2/3 - 9/10) / (1/2 - 9/10) = 7/12
        ((0.5, 0.9, 1.0, 1, 1e4, 1e3, None, None), "exponents_only",
         (SUPERCRITICAL, ACCELERATED, None, 7 / 24, 3 / 8, 10 ** (-55 / 24))),
        # both below 2/3: min(1e4^-0.3, 1e2^-0.4) = 10^-1.2
        ((0.3, 0.4, 1.0, 1, 1e4, 1e2, None, None), "exponents_only",
         (SUBCRITICAL, WEDGE, SOURCE, 0.3, 0.4, 10**-1.2)),
        # both above 2/3: min(1e2^-2/3, 1e4^-2/3) = 10^(-8/3)
        ((0.9, 1.5, 1.0, 1, 1e2, 1e4, None, None), "exponents_only",
         (SUBCRITICAL, WEDGE, TARGET, 2 / 3, 2 / 3, 10 ** (-8 / 3))),
        # r_beta = 1/2, window [100, 1e16]; a = (1/2 - 1/4) / (2 - 1/4) = 1/7
        ((2.0, 0.25, 1.0, 2, 1e2, 1e3, None, None), "exponents_only",
         (SUPERCRITICAL, ACCELERATED, None, 2 / 7, 3 / 14, 10 ** (-17 / 14))),
        # the first row in full mode: 2^(7/12) 3^(5/12) (log 1e7 / 1e3)^(7/12)
        # (log 1e7 / 1e4)^(1/12)
        ((1.0, 0.2, 1.0, 1, 1e3, 1e4, 2.0, 3.0), "full",
         (SUPERCRITICAL, ACCELERATED, None, 7 / 12, 1 / 12,
          2 ** (7 / 12) * 3 ** (5 / 12) * (7 * math.log(10) / 1e3) ** (7 / 12)
          * (7 * math.log(10) / 1e4) ** (1 / 12))),
        # a wedge with T_q only: 3 (log 1e6 / 1e4)^(2/3)
        ((0.3, 0.4, 1.0, 1, 1e2, 1e4, None, 3.0), "full",
         (SUBCRITICAL, WEDGE, TARGET, 0.3, 0.4, 3 * (6 * math.log(10) / 1e4) ** 0.4)),
    ]

    @pytest.mark.parametrize("values, mode, want", TABLE)
    def test_hand_derived_table(self, values, mode, want):
        rep = theoretical_rate(RateParams(*values), mode=mode)
        config, regime, driver, src, tgt, rate = want
        assert (rep.configuration, rep.regime, rep.driver) == (config, regime, driver)
        assert rep.source_exp == pytest.approx(src, rel=1e-12, abs=0)
        assert rep.target_exp == pytest.approx(tgt, rel=1e-12, abs=0)
        assert rep.rate_value == pytest.approx(rate, rel=1e-12, abs=0)

    def test_unknown_mode(self):
        params = RateParams(1.0, 0.2, 1.0, 1, 10, 10)
        with pytest.raises(ValueError, match="^unknown mode 'log'$"):
            theoretical_rate(params, mode="log")


class TestPhaseGrid:
    def test_subcritical_grid_is_all_wedge(self):
        grid = phase_grid(
            1.0, 1, {"gamma": 0.5, "s": 0.5}, np.geomspace(10, 1e4, 8), np.geomspace(10, 1e4, 8)
        )
        for row in grid.reports:
            for rep in row:
                assert rep.regime == WEDGE

    def test_accelerated_region_fixed_nm(self):
        # n < m: cells with s < r_beta < gamma and s < gamma log n/log m
        n, m = 1000.0, 100_000.0
        grid = phase_grid(
            1.0, 1, {"n": n, "m": m}, np.linspace(0.7, 2.0, 12), np.linspace(0.05, 1.0, 12)
        )
        rb = 2.0 / 3.0
        ratio = math.log(n) / math.log(m)
        for i, gamma in enumerate(grid.axis1):
            for j, s in enumerate(grid.axis2):
                rep = grid.reports[i][j]
                expect = s < rb < gamma and s < gamma * ratio
                assert (rep.regime == ACCELERATED) == expect

    def test_boundary_lines_fixed_gamma_s(self):
        grid = phase_grid(1.0, 1, {"gamma": 1.0, "s": 0.2}, [10.0], [10.0])
        names = {ln.name: ln for ln in grid.boundary_lines}
        assert names["a(s)"].slope == (2.0 / 3.0) / 0.2
        assert names["b(s)"].slope == 5.0
        assert names["I"].slope == 1.0
        assert names["M"].slope == 1.5

    def test_bad_fixed_keys(self):
        with pytest.raises(ValueError):
            phase_grid(1.0, 1, {"gamma": 1.0}, [10], [10])


class TestPathRates:
    """Rates along the linear sample-size path (n, m) = (B^(1-lam), B^lam)."""

    @staticmethod
    def along_path(lam: float, budget: float = 1e6):
        n, m = budget ** (1.0 - lam), budget**lam
        return n, m, theoretical_rate(RateParams(1.0, 0.2, 1.0, 1, n, m))

    def test_lambda_zero_is_pure_source_wedge(self):
        n, m, rep = self.along_path(0.0)
        assert n == 1e6 and m == 1.0
        assert rep.regime == WEDGE
        assert math.isclose(rep.rate_value, (1e6) ** -(2.0 / 3.0), rel_tol=1e-12)

    def test_window_start_boundary_value(self):
        _, _, rep = self.along_path(0.5)
        assert rep.regime == ACCELERATED
        assert math.isclose(rep.rate_value, 1000.0 ** -(2.0 / 3.0), rel_tol=1e-12)

    def test_u_parametrisation_identity(self):
        gamma, s, beta, d = 1.0, 0.2, 1.0, 1
        rb = r_beta(beta, d)
        u = 0.5
        n = 5.0e4
        m = n ** ((u * gamma + (1 - u) * s) / s)
        rep = theoretical_rate(RateParams(gamma, s, beta, d, n, m))
        want = n ** -(rb + u * (gamma - rb))
        assert abs(rep.rate_value - want) <= 1e-10 * want

    def test_accelerated_never_above_wedge_along_path(self):
        rb = 2.0 / 3.0
        for lam in np.linspace(0, 1, 41).tolist():
            n, m, rep = self.along_path(lam)
            src = n ** -min(1.0, rb) if n > 0 else math.inf
            tgt = m ** -min(0.2, rb) if m > 0 else math.inf
            assert rep.rate_value <= min(src, tgt) * (1 + 1e-12)
