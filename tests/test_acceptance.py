"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line (visible with pytest -s) and fails
loudly otherwise.  Statistical criteria use the frozen seeds below; the
runtime budgets are asserted, not just aspired to.
"""

import json
import math
import time

import numpy as np

from conftest import brute_force_knn, quadrature_transfer
from transfer_knn.cli import run
from transfer_knn.distributions import (
    Exponential,
    LogPareto,
    NoiseSpec,
    Pareto,
    Uniform,
    closed_form_indices,
    holder_parabola,
    local_mass_check,
)
from transfer_knn.estimator import NeighborFunctionConfig, fit, pointwise_error_split
from transfer_knn.geom import NeighborIndex
from transfer_knn.harness import (
    ExperimentConfig,
    fit_slope,
    neighbor_radius_concentration,
    regime_experiment,
    sweep,
)
from transfer_knn.rates import (
    ACCELERATED,
    RateParams,
    acceleration_window,
    lower_bound_rate,
    r_beta,
    theoretical_rate,
)
from transfer_knn.transfer import estimate_index, transfer_value

SEED = 20240801
GAMMA_GRID = [round(0.05 * i, 10) for i in range(21)]


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.seconds}s"
            )
            print(
                f"ACCEPTANCE {self.number} ({self.name}): PASS "
                f"[{elapsed:.1f}s < {self.seconds:.0f}s]"
            )
        else:
            print(f"ACCEPTANCE {self.number} ({self.name}): FAIL")
        return False


def test_criterion_1_closed_form_index_agreement():
    with _Budget(1, "closed-form index agreement", 10):
        assert closed_form_indices(Pareto(1, 1), Pareto(1, 1)) == (0.5, 0.5)
        assert closed_form_indices(Exponential(2.0), Exponential(1.0)) == (0.5, 1.0)
        for P, Q, gamma_star, s_star in [
            (Pareto(1, 1), Pareto(1, 1), 0.5, 0.5),
            (Exponential(2.0), Exponential(1.0), 0.5, 1.0),
        ]:
            est = estimate_index(P, Q, GAMMA_GRID)
            assert est.lower_confirmed <= gamma_star <= est.upper_confirmed
            est_s = estimate_index(Q, Q, GAMMA_GRID)
            assert est_s.lower_confirmed <= s_star <= est_s.upper_confirmed


def test_criterion_2_transfer_numerics():
    with _Budget(2, "transfer numerics", 30):
        pairs = [
            (Pareto(1, 1), Pareto(1, 1), 0.5),
            (Exponential(2.0), Exponential(1.0), 0.5),
        ]
        for P, Q, gamma_star in pairs:
            assert transfer_value(P, Q, 0.0).value == 1.0
            grid = [frac * gamma_star for frac in np.arange(0.1, 0.91, 0.1)]
            values = {}
            for g in grid:
                cf = transfer_value(P, Q, g)
                qd_value, _, qd_converged = quadrature_transfer(P, Q, g)
                assert cf.method == "closed_form"
                assert qd_converged and cf.converged
                assert abs(qd_value - cf.value) <= 1e-6 * cf.value
                values[g] = qd_value
            # interpolation bound T(g) <= T(s)^(g/s) on the converged grid
            for g in grid:
                for s in grid:
                    if g <= s:
                        assert values[g] <= values[s] ** (g / s) + 1e-8
            # log-convexity across consecutive converged triples
            logs = [math.log(values[g]) for g in grid]
            for i in range(len(grid) - 2):
                g1, g2, g3 = grid[i : i + 3]
                chord = logs[i] + (logs[i + 2] - logs[i]) * (g2 - g1) / (g3 - g1)
                assert logs[i + 1] <= chord + 1e-8


def test_criterion_3_log_pareto_dichotomy():
    with _Budget(3, "borderline transfer dichotomy", 30):
        a = 1.0
        b = 1.0
        gamma_star = b / (a + 1.0)
        source = LogPareto(a, a, 0.0)  # power-law density 1/x^(a+1) on [2, oo)
        heavy_log = transfer_value(source, LogPareto(a, b, 2.0), gamma_star)
        assert heavy_log.converged and math.isfinite(heavy_log.value)
        light_log = transfer_value(source, LogPareto(a, b, 0.5), gamma_star)
        assert not light_log.converged and light_log.value == math.inf


def test_criterion_4_rate_calculus_identities():
    with _Budget(4, "rate-calculus identities", 5):
        rng = np.random.default_rng(SEED)
        for _ in range(10_000):
            gamma = float(rng.uniform(0.05, 3.0))
            s = float(rng.uniform(0.05, 1.0))
            beta = float(rng.uniform(0.05, 1.0))
            d = int(rng.integers(1, 5))
            n = float(rng.integers(2, 10**6))
            m = float(rng.integers(0, 10**6))
            params = RateParams(gamma, s, beta, d, n, m)
            rep = theoretical_rate(params)
            if rep.regime == ACCELERATED:
                assert abs(rep.source_exp + rep.target_exp - rep.r_beta) <= 1e-12
            assert math.isclose(
                rep.rate_value, lower_bound_rate(params), rel_tol=1e-12
            )
        # boundary continuity and strict dominance on supercritical draws
        for _ in range(400):
            beta = float(rng.uniform(0.1, 1.0))
            d = int(rng.integers(1, 4))
            rb = r_beta(beta, d)
            gamma = float(rng.uniform(rb * 1.05, 3.0))
            s = float(rng.uniform(0.05, rb * 0.95))
            n = float(rng.integers(10, 10**5))
            wedge = lambda nn, mm: min(
                nn ** -min(gamma, rb), mm ** -min(s, rb) if mm > 0 else math.inf
            )
            lo, hi = acceleration_window(n, gamma, s)
            for m_edge in (edge for edge in (lo, hi) if math.isfinite(edge)):
                rep = theoretical_rate(RateParams(gamma, s, beta, d, n, m_edge))
                assert rep.regime == ACCELERATED
                assert math.isclose(rep.rate_value, wedge(n, m_edge), rel_tol=1e-9)
            m_in = math.sqrt(lo * min(hi, 1e15))
            if lo * 1.01 < m_in < hi * 0.99:
                rep = theoretical_rate(RateParams(gamma, s, beta, d, n, m_in))
                assert rep.regime == ACCELERATED
                assert rep.rate_value < wedge(n, m_in)


def test_criterion_5_estimator_oracles():
    with _Budget(5, "estimator oracles", 60):
        rng = np.random.default_rng(SEED)
        cfg = NeighborFunctionConfig(beta=1.0, d=1)
        # two-sample with m = 0 reduces exactly to one-sample
        for _ in range(100):
            n = int(rng.integers(3, 120))
            X = rng.standard_normal((n, 1))
            y = rng.standard_normal(n)
            x = rng.standard_normal(1)
            two = fit((X, y), (np.empty((0, 1)), np.empty(0)), cfg)
            one = fit((X, y), None, cfg)
            assert two.predict_batch([x])[0][0] == one.predict_batch([x])[0][0]

        # index kNN agrees exactly with the brute-force oracle
        for d in (1, 2, 3):
            pts = rng.standard_normal((500, d))
            index = NeighborIndex(pts)
            queries = rng.standard_normal((340, d))
            ks = rng.integers(1, 40, size=len(queries))
            for x, k in zip(queries, ks):
                dist, ind = index.query_batch(x[None, :], int(k))
                got = list(zip(ind[0].tolist(), dist[0].tolist()))
                want = brute_force_knn(pts, x, int(k))
                assert got == want

        # clamp envelope at 10^4 queries
        n, m = 800, 600
        est = fit(
            (rng.random((n, 1)), rng.standard_normal(n)),
            (rng.random((m, 1)), rng.standard_normal(m)),
            cfg,
        )
        lower = math.ceil(est.joint_log)
        queries = rng.random((10_000, 1))
        _, k_p, k_q, _, _ = est.predict_batch(queries)
        assert np.all((lower <= k_p) & (k_p <= n))
        assert np.all((lower <= k_q) & (k_q <= m))

        # convexity inequality of the pointwise error split at every query
        f = holder_parabola()
        for x in rng.random(1000):
            lhs, rhs = pointwise_error_split(est, [x], f)
            assert lhs <= rhs + 1e-12


def test_criterion_6_classical_rate_reproduction():
    with _Budget(6, "classical target-only rate", 300):
        config = ExperimentConfig(
            source=None,
            target=Uniform(0.0, 1.0),
            f_star=holder_parabola(),
            noise=NoiseSpec(0.5),
            estimator=NeighborFunctionConfig(beta=1.0, d=1),
            n_grid=(0,),
            m_grid=(256, 512, 1024, 2048, 4096, 8192),
            reps=100,
            n_test=2000,
            seed=SEED,
        )
        result = sweep(config)
        sizes = [e.m for e in result.estimates]
        risks = [e.mean for e in result.estimates]
        slope = fit_slope(sizes, risks)
        print(
            f"  criterion 6 detail: slope {slope.slope:.4f} "
            f"+- {slope.slope_ci_halfwidth:.4f} vs theory {-2/3:.4f}"
        )
        assert -0.80 <= slope.slope <= -0.52


def test_criterion_7_transfer_rate_reproduction():
    with _Budget(7, "source-only transfer rate", 480):
        config = ExperimentConfig(
            source=Exponential(2.0),
            target=Exponential(1.0),
            f_star=holder_parabola(),
            noise=NoiseSpec(0.5),
            estimator=NeighborFunctionConfig(beta=1.0, d=1),
            n_grid=(512, 1024, 2048, 4096, 8192, 16384),
            m_grid=(0,),
            reps=100,
            n_test=2000,
            seed=SEED,
        )
        # gamma* = lambda_Q/lambda_P = 0.5 < r_beta = 2/3: theory slope -1/2
        gamma_star, s_star = closed_form_indices(config.source, config.target)
        report = regime_experiment(config, gamma_star, s_star)
        slope = report.fitted
        print(
            f"  criterion 7 detail: slope {slope.slope:.4f} "
            f"+- {slope.slope_ci_halfwidth:.4f} vs theory {report.theory_slope:.4f} "
            f"(discrepancy {report.discrepancy:.4f}, not gated beyond the window)"
        )

        # Joint two-sample experiment spanning the acceleration window;
        # reported, never gated: the accelerated exponent is not reliably
        # separable from the wedge exponent at desk scale.
        joint = ExperimentConfig(
            source=Exponential(4.0),
            target=Exponential(1.0),
            f_star=holder_parabola(),
            noise=NoiseSpec(0.5),
            estimator=NeighborFunctionConfig(beta=1.0, d=1),
            n_grid=(512, 1024, 2048, 4096, 8192, 16384),
            m_grid=(2048,),
            reps=25,
            n_test=2000,
            seed=SEED,
        )
        gamma_star, s_star = closed_form_indices(joint.source, joint.target)
        joint_report = regime_experiment(joint, gamma_star, s_star)
        print(
            f"  criterion 7 joint-slope report (ungated): slope "
            f"{joint_report.fitted.slope:.4f} vs theory {joint_report.theory_slope:.4f}; "
            f"regimes along n: {', '.join(joint_report.regimes)}"
        )
        assert -0.68 <= slope.slope <= -0.33


def test_criterion_8_regularity_diagnostics():
    with _Budget(8, "regularity diagnostics", 120):
        for dist, theta in [
            (Pareto(1.0, 1.0), Pareto(1.0, 1.0).local_mass_theta),
            (Exponential(1.0), math.exp(1.0)),
        ]:
            xs = [float(dist.ppf((i + 0.5) / 50)) for i in range(50)]
            rs = [(j + 1) / 20 for j in range(20)]
            report = local_mass_check(dist, theta, xs, rs)
            assert report.passed and report.n_checked == 1000

        n = 5000
        k = 5 * math.ceil(math.log(n))
        grid = ((np.arange(200) + 0.5) / 200)[:, None]
        hits = neighbor_radius_concentration(
            Uniform(0.0, 1.0), n, k, 4.0 * k / n, grid, 100, SEED
        )
        print(f"  criterion 8 detail: concentration event in {hits}/100 trials")
        assert hits >= 95


def test_criterion_9_determinism_and_io(tmp_path):
    with _Budget(9, "determinism and I/O", 10):
        config = {
            "source": None,
            "target": {"family": "uniform", "a": 0.0, "b": 1.0},
            "f_star": {"name": "parabola"},
            "noise": {"type": "gaussian", "sigma_e": 0.5},
            "estimator": {"beta": 1.0, "d": 1},
            "n_grid": [0],
            "m_grid": [64, 128],
            "reps": 3,
            "n_test": 128,
            "seed": SEED,
        }
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert run(["sweep", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("sweep_reps.csv", "sweep_aggregate.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(config, mystery_knob=3)))
        out_c = tmp_path / "c"
        code = run(["sweep", "--config", str(bad), "--out", str(out_c)])
        assert code == 1
        assert not list(out_c.glob("*"))

        broken = tmp_path / "broken.json"
        broken.write_text("{this is not json")
        out_d = tmp_path / "d"
        assert run(["sweep", "--config", str(broken), "--out", str(out_d)]) == 1
        assert not list(out_d.glob("*"))
