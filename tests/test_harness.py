import math
import threading
import warnings

import numpy as np
import pytest

from transfer_knn import harness
from transfer_knn.distributions import (
    Exponential,
    HolderFunction,
    NoiseSpec,
    ProductPareto,
    Uniform,
    holder_constant,
    holder_parabola,
)
from transfer_knn.errors import ConfigError, NumericError
from transfer_knn.estimator import NeighborFunctionConfig, _SortedSample1D, fit
from transfer_knn.harness import (
    ExperimentConfig,
    experiment_from_spec,
    fit_slope,
    generate_data,
    mc_excess_risk,
    neighbor_radius_concentration,
    regime_experiment,
    sweep,
)

CFG = NeighborFunctionConfig(beta=1.0, d=1)
UNI = Uniform(0.0, 1.0)
# Floats 1 apart at 2^52, so every draw is one of 65 integers: tied
# coordinates and tied boundary distances.
TIED = Uniform(2.0**52, 2.0**52 + 64.0)


def small_config(**overrides):
    base = dict(
        source=None,
        target=UNI,
        f_star=holder_parabola(),
        noise=NoiseSpec(0.5),
        estimator=CFG,
        n_grid=(0,),
        m_grid=(64, 128),
        reps=3,
        n_test=128,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateData:
    def test_zero_noise_exact_labels(self):
        rng = np.random.default_rng(0)
        X, y = generate_data(UNI, holder_parabola(), NoiseSpec(0.0), 100, rng)
        assert np.array_equal(y, X[:, 0] * (1 - X[:, 0]))

    def test_noise_variance(self):
        rng = np.random.default_rng(1)
        _, y = generate_data(UNI, holder_constant(0.0), NoiseSpec(1.0), 100_000, rng)
        assert abs(float(np.var(y)) - 1.0) <= 0.02

    def test_determinism(self):
        a = generate_data(UNI, holder_parabola(), NoiseSpec(0.3), 50, np.random.default_rng(9))
        b = generate_data(UNI, holder_parabola(), NoiseSpec(0.3), 50, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestMcExcessRisk:
    def test_perfect_estimator(self):
        rng = np.random.default_rng(2)
        X, y = generate_data(UNI, holder_constant(3.0), NoiseSpec(0.0), 64, rng)
        est = fit(None, (X, y), CFG)
        assert mc_excess_risk(est, holder_constant(3.0), UNI, 500, rng) == 0.0

    def test_constant_offset(self):
        # f_hat == c against f_star == 0: risk concentrates at c^2
        rng = np.random.default_rng(3)
        c = 1.7
        X, y = generate_data(UNI, holder_constant(c), NoiseSpec(0.0), 128, rng)
        est = fit(None, (X, y), CFG)
        n_test = 4096
        risk = mc_excess_risk(est, holder_constant(0.0), UNI, n_test, rng)
        assert abs(risk - c * c) <= 3 * c * c / math.sqrt(n_test)

    def test_single_test_point(self):
        rng = np.random.default_rng(4)
        X, y = generate_data(UNI, holder_constant(0.0), NoiseSpec(0.5), 64, rng)
        est = fit(None, (X, y), CFG)
        risk = mc_excess_risk(est, holder_constant(0.0), UNI, 1, rng)
        assert risk >= 0.0

    def test_unbiased_across_batch_sizes(self):
        rng = np.random.default_rng(5)
        X, y = generate_data(UNI, holder_parabola(), NoiseSpec(0.5), 256, rng)
        est = fit(None, (X, y), CFG)
        small = np.array(
            [
                mc_excess_risk(est, holder_parabola(), UNI, 1000, np.random.default_rng(100 + i))
                for i in range(100)
            ]
        )
        big = mc_excess_risk(est, holder_parabola(), UNI, 100_000, np.random.default_rng(999))
        se_small = float(np.std(small, ddof=1) / 10.0)
        # a crude stderr for the big evaluation from the small spread
        se_big = float(np.std(small, ddof=1) / math.sqrt(100_000 / 1000))
        assert abs(float(small.mean()) - big) <= 3 * math.hypot(se_small, se_big)


class TestSweep:
    def test_single_cell_single_rep(self):
        result = sweep(small_config(m_grid=(64,), reps=1))
        assert len(result.estimates) == 1
        est = result.estimates[0]
        assert est.stderr == 0.0 and est.mean >= 0

    def test_bitwise_determinism(self):
        a = sweep(small_config())
        b = sweep(small_config())
        assert a == b

    def test_thread_count_invariance(self):
        a = sweep(small_config(), threads=1)
        b = sweep(small_config(), threads=4)
        assert a == b

    def test_estimates_align_with_records(self):
        result = sweep(small_config())
        for est in result.estimates:
            risks = [r.risk for r in result.records if (r.n, r.m) == (est.n, est.m)]
            assert math.isclose(est.mean, float(np.mean(risks)), rel_tol=1e-15)
            assert math.isclose(est.q50, float(np.quantile(risks, 0.5)), rel_tol=1e-15)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_thread_count_invariance_2d(self, threads):
        cfg = small_config(
            source=ProductPareto(1.0, 1.0, 2),
            target=ProductPareto(2.0, 1.0, 2),
            f_star=holder_constant(0.0, 2),
            estimator=NeighborFunctionConfig(beta=1.0, d=2),
            n_grid=(64, 256),
            m_grid=(32,),
            reps=3,
            n_test=64,
        )
        assert sweep(cfg, threads=threads) == sweep(cfg, threads=1)

    def test_largest_cell_reps_start_first(self, monkeypatch):
        # A test batch of half the row budget gives blocks of two reps:
        # cell m = 128 runs as blocks [0, 1] and [2].
        cfg = small_config(m_grid=(32, 64, 128), n_test=harness._BLOCK_ROWS // 2)
        assert harness._block_size(cfg, 0, 128) == 2
        want = sweep(cfg)
        started = []
        lock = threading.Lock()
        # The first two blocks each wait until both have started, so the
        # two that start first are the two that the pool dequeued first.
        both = threading.Barrier(2, timeout=30)
        original = harness._run_rep

        def recording(config, ci, n, m, reps):
            with lock:
                started.append((n, m, tuple(reps)))
                first = len(started) <= 2
            if first:
                both.wait()
            return original(config, ci, n, m, reps)

        monkeypatch.setattr(harness, "_run_rep", recording)
        assert sweep(cfg, threads=2) == want
        assert sorted(started[:2]) == [(0, 128, (0, 1)), (0, 128, (2,))]
        assert sorted(started) == sorted(
            (0, m, reps) for m in (32, 64, 128) for reps in ((0, 1), (2,))
        )

    def test_failure_names_first_failing_rep_in_cell_order(self, monkeypatch):
        # The large cell's block starts, and fails, first; the error still
        # names the small cell's first rep.
        original = harness.fit

        def failing_fit(source, target, config):
            if np.shape(target[1])[-1] in (32, 128):
                raise FloatingPointError("overflow in the density step")
            return original(source, target, config)

        monkeypatch.setattr(harness, "fit", failing_fit)
        want = r"cell \(n=0, m=32\), rep 0: overflow in the density step$"
        with pytest.raises(NumericError, match=want):
            sweep(small_config(m_grid=(32, 64, 128)), threads=2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_inside_a_block_names_that_rep(self, monkeypatch, threads):
        # Reps 5 and 6 of cell m = 32 fail as they draw, and so does rep 0
        # of the larger cell m = 64, which starts first on two threads.
        # Each cell is one block of 8 reps; the error names rep 5.
        cfg = small_config(m_grid=(16, 32, 64), reps=8)
        assert harness._block_size(cfg, 0, 64) >= 8
        bad = {
            harness._rep_rng(cfg.seed, ci, rep, 1).bit_generator.state["state"]["state"]
            for ci, rep in ((1, 5), (1, 6), (2, 0))
        }
        original = harness.generate_data

        def generate(family, f_star, noise, n, rng):
            if rng.bit_generator.state["state"]["state"] in bad:
                raise FloatingPointError("overflow in the draw")
            return original(family, f_star, noise, n, rng)

        monkeypatch.setattr(harness, "generate_data", generate)
        want = r"cell \(n=0, m=32\), rep 5: overflow in the draw$"
        with pytest.raises(NumericError, match=want):
            sweep(cfg, threads=threads)

    def test_non_finite_risk_inside_a_block_names_that_rep(self):
        # f_star is NaN at rep 3's first test point only, so only the
        # block's risk reduction sees the failure.
        cfg = small_config(m_grid=(64,), reps=6)
        point = UNI.sample_array(harness._rep_rng(cfg.seed, 0, 3, 2), cfg.n_test)[0, 0]
        assert harness._block_size(cfg, 0, 64) >= 6

        def parabola_with_a_hole(X):
            u = np.clip(X[:, 0], 0.0, 1.0)
            return np.where(X[:, 0] == point, np.nan, u * (1.0 - u))

        f_star = HolderFunction(fn=parabola_with_a_hole)
        want = r"cell \(n=0, m=64\), rep 3: the mean squared prediction error is nan, not finite$"
        with pytest.raises(NumericError, match=want):
            sweep(small_config(m_grid=(64,), reps=6, f_star=f_star))
        # The same sweep with the plain parabola runs through.
        assert len(sweep(cfg).records) == 6

    @pytest.mark.parametrize("reps", [2, 5, 37])
    def test_estimates_are_each_cells_own_reduction(self, monkeypatch, reps):
        # Risks spread over many magnitudes, so that a sum in another
        # order or grouping than each cell's own would show in the bits.
        def synthetic(config, ci, n, m, reps):
            rngs = [np.random.default_rng((ci, rep)) for rep in reps]
            return [
                harness.RepRecord(n, m, rep, float(rng.lognormal(0.0, 4.0)), rep)
                for rep, rng in zip(reps, rngs)
            ]

        monkeypatch.setattr(harness, "_run_rep", synthetic)
        result = sweep(small_config(m_grid=(16, 32, 64, 128), reps=reps))
        assert len(result.estimates) == 4
        for ci, est in enumerate(result.estimates):
            risks = np.array([r.risk for r in result.records[ci * reps : (ci + 1) * reps]])
            want = (
                float(np.mean(risks)),
                float(np.std(risks, ddof=1) / math.sqrt(reps)),
                float(np.quantile(risks, 0.5)),
                float(np.quantile(risks, 0.9)),
            )
            got = (est.mean, est.stderr, est.q50, est.q90)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_source_cells_use_source_family(self):
        cfg = small_config(
            source=Exponential(2.0), n_grid=(32, 64), m_grid=(0,), reps=2
        )
        result = sweep(cfg)
        assert [e.n for e in result.estimates] == [32, 64]

    def test_rep_streams_are_the_spawned_children(self, monkeypatch):
        # The source, target and test draws of rep r in cell c start where
        # children 0, 1 and 2 of SeedSequence(seed, spawn_key=(c, r)) start,
        # though each rep builds only the generators it draws from.  A
        # block draws its reps one after another.
        states = []
        real_generate, real_sample = harness.generate_data, Uniform.sample_array
        cfg = small_config(source=Exponential(2.0), n_grid=(0, 32), m_grid=(16,), reps=2)

        def generate(family, f_star, noise, n, rng):
            states.append(("source" if n == 32 else "target", rng.bit_generator.state))
            return real_generate(family, f_star, noise, n, rng)

        def sample(self, rng, n):
            if n == cfg.n_test:
                states.append(("test", rng.bit_generator.state))
            return real_sample(self, rng, n)

        monkeypatch.setattr(harness, "generate_data", generate)
        monkeypatch.setattr(Uniform, "sample_array", sample)
        sweep(cfg)
        want = []
        for cell, (n, m) in enumerate(cfg.cells()):
            for rep in range(2):
                key = np.random.SeedSequence(cfg.seed, spawn_key=(cell, rep))
                children = [np.random.default_rng(c).bit_generator.state for c in key.spawn(3)]
                want += [("source", children[0])] * (n > 0) + [("target", children[1])] * (m > 0)
                want.append(("test", children[2]))
        assert len(want) == 10  # a target-only cell and a two-sample one, 2 reps each
        assert states == want

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(m_grid=(64, 256), reps=37, n_test=2000), id="target-only-37"),
            pytest.param(
                dict(
                    source=Exponential(2.0),
                    target=Exponential(1.0),
                    n_grid=(128, 512),
                    m_grid=(0,),
                    reps=5,
                ),
                id="source-only",
            ),
            pytest.param(
                dict(source=Exponential(2.0), n_grid=(64,), m_grid=(32, 128), reps=6),
                id="two-sample",
            ),
            # The tree fallback runs inside a block.
            pytest.param(dict(target=TIED, m_grid=(40, 80), reps=7), id="ties"),
            pytest.param(
                dict(
                    source=ProductPareto(1.0, 1.0, 2),
                    target=ProductPareto(2.0, 1.0, 2),
                    f_star=holder_constant(0.25, 2),
                    estimator=NeighborFunctionConfig(beta=1.0, d=2),
                    n_grid=(64,),
                    m_grid=(32,),
                    reps=3,
                    n_test=50,
                ),
                id="d2",
            ),
            pytest.param(dict(m_grid=(64,), reps=1), id="one-rep"),
            pytest.param(
                dict(m_grid=(32,), reps=2, n_test=harness._BLOCK_ROWS), id="one-rep-blocks"
            ),
        ],
    )
    def test_records_equal_a_rep_by_rep_loop(self, overrides, monkeypatch):
        cfg = small_config(**overrides)
        # Each block is fitted once, as one stack: a block that failed and
        # ran again rep by rep would show as more, smaller fits.
        stacks, trees = [], []
        real_fit, real_tree = harness.fit, _SortedSample1D._tree_sample

        def recording_fit(source, target, config):
            est = real_fit(source, target, config)
            stacks.append(est.reps)
            return est

        def recording_tree(sample, rep):
            trees.append(sample.reps)
            return real_tree(sample, rep)

        monkeypatch.setattr(harness, "fit", recording_fit)
        monkeypatch.setattr(_SortedSample1D, "_tree_sample", recording_tree)
        got = sweep(cfg)
        sizes = [harness._block_size(cfg, n, m) for n, m in cfg.cells()]
        assert stacks == [
            min(size, cfg.reps - first) for size in sizes for first in range(0, cfg.reps, size)
        ]
        # The tie rows' tree path ran inside a block of several reps.
        assert any(reps > 1 for reps in trees) == (cfg.target is TIED)
        want = []
        for ci, (n, m) in enumerate(cfg.cells()):
            for rep in range(cfg.reps):
                key = np.random.SeedSequence(cfg.seed, spawn_key=(ci, rep))
                rng_source, rng_target, rng_test = (np.random.default_rng(c) for c in key.spawn(3))
                source = target = None
                if n:
                    source = generate_data(cfg.source, cfg.f_star, cfg.noise, n, rng_source)
                if m:
                    target = generate_data(cfg.target, cfg.f_star, cfg.noise, m, rng_target)
                est = fit(source, target, cfg.estimator)
                Xq = cfg.target.sample_array(rng_test, cfg.n_test)
                risk = float(np.mean((est.predict_batch(Xq)[0] - cfg.f_star(Xq)) ** 2))
                seed = int(key.generate_state(1, dtype=np.uint64)[0])
                want.append(harness.RepRecord(n, m, rep, risk, seed))
        assert got.records == tuple(want)
        risks = np.array([r.risk for r in got.records])
        assert risks.tobytes() == np.array([r.risk for r in want]).tobytes()
        if cfg.estimator.d == 1 and cfg.reps > 1:
            assert sweep(cfg, threads=2) == got


class TestFitSlope:
    def test_exact_power_law(self):
        sizes = np.array([256, 512, 1024, 2048, 4096])
        risks = sizes ** (-2.0 / 3.0)
        sf = fit_slope(sizes, risks)
        assert abs(sf.slope + 2.0 / 3.0) <= 1e-10
        assert sf.slope_ci_halfwidth <= 1e-9
        assert sf.r_squared >= 1 - 1e-12

    def test_constant_risk(self):
        sf = fit_slope([10, 100, 1000], [0.5, 0.5, 0.5])
        assert abs(sf.slope) <= 1e-12

    def test_noisy_power_law(self):
        rng = np.random.default_rng(6)
        sizes = np.geomspace(100, 10**5, 12)
        risks = sizes**-0.5 * (1 + 0.01 * rng.standard_normal(12))
        sf = fit_slope(sizes, risks)
        assert -0.52 <= sf.slope <= -0.48

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([1, 2], [1.0, 0.5])
        with pytest.raises(ValueError):
            fit_slope([1, 2, 3], [0.5, -0.1, 0.2])
        # No slope through one size: refused before any division warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = r"^sizes must not all be equal, got \[10\.0, 10\.0, 10\.0\]$"
            with pytest.raises(ValueError, match=want):
                fit_slope([10, 10, 10], [1, 2, 3])


class TestRegimeExperiment:
    def test_target_only_classical_exponent(self):
        cfg = small_config(
            m_grid=(64, 128, 256, 512, 1024, 2048), reps=8, n_test=512
        )
        report = regime_experiment(cfg, 1.0, 0.9)
        assert report.axis == "m"
        assert math.isclose(report.theory_slope, -2.0 / 3.0, rel_tol=1e-6)
        assert not report.degenerate
        # loose sanity only; the acceptance suite gates the real windows
        assert -1.0 <= report.fitted.slope <= -0.3

    def test_degenerate_zero_risk(self):
        cfg = small_config(
            f_star=holder_constant(0.0),
            noise=NoiseSpec(0.0),
            m_grid=(32, 64, 128, 256, 512, 1024),
            reps=1,
            n_test=16,
        )
        report = regime_experiment(cfg, 1.0, 0.9)
        assert report.degenerate and report.fitted is None

    def test_both_grids_varying_rejected(self):
        cfg = small_config(
            source=UNI, n_grid=(64, 256, 1024, 4096), m_grid=(16, 4096)
        )
        with pytest.raises(ValueError, match="n_grid, m_grid"):
            regime_experiment(cfg, 1.0, 0.9)

    def test_theory_slope_follows_estimator_d(self):
        # r_beta = 2 beta / (2 beta + d) = 1/2 at d = 2, where d = 1 gives 2/3.
        cfg = small_config(
            target=ProductPareto(2.0, 1.0, 2),
            f_star=holder_constant(0.25, 2),
            estimator=NeighborFunctionConfig(beta=1.0, d=2),
            m_grid=(64, 256, 1024, 4096),
            reps=2,
            n_test=64,
        )
        report = regime_experiment(cfg, 1.0, 0.9)
        assert math.isclose(report.theory_slope, -0.5, rel_tol=1e-6)

    def test_narrow_grid_rejected(self, monkeypatch):
        def no_rep(*args):
            raise AssertionError("a rep ran before the grid was checked")

        monkeypatch.setattr(harness, "_run_rep", no_rep)
        for grids, match in (
            (dict(m_grid=(64, 128)), "1.5 decades"),
            (dict(source=UNI, n_grid=(64,), m_grid=(0, 64, 256, 1024, 4096)), "m_grid"),
        ):
            with pytest.raises(ValueError, match=match):
                regime_experiment(small_config(**grids), 1.0, 0.9)


class TestConcentration:
    def test_uniform_small_scale(self):
        n = 1000
        k = 5 * math.ceil(math.log(n))
        hits = neighbor_radius_concentration(
            UNI, n, k, 4.0 * k / n, np.linspace(0.01, 0.99, 50)[:, None], 20, 7
        )
        assert hits >= 19


class TestExperimentSpec:
    SPEC = {
        "source": {"family": "exponential", "lambda": 2.0},
        "target": {"family": "exponential", "lambda": 1.0},
        "f_star": {"name": "parabola"},
        "noise": {"type": "gaussian", "sigma_e": 0.5},
        "estimator": {"beta": 1.0, "d": 1},
        "n_grid": [32, 64],
        "m_grid": [0],
        "reps": 2,
        "n_test": 64,
        "seed": 11,
    }

    def test_parse(self):
        cfg = experiment_from_spec(self.SPEC)
        assert cfg.source == Exponential(2.0)
        assert cfg.reps == 2

    def test_unknown_field_named(self):
        bad = dict(self.SPEC, extra=1)
        with pytest.raises(ConfigError) as err:
            experiment_from_spec(bad)
        assert "extra" in str(err.value)

    def test_missing_field_named(self):
        bad = {k: v for k, v in self.SPEC.items() if k != "seed"}
        with pytest.raises(ConfigError) as err:
            experiment_from_spec(bad)
        assert "seed" in str(err.value)

    def test_null_source_with_positive_n_rejected(self):
        bad = dict(self.SPEC, source=None)
        with pytest.raises(ConfigError):
            experiment_from_spec(bad)

    def test_zero_cell_rejected(self):
        bad = dict(self.SPEC, n_grid=[0, 32], m_grid=[0, 8])
        with pytest.raises(ConfigError) as err:
            experiment_from_spec(bad)
        assert err.value.field == "n_grid, m_grid"

    def test_integer_fields_not_truncated(self):
        cfg = experiment_from_spec(dict(self.SPEC, n_grid=[32.0, 64], reps=2.0))
        assert cfg.n_grid == (32, 64) and cfg.reps == 2
        assert all(type(v) is int for v in cfg.n_grid + (cfg.reps,))
        for key, value in (("n_grid", [32, 64.5]), ("reps", True), ("n_test", "64")):
            with pytest.raises(ConfigError) as err:
                experiment_from_spec(dict(self.SPEC, **{key: value}))
            assert err.value.field == key
