"""Monte Carlo experiments: data generation, risk estimation, sweeps.

Excess risk is measured in L2 of the target law: fresh target draws are
scored against the true regression function.  Every (cell, rep) task
owns an RNG stream spawned from the master seed keyed by its indices,
so results are bitwise reproducible regardless of execution order or
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DistributionFamily,
    HolderFunction,
    NoiseSpec,
    family_from_spec,
    holder_from_spec,
    noise_from_spec,
    zeta,
)
from .errors import (
    ConfigError,
    NumericError,
    config_dimension,
    config_integer,
    config_number,
    config_object,
)
from .estimator import NeighborFunctionConfig, TrainedEstimator, fit
from .geom import NeighborIndex
from .rates import RateParams, theoretical_rate


@dataclass(frozen=True)
class ExperimentConfig:
    source: DistributionFamily | None
    target: DistributionFamily
    f_star: HolderFunction
    noise: NoiseSpec
    estimator: NeighborFunctionConfig
    n_grid: tuple
    m_grid: tuple
    reps: int
    n_test: int
    seed: int

    def __post_init__(self):
        for name, grid in (("n_grid", self.n_grid), ("m_grid", self.m_grid)):
            if len(grid) == 0:
                raise ConfigError(name, "must be nonempty")
            if any(g < 0 for g in grid):
                raise ConfigError(name, "entries must be nonnegative")
            if list(grid) != sorted(set(grid)):
                raise ConfigError(name, "must be strictly increasing")
        if 0 in self.n_grid and 0 in self.m_grid:
            raise ConfigError(
                "n_grid, m_grid", "both contain 0, so the (0, 0) cell has no sample"
            )
        for name, value, least in (
            ("reps", self.reps, 1),
            ("n_test", self.n_test, 1),
            ("seed", self.seed, 0),
        ):
            if value < least:
                raise ConfigError(name, f"must be at least {least}, got {value}")
        if self.source is None and any(g > 0 for g in self.n_grid):
            raise ConfigError("source", "required when n_grid has an entry > 0")

    def cells(self):
        return [(n, m) for n in self.n_grid for m in self.m_grid]


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float
    n: int
    m: int
    q50: float
    q90: float


@dataclass(frozen=True)
class RepRecord:
    n: int
    m: int
    rep: int
    risk: float
    seed: int


@dataclass(frozen=True)
class SweepResult:
    estimates: tuple
    records: tuple


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    slope_ci_halfwidth: float
    r_squared: float


def generate_data(
    dist: DistributionFamily,
    f_star: HolderFunction,
    noise: NoiseSpec,
    n: int,
    rng: np.random.Generator,
):
    """n draws of (X, Y) with Y = f_*(X) + eps, eps independent of X."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    X = dist.sample_array(rng, n)
    return X, f_star(X) + noise.sample(rng, n)


def mc_excess_risk(
    fitted: TrainedEstimator,
    f_star: HolderFunction,
    Q: DistributionFamily,
    n_test: int,
    rng: np.random.Generator,
) -> float:
    """Average squared prediction error over fresh target draws.

    Raises ValueError when the average is not a finite float.
    """
    if n_test < 1:
        raise ValueError("n_test must be at least 1")
    Xq = Q.sample_array(rng, n_test)
    preds = fitted.predict_batch(Xq)[0]
    # Finite labels can still give an error whose square overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        risk = float(np.mean((preds - f_star(Xq)) ** 2))
    if not math.isfinite(risk):
        raise ValueError(f"the mean squared prediction error is {risk!r}, not finite")
    return risk


def _rep_rng(seed: int, cell_idx: int, rep: int, child: int) -> np.random.Generator:
    """The generator of stream child (0 source, 1 target, 2 test) of a rep:
    SeedSequence(seed, spawn_key=(cell_idx, rep)).spawn(3)[child], built alone."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(cell_idx, rep, child))
    )


def _run_rep(config: ExperimentConfig, cell_idx: int, n: int, m: int, rep: int):
    ss = np.random.SeedSequence(config.seed, spawn_key=(cell_idx, rep))
    seed_id = int(ss.generate_state(1, dtype=np.uint64)[0])
    try:
        source = None
        if n > 0:
            rng = _rep_rng(config.seed, cell_idx, rep, 0)
            source = generate_data(config.source, config.f_star, config.noise, n, rng)
        target = None
        if m > 0:
            rng = _rep_rng(config.seed, cell_idx, rep, 1)
            target = generate_data(config.target, config.f_star, config.noise, m, rng)
        est = fit(source, target, config.estimator)
        rng_test = _rep_rng(config.seed, cell_idx, rep, 2)
        risk = mc_excess_risk(est, config.f_star, config.target, config.n_test, rng_test)
    except Exception as exc:
        raise NumericError(
            f"sweep failed at cell (n={n}, m={m}), rep {rep}: {exc}"
        ) from exc
    return RepRecord(n=n, m=m, rep=rep, risk=risk, seed=seed_id)


def sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run reps x cells independent train/evaluate cycles.

    Results are reduced in (cell, rep) order regardless of completion
    order, so the output is identical for any thread count, and a
    failing sweep names its first failing rep in that order.  This rep
    pool is the package's one parallel layer; one thread runs the reps
    in a plain loop, which is faster than a one-worker pool.  The pool
    starts the reps of the largest cells (by n + m) first, so that no
    large rep is left to run alone at the end while the other threads
    wait.
    """
    cells = config.cells()
    tasks = [
        (ci, n, m, rep)
        for ci, (n, m) in enumerate(cells)
        for rep in range(config.reps)
    ]
    if threads > 1:
        # A stable sort: reps of equal size keep (cell, rep) order.
        largest_first = sorted(
            range(len(tasks)), key=lambda i: -(tasks[i][1] + tasks[i][2])
        )
        futures = [None] * len(tasks)
        # The pool starts a thread per task handed to it while none is idle.
        with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            for i in largest_first:
                futures[i] = pool.submit(_run_rep, config, *tasks[i])
            records = tuple(f.result() for f in futures)
    else:
        records = tuple(_run_rep(config, *t) for t in tasks)
    reps = config.reps
    risks = np.array([r.risk for r in records]).reshape(len(cells), reps)
    means = np.mean(risks, axis=1)
    stderrs = np.zeros(len(cells))
    if reps > 1:
        stderrs = np.std(risks, axis=1, ddof=1) / math.sqrt(reps)
    q50s, q90s = np.quantile(risks, [0.5, 0.9], axis=1)
    estimates = [
        RiskEstimate(mean=mean, stderr=stderr, n=n, m=m, q50=q50, q90=q90)
        for (n, m), mean, stderr, q50, q90 in zip(
            cells, means.tolist(), stderrs.tolist(), q50s.tolist(), q90s.tolist()
        )
    ]
    return SweepResult(estimates=tuple(estimates), records=records)


def fit_slope(sizes, risks) -> SlopeFit:
    """OLS fit of log risk against log size, with a 95% normal CI."""
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(risks, dtype=np.float64)
    if len(x) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("sizes and risks must be positive")
    lx, ly = np.log(x), np.log(y)
    xc = lx - lx.mean()
    sxx = float(np.sum(xc**2))
    slope = float(np.sum(xc * ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    rss = float(np.sum(resid**2))
    tss = float(np.sum((ly - ly.mean()) ** 2))
    dof = len(x) - 2
    se = math.sqrt(rss / dof / sxx) if dof > 0 else 0.0
    if tss > 0:
        r2 = 1.0 - rss / tss
    else:
        r2 = 1.0 if rss < 1e-30 else 0.0
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        slope_ci_halfwidth=1.96 * se,
        r_squared=r2,
    )


# ---------------------------------------------------------------------------
# Regime verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeExperimentReport:
    axis: str  # which sample size varies: "n" or "m"
    sizes: tuple
    mean_risks: tuple
    fitted: SlopeFit | None
    theory_slope: float
    regimes: tuple
    discrepancy: float | None
    degenerate: bool


def regime_experiment(
    config: ExperimentConfig, gamma: float, s: float
) -> RegimeExperimentReport:
    """Compare the fitted log-log slope against the theoretical exponent.

    Each cell's theory is theoretical_rate at (gamma, s), with beta and d
    read from config.estimator.  No pass/fail is hard-coded; the report
    carries the discrepancy and the CI for downstream judgement.  Exactly
    one of n_grid and m_grid may vary: the fit is against that sample
    size alone, so its grid must be positive and span at least 1.5
    decades.  Every check runs before the sweep.
    """
    if len(config.n_grid) > 1 and len(config.m_grid) > 1:
        raise ValueError("n_grid, m_grid: only one of them may vary")
    axis = "n" if len(config.n_grid) > 1 else "m"
    sizes = config.n_grid if axis == "n" else config.m_grid
    if 0 in sizes:
        raise ValueError(f"{axis}_grid: a size of 0 has no logarithm")
    if math.log10(max(sizes) / min(sizes)) < 1.5:
        raise ValueError("size grid must span at least 1.5 decades")
    beta, d = config.estimator.beta, config.estimator.d
    reports = [
        theoretical_rate(RateParams(gamma, s, beta, d, n, m)) for n, m in config.cells()
    ]
    risks = [est.mean for est in sweep(config).estimates]
    theory_slope = fit_slope(sizes, [rep.rate_value for rep in reports]).slope
    degenerate = any(r <= 1e-30 for r in risks)
    fitted = None if degenerate else fit_slope(sizes, risks)
    return RegimeExperimentReport(
        axis=axis,
        sizes=tuple(sizes),
        mean_risks=tuple(risks),
        fitted=fitted,
        theory_slope=theory_slope,
        regimes=tuple(rep.regime for rep in reports),
        discrepancy=None if fitted is None else fitted.slope - theory_slope,
        degenerate=degenerate,
    )


def neighbor_radius_concentration(
    dist: DistributionFamily,
    n: int,
    k: int,
    h_plus: float,
    x_grid,
    trials: int,
    seed: int,
) -> int:
    """Count trials where R_k(x) <= zeta_{h_plus}(x) across the whole grid.

    Empirical form of the neighbour-distance concentration event; the
    population radii are computed once since they do not depend on the
    sample.
    """
    xs = np.asarray(x_grid, dtype=np.float64).reshape(-1, dist.dimension)
    zetas = np.array([zeta(dist, x, h_plus) for x in xs])
    hits = 0
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        pts = dist.sample_array(rng, n)
        if np.all(NeighborIndex(pts).kth_distance(xs, k) <= zetas):
            hits += 1
    return hits


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def estimator_from_spec(obj: dict) -> NeighborFunctionConfig:
    config_object(obj, "estimator", ("beta", "d"), ("kappa_p", "kappa_q", "ell_factor"))
    numbers = {
        key: config_number(obj[key], f"estimator.{key}")
        for key in ("beta", "kappa_p", "kappa_q", "ell_factor")
        if key in obj
    }
    d = config_dimension(obj["d"], "estimator.d")
    try:
        return NeighborFunctionConfig(d=d, **numbers)
    except ValueError as exc:
        raise ConfigError("estimator", str(exc)) from None


def problem_from_spec(obj: dict):
    """Parse the fields a sweep and a simulate config share.

    obj is a config whose keys the caller has checked with
    config_object.  Returns (source, target, f_star, noise, estimator),
    with source None when absent or null, after checking that every
    part lives in estimator.d dimensions.
    """
    source = None
    if obj.get("source") is not None:
        source = family_from_spec(obj["source"], "source")
    target = family_from_spec(obj["target"], "target")
    f_star = holder_from_spec(obj["f_star"])
    noise = noise_from_spec(obj["noise"])
    estimator = estimator_from_spec(obj["estimator"])
    for field, part in (("source", source), ("target", target), ("f_star", f_star)):
        if part is not None and part.dimension != estimator.d:
            raise ConfigError(
                field,
                f"dimension {part.dimension} does not match "
                f"estimator.d = {estimator.d}",
            )
    return source, target, f_star, noise, estimator


def experiment_from_spec(obj: dict) -> ExperimentConfig:
    """Parse an ExperimentConfig from its JSON mirror."""
    config_object(
        obj,
        "",
        ("target", "f_star", "noise", "estimator", "n_grid", "m_grid", "reps",
         "n_test", "seed"),
        ("source",),
    )
    source, target, f_star, noise, estimator = problem_from_spec(obj)
    grids = {}
    for key in ("n_grid", "m_grid"):
        if not isinstance(obj[key], list):
            raise ConfigError(key, "expected a JSON list of integers")
        grids[key] = tuple(config_integer(v, key) for v in obj[key])
    return ExperimentConfig(
        source=source,
        target=target,
        f_star=f_star,
        noise=noise,
        estimator=estimator,
        **grids,
        reps=config_integer(obj["reps"], "reps"),
        n_test=config_integer(obj["n_test"], "n_test"),
        seed=config_integer(obj["seed"], "seed"),
    )
