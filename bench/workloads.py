"""The benchmark's workloads: their inputs, their operations and their checks.

Every workload goes through the entry points users call: ``transfer_knn.cli.run``
for CLI invocations and ``transfer_knn.distributions.zeta`` for the d = 2 radius
function, which no subcommand reaches.  One *operation* is one CLI invocation or
one library call; it fails on a nonzero exit, an exception, or a failed output
check.

Workloads (why each was chosen, which layers it loads and which it bypasses):

``sweep_1d``
    ``sweep --threads 1`` on the acceptance criterion 6 config (Uniform
    target-only, m 256..8192, 100 reps, n_test 2000), then on the criterion 7
    config (Exp(2) -> Exp(1) source-only, n 512..16384, 100 reps).  These are
    the paper's two gated rate reproductions, run the way users run them.
    Work goes to the 1-D sorted-window path of ``estimator``, to ``fit`` and to
    sampling.  ``geom.query_batch`` runs only for tie fallbacks and thread
    scheduling is bypassed, so this is the "no change expected" workload for
    neighbour-layer and threading changes.

``sweep_2d``
    ``sweep --threads 2`` on a ProductPareto(1, 1, 2) source and a
    ProductPareto(2, 1, 2) target, n in {1024, 4096, 16384}, m = 1024, 3 reps,
    n_test 2000.  This is the k-d tree path: ``geom.query_batch`` takes most of
    predict time and fetches about 3x the neighbour cells the estimator uses.
    It also exercises the scheduling of reps over threads; the 1-D sorted path
    is bypassed.  ``f_star`` is ``constant`` because the estimator's work
    depends only on X, not on the labels, and because ``parabola`` is 1-D only:
    a d = 2 ``parabola`` config ends in an uncaught ``ValueError`` traceback
    inside ``generate_data`` (a known defect of the CLI, left for its own fix).

``numerics``
    Transfer-function and distribution numerics; never touches ``geom``,
    ``estimator`` or ``harness``, so it is the bypass workload for estimator
    changes.  Four steps: ``transfer`` LogPareto(1,1,0) -> LogPareto(1,1,2) on
    gamma 0:1:0.01 (quadrature with heavy-tail divergence detection);
    ``transfer`` on the sweep_2d ProductPareto pair on 0:0.9:0.15 (Monte Carlo,
    10^5 per-point ``log_density`` calls per gamma); ``check-regularity`` on
    LogPareto(1,1,2) with theta = 10 (scalar ``cdf``, bisection ``ppf``); and
    ``zeta`` for ProductPareto(1,1,2) at 4 fixed points with h = 0.01 (Monte
    Carlo ball mass).  Its inputs do not depend on the seed: the CLI's transfer
    Monte Carlo and the library's ball-mass Monte Carlo use fixed internal
    seeds.

``rates`` is not measured: none of these workloads calls it, and the rate
calculus classifies 10^4 configurations in well under a second.

The sweep workloads take their CLI seed from the benchmark seed through one of
``VARIANTS`` variants, so that every variant's outputs can be pinned by digest
(seeded CLI outputs are byte-identical from run to run).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

# The acceptance suite's seed; variant v of a sweep workload uses this + v.
SWEEP_SEED = 20240801
VARIANTS = {"sweep_1d": 8, "sweep_2d": 8, "numerics": 1}
SWEEP_THREADS = {"sweep_1d": 1, "sweep_2d": 2}
WORKLOADS = tuple(VARIANTS)

_NOISE = {"type": "gaussian", "sigma_e": 0.5}

CRITERION_6 = {
    "source": None,
    "target": {"family": "uniform", "a": 0.0, "b": 1.0},
    "f_star": {"name": "parabola"},
    "noise": _NOISE,
    "estimator": {"beta": 1.0, "d": 1},
    "n_grid": [0],
    "m_grid": [256, 512, 1024, 2048, 4096, 8192],
    "reps": 100,
    "n_test": 2000,
}
CRITERION_7 = {
    "source": {"family": "exponential", "lambda": 2.0},
    "target": {"family": "exponential", "lambda": 1.0},
    "f_star": {"name": "parabola"},
    "noise": _NOISE,
    "estimator": {"beta": 1.0, "d": 1},
    "n_grid": [512, 1024, 2048, 4096, 8192, 16384],
    "m_grid": [0],
    "reps": 100,
    "n_test": 2000,
}
PRODUCT_SOURCE = {"family": "product_pareto", "alpha": 1.0, "sigma": 1.0, "d": 2}
PRODUCT_TARGET = {"family": "product_pareto", "alpha": 2.0, "sigma": 1.0, "d": 2}
SWEEP_2D = {
    "source": PRODUCT_SOURCE,
    "target": PRODUCT_TARGET,
    "f_star": {"name": "constant", "value": 0.25, "d": 2},
    "noise": _NOISE,
    "estimator": {"beta": 1.0, "d": 2},
    "n_grid": [1024, 4096, 16384],
    "m_grid": [1024],
    "reps": 3,
    "n_test": 2000,
}
LOG_PARETO_PAIR = {
    "source": {"family": "log_pareto", "a": 1.0, "b": 1.0, "c": 0.0},
    "target": {"family": "log_pareto", "a": 1.0, "b": 1.0, "c": 2.0},
}
PRODUCT_PAIR = {"source": PRODUCT_SOURCE, "target": PRODUCT_TARGET}
REGULARITY = {
    "distribution": {"family": "log_pareto", "a": 1.0, "b": 1.0, "c": 2.0},
    "theta": 10.0,
}
ZETA_POINTS = ((0.5, 0.5), (1.0, 2.0), (3.0, 0.25), (5.0, 5.0))
ZETA_H = 0.01

# Reference bands for the fitted log-log slopes (acceptance criteria 6 and 7).
SLOPE_BANDS = {"c6": (-0.80, -0.52), "c7": (-0.68, -0.33)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliOp:
    """One ``transfer_knn.cli.run`` invocation writing into out_root/label."""

    def __init__(self, label, argv, out_root, reference):
        self.label = label
        self.out_dir = os.path.join(out_root, label)
        self.argv = list(argv) + ["--out", self.out_dir]
        self.reference = reference
        self.error = None

    def execute(self, tk) -> None:
        try:
            code = tk.cli.run(self.argv)
        except Exception as exc:  # an uncaught traceback is a failed operation
            self.error = f"{type(exc).__name__}: {exc}"
            return
        if code != 0:
            self.error = f"exit code {code}"

    def outputs(self) -> dict:
        if not os.path.isdir(self.out_dir):
            return {}
        out = {}
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                out[name] = fh.read()
        return out


class ZetaOp:
    """One ``distributions.zeta`` call; its output is the radius' repr."""

    def __init__(self, label, dist, x, h):
        self.label = label
        self.dist, self.x, self.h = dist, x, h
        self.value = None
        self.error = None

    def execute(self, tk) -> None:
        try:
            self.value = tk.distributions.zeta(self.dist, self.x, self.h)
        except Exception as exc:
            self.error = f"{type(exc).__name__}: {exc}"

    def outputs(self) -> dict:
        return {} if self.value is None else {"zeta": repr(float(self.value)).encode()}

    def reference(self, outputs) -> list:
        return _check_zeta(self.x, self.h, float(outputs["zeta"]))


def _write_json(path, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def prepare(workload: str, variant: int, work_dir: str, tk) -> list:
    """Write the workload's inputs under work_dir and return its operations."""
    inputs = os.path.join(work_dir, "in")
    os.makedirs(inputs, exist_ok=True)
    out = os.path.join(work_dir, "out")

    def sweep(label, config, reference):
        path = _write_json(
            os.path.join(inputs, f"{label}.json"),
            dict(config, seed=SWEEP_SEED + variant),
        )
        argv = ["sweep", "--config", path, "--threads", str(SWEEP_THREADS[workload])]
        return CliOp(label, argv, out, reference)

    if workload == "sweep_1d":
        return [
            sweep("c6", CRITERION_6, _slope_reference("c6", "m")),
            sweep("c7", CRITERION_7, _slope_reference("c7", "n")),
        ]
    if workload == "sweep_2d":
        return [sweep("d2", SWEEP_2D, _check_decreasing_risk)]
    if workload == "numerics":
        log_pair = _write_json(os.path.join(inputs, "log_pareto.json"), LOG_PARETO_PAIR)
        product = _write_json(os.path.join(inputs, "product.json"), PRODUCT_PAIR)
        regularity = _write_json(os.path.join(inputs, "regularity.json"), REGULARITY)
        dist = tk.distributions.family_from_spec(PRODUCT_SOURCE)
        return [
            CliOp(
                "log_pareto",
                ["transfer", "--config", log_pair, "--gamma-grid", "0:1:0.01"],
                out,
                _check_log_pareto,
            ),
            CliOp(
                "product",
                ["transfer", "--config", product, "--gamma-grid", "0:0.9:0.15"],
                out,
                _check_product_mc,
            ),
            CliOp(
                "regularity",
                ["check-regularity", "--config", regularity],
                out,
                _check_regularity,
            ),
        ] + [
            ZetaOp(f"zeta{i}", dist, np.array(x), ZETA_H)
            for i, x in enumerate(ZETA_POINTS)
        ]
    raise ValueError(f"unknown workload '{workload}'")


def check(op, pins) -> list:
    """Failure messages for one executed operation (empty when it passed).

    pins maps output name -> sha256 for this workload variant and op, or is
    None when digests are being recorded rather than checked.
    """
    if op.error is not None:
        return [op.error]
    outputs = op.outputs()
    problems = []
    if pins is not None:
        if sorted(outputs) != sorted(pins):
            problems.append(f"outputs {sorted(outputs)} != pinned {sorted(pins)}")
        for name, data in outputs.items():
            if name in pins and sha256(data) != pins[name]:
                problems.append(f"{name}: sha256 differs from the pinned digest")
    try:
        problems += op.reference(outputs)
    except (KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------------------
# Independent references: none of these calls into transfer_knn.
# ---------------------------------------------------------------------------


def _rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _slope_reference(label, axis):
    lo, hi = SLOPE_BANDS[label]

    def reference(outputs):
        rows = _rows(outputs["sweep_aggregate.csv"])
        x = np.log([float(r[axis]) for r in rows])
        y = np.log([float(r["mean_risk"]) for r in rows])
        slope = float(np.polyfit(x, y, 1)[0])
        if not lo <= slope <= hi:
            return [f"{label} slope {slope:.4f} outside [{lo}, {hi}]"]
        return []

    return reference


def _check_decreasing_risk(outputs):
    risks = [float(r["mean_risk"]) for r in _rows(outputs["sweep_aggregate.csv"])]
    if not all(b < a for a, b in zip(risks, risks[1:])):
        return [f"mean risk does not decrease along n: {risks}"]
    return []


def _check_log_pareto(outputs):
    # gamma* = 1/2 and the log factor (c = 2) keeps T finite at gamma* itself.
    problems = []
    for row in _rows(outputs["transfer.csv"]):
        gamma = float(row["gamma"])
        converged = row["converged"] == "true"
        if gamma <= 0.5 + 1e-9 and not converged:
            problems.append(f"LogPareto T diverged at gamma={gamma}")
        if gamma >= 0.55 - 1e-9 and converged:
            problems.append(f"LogPareto T converged at gamma={gamma}")
    return problems


def _check_product_mc(outputs):
    # The product law factorises: T = (1/(1 - gamma))^2 for this pair.
    problems = []
    for row in _rows(outputs["transfer.csv"]):
        gamma = float(row["gamma"])
        if gamma > 0.45 + 1e-9:
            continue
        exact = 1.0 / (1.0 - gamma) ** 2
        value, stderr = float(row["value"]), float(row["error_estimate"])
        if abs(value - exact) > 4.0 * stderr + 1e-12:
            problems.append(
                f"MC T({gamma}) = {value} vs closed form {exact} (stderr {stderr})"
            )
    return problems


def _check_regularity(outputs):
    summary = {r["key"]: r["value"] for r in _rows(outputs["regularity.csv"])}
    failures = _rows(outputs["regularity_failures.csv"])
    problems = []
    if int(summary["n_checked"]) != 50 * 20:
        problems.append(f"n_checked {summary['n_checked']} != 1000")
    if int(summary["n_failures"]) != len(failures):
        problems.append("n_failures disagrees with regularity_failures.csv")
    if (summary["passed"] == "true") != (not failures):
        problems.append("passed flag disagrees with the failure list")
    return problems


def _check_zeta(x, h, radius):
    # Mass of the ball B(x, radius) under ProductPareto(1, 1, 2), estimated on
    # an independent sample drawn by inverse CDF: sigma (u^(-1/alpha) - 1).
    n = 200_000
    rng = np.random.default_rng(20260101)
    pts = 1.0 / rng.random((n, 2)) - 1.0
    mass = float(np.mean(np.linalg.norm(pts - np.asarray(x)[None, :], axis=1) <= radius))
    tol = 4.0 * math.sqrt(h * (1.0 - h) * (1.0 / 100_000 + 1.0 / n))
    if abs(mass - h) > tol:
        return [f"zeta at {tuple(x)}: ball mass {mass:.5f} vs h={h} (tol {tol:.5f})"]
    return []
