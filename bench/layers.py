"""Which public names the traced pass wraps, and the per-layer metrics.

Each metric is listed with the end-to-end metric and workload it should move:

geom (``wall_s``, ``peak_rss_mb`` on sweep_2d; no change on sweep_1d, numerics)
    build and query_batch calls and busy time, query rows, cells fetched
    (rows x k), and ``geom.useful_ratio``: cells the estimator used,
    sum(k_p + k_q) plus the ell queries, over cells fetched, both counted over
    predict calls that take the k-d tree path (d >= 2); 0 when there are none.
estimator (``wall_s`` on sweep_1d; negligible on sweep_2d)
    fit and predict_batch calls, busy and self time (fit minus geom.build,
    predict minus geom.query_batch), predict rows, and three invariants derived
    from the returned k and density estimates over every side that has a
    sample: the share of k at the floor ceil(L), of k clamped to the sample
    size, and of infinite density estimates.
distributions (``wall_s`` on numerics)
    sampling, log_density, cdf, ppf, zeta, ball_mass and local_mass_check.
    log_density calls are counted, every call, nested ones included (a
    ProductPareto call in d dimensions makes d Pareto calls), and not timed:
    numerics makes 2.4 million scalar calls of 1-2 us, which a span per call
    would more than double.  The count still costs about 0.4 us a call, so
    transfer.monte_carlo.busy_s reads about 0.7 s (40%) above the Monte Carlo
    step's untraced 1.8 s on a 2-core x86 VM; ``trace.overhead_s`` shows the
    whole pass's share.
transfer (``wall_s`` on numerics)
    calls and busy time per method, improper_quad, scipy ``quad`` windows and
    the share of evaluations that converged (an invariant).
harness (``wall_s``, ``cpu_s`` on sweep_2d)
    reps, generate_data, mc_excess_risk, sweep, and ``harness.thread_util``:
    summed rep busy time over (sweep wall x threads).
cli (small, every workload)
    run busy time, its self time (argument and JSON parsing, output staging)
    and bytes written.

``trace.overhead_s`` is the traced pass's wall time minus the untraced one's.
A metric of a layer that a workload bypasses reads 0.
"""

from __future__ import annotations

import math

import numpy as np

# name -> (unit, better)
PER_LAYER = {
    "geom.build.calls": ("count", "lower"),
    "geom.build.busy_s": ("s", "lower"),
    "geom.query_batch.calls": ("count", "lower"),
    "geom.query_batch.busy_s": ("s", "lower"),
    "geom.query_batch.rows": ("count", "lower"),
    "geom.query_batch.cells": ("count", "lower"),
    "geom.useful_ratio": ("ratio", "higher"),
    "estimator.fit.calls": ("count", "lower"),
    "estimator.fit.busy_s": ("s", "lower"),
    "estimator.fit.self_s": ("s", "lower"),
    "estimator.predict_batch.rows": ("count", "lower"),
    "estimator.predict_batch.busy_s": ("s", "lower"),
    "estimator.predict_batch.self_s": ("s", "lower"),
    "estimator.k_floor_frac": ("ratio", "lower"),
    "estimator.k_n_frac": ("ratio", "lower"),
    "estimator.p_hat_inf_frac": ("ratio", "lower"),
    "distributions.sample_array.draws": ("count", "lower"),
    "distributions.sample_array.busy_s": ("s", "lower"),
    "distributions.log_density.calls": ("count", "lower"),
    "distributions.cdf.calls": ("count", "lower"),
    "distributions.cdf.points": ("count", "lower"),
    "distributions.cdf.busy_s": ("s", "lower"),
    "distributions.ppf.calls": ("count", "lower"),
    "distributions.ppf.busy_s": ("s", "lower"),
    "distributions.zeta.calls": ("count", "lower"),
    "distributions.zeta.busy_s": ("s", "lower"),
    "distributions.ball_mass.calls": ("count", "lower"),
    "distributions.local_mass_check.busy_s": ("s", "lower"),
    "transfer.closed_form.calls": ("count", "lower"),
    "transfer.closed_form.busy_s": ("s", "lower"),
    "transfer.quadrature.calls": ("count", "lower"),
    "transfer.quadrature.busy_s": ("s", "lower"),
    "transfer.monte_carlo.calls": ("count", "lower"),
    "transfer.monte_carlo.busy_s": ("s", "lower"),
    "transfer.improper_quad.calls": ("count", "lower"),
    "transfer.improper_quad.busy_s": ("s", "lower"),
    "transfer.quad_windows": ("count", "lower"),
    "transfer.converged_frac": ("ratio", "higher"),
    "harness.reps": ("count", "lower"),
    "harness.generate_data.busy_s": ("s", "lower"),
    "harness.mc_excess_risk.busy_s": ("s", "lower"),
    "harness.sweep.busy_s": ("s", "lower"),
    "harness.thread_util": ("ratio", "higher"),
    "cli.run.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_FAMILY_METHODS = ("sample_array", "cdf", "ppf")


def _note_query(tracer, log, idx, args, kwargs, result):
    rows, k = result[0].shape
    log.counts["geom.query_batch.rows"] += rows
    log.counts["geom.query_batch.cells"] += rows * k
    parent = log.parent[idx]
    if parent >= 0 and log.name[parent] == tracer.name_id("estimator.predict_batch"):
        log.cells_under[parent] += rows * k


def _note_predict(tracer, log, idx, args, kwargs, result):
    est = args[0]
    _, k_p, k_q, p_hat, q_hat = result
    rows = len(k_p)
    c = log.counts
    c["estimator.predict_batch.rows"] += rows
    lower = max(int(math.ceil(est.joint_log)), 1)
    used = int(k_p.sum()) + int(k_q.sum())
    for k, dens, n_own in ((k_p, p_hat, est.n), (k_q, q_hat, est.m)):
        if n_own == 0:
            continue
        c["estimator.sides"] += rows
        c["estimator.k_floor"] += int(np.count_nonzero(k == lower))
        c["estimator.k_n"] += int(np.count_nonzero(k == n_own))
        c["estimator.density_inf"] += int(np.count_nonzero(np.isinf(dens)))
        if est.ell <= n_own:
            used += rows * est.ell
    fetched = log.cells_under.pop(idx, 0)
    if est.config.d > 1:
        c["geom.cells_used"] += used
        c["geom.cells_fetched"] += fetched


def _note_sample(tracer, log, idx, args, kwargs, result):
    log.counts["distributions.sample_array.draws"] += len(result)


def _note_cdf(tracer, log, idx, args, kwargs, result):
    log.counts["distributions.cdf.points"] += int(np.size(args[1]))


def _note_transfer(tracer, log, idx, args, kwargs, result):
    log.name[idx] = tracer.name_id(f"transfer.{result.method}")
    log.counts["transfer.evaluations"] += 1
    log.counts["transfer.converged"] += int(result.converged)


def _note_sweep(tracer, log, idx, args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    log.counts["harness.sweep.thread_s"] += (log.end[idx] - log.start[idx]) * threads


def instrument(tracer, tk) -> None:
    """Wrap the public names of every layer where their callers look them up."""
    cli, dist, est, geom = tk.cli, tk.distributions, tk.estimator, tk.geom
    harness, transfer, integrate = tk.harness, tk.transfer, tk.integrate
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "sweep", "harness.sweep", _note_sweep)
    for method in ("closed_form", "quadrature", "monte_carlo"):
        tracer.name_id(f"transfer.{method}")
    tracer.wrap(cli, "transfer_value", "transfer.value", _note_transfer)
    tracer.wrap(cli, "local_mass_check", "distributions.local_mass_check")
    # _run_rep is the unit of work the sweep schedules over threads.
    tracer.wrap(harness, "_run_rep", "harness.rep")
    tracer.wrap(harness, "generate_data", "harness.generate_data")
    tracer.wrap(harness, "mc_excess_risk", "harness.mc_excess_risk")
    tracer.wrap(harness, "fit", "estimator.fit")
    tracer.wrap(est.TrainedEstimator, "predict_batch", "estimator.predict_batch", _note_predict)
    tracer.wrap(geom.NeighborIndex, "__init__", "geom.build")
    tracer.wrap(geom.NeighborIndex, "query_batch", "geom.query_batch", _note_query)
    notes = {"sample_array": _note_sample, "cdf": _note_cdf}
    families = [dist.DistributionFamily, *dist.DistributionFamily.__subclasses__()]
    for cls in families:
        for method in _FAMILY_METHODS:
            if method in vars(cls):
                tracer.wrap(cls, method, f"distributions.{method}", notes.get(method))
        if "log_density" in vars(cls):
            tracer.count(cls, "log_density", "distributions.log_density")
    tracer.wrap(dist, "zeta", "distributions.zeta")
    tracer.wrap(dist, "ball_mass", "distributions.ball_mass")
    tracer.wrap(transfer, "improper_quad", "transfer.improper_quad")
    tracer.wrap(integrate, "quad", "transfer.quad_window")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer, bytes_written: int) -> dict:
    """Every per-layer metric except trace.overhead_s, from one traced pass."""
    calls, busy, own = tracer.totals()
    c = tracer.counts()
    out = {
        "geom.build.calls": calls["geom.build"],
        "geom.build.busy_s": busy["geom.build"],
        "geom.query_batch.calls": calls["geom.query_batch"],
        "geom.query_batch.busy_s": busy["geom.query_batch"],
        "geom.query_batch.rows": c["geom.query_batch.rows"],
        "geom.query_batch.cells": c["geom.query_batch.cells"],
        "geom.useful_ratio": _ratio(c["geom.cells_used"], c["geom.cells_fetched"]),
        "estimator.fit.calls": calls["estimator.fit"],
        "estimator.fit.busy_s": busy["estimator.fit"],
        "estimator.fit.self_s": own["estimator.fit"],
        "estimator.predict_batch.rows": c["estimator.predict_batch.rows"],
        "estimator.predict_batch.busy_s": busy["estimator.predict_batch"],
        "estimator.predict_batch.self_s": own["estimator.predict_batch"],
        "estimator.k_floor_frac": _ratio(c["estimator.k_floor"], c["estimator.sides"]),
        "estimator.k_n_frac": _ratio(c["estimator.k_n"], c["estimator.sides"]),
        "estimator.p_hat_inf_frac": _ratio(c["estimator.density_inf"], c["estimator.sides"]),
        "distributions.sample_array.draws": c["distributions.sample_array.draws"],
        "distributions.sample_array.busy_s": busy["distributions.sample_array"],
        "distributions.log_density.calls": c["distributions.log_density.calls"],
        "distributions.cdf.calls": calls["distributions.cdf"],
        "distributions.cdf.points": c["distributions.cdf.points"],
        "distributions.cdf.busy_s": busy["distributions.cdf"],
        "distributions.ppf.calls": calls["distributions.ppf"],
        "distributions.ppf.busy_s": busy["distributions.ppf"],
        "distributions.zeta.calls": calls["distributions.zeta"],
        "distributions.zeta.busy_s": busy["distributions.zeta"],
        "distributions.ball_mass.calls": calls["distributions.ball_mass"],
        "distributions.local_mass_check.busy_s": busy["distributions.local_mass_check"],
        "transfer.improper_quad.calls": calls["transfer.improper_quad"],
        "transfer.improper_quad.busy_s": busy["transfer.improper_quad"],
        "transfer.quad_windows": calls["transfer.quad_window"],
        "transfer.converged_frac": _ratio(c["transfer.converged"], c["transfer.evaluations"]),
        "harness.reps": calls["harness.rep"],
        "harness.generate_data.busy_s": busy["harness.generate_data"],
        "harness.mc_excess_risk.busy_s": busy["harness.mc_excess_risk"],
        "harness.sweep.busy_s": busy["harness.sweep"],
        "harness.thread_util": _ratio(busy["harness.rep"], c["harness.sweep.thread_s"]),
        "cli.run.busy_s": busy["cli.run"],
        "cli.self_s": own["cli.run"],
        "cli.bytes_written": bytes_written,
    }
    for method in ("closed_form", "quadrature", "monte_carlo"):
        out[f"transfer.{method}.calls"] = calls[f"transfer.{method}"]
        out[f"transfer.{method}.busy_s"] = busy[f"transfer.{method}"]
    return out
