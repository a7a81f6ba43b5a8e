"""Command-line front end.

Subcommands: transfer, rates, phase, simulate, sweep, check-regularity.
All outputs are CSV files, written atomically (temp file + rename after
the whole run succeeds), so a failed run leaves no partial artifacts.
Exit codes: 0 success, 1 configuration error (the message names the
offending field), 2 numeric failure (out of memory included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import family_from_spec, local_mass_check
from .errors import (
    ConfigError,
    NumericError,
    RadiusSearchError,
    config_choice,
    config_integer,
    config_number,
    config_object,
)
from .estimator import fit
from .harness import experiment_from_spec, generate_data, problem_from_spec, sweep
from .rates import RateParams, phase_grid, theoretical_rate
# transfer_value stays a name of this module: bench/layers.py wraps it here.
from .transfer import estimate_index, transfer_value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 1 for config errors
        raise ConfigError("argv", message)


class OutputStager:
    """Collect outputs in temp files; rename them only when all succeed."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._staged = []

    def write_rows(self, name: str, header, rows) -> None:
        tmp = os.path.join(self.out_dir, f".{name}.tmp-{os.getpid()}")
        self._staged.append((tmp, os.path.join(self.out_dir, name)))
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def commit(self) -> None:
        for tmp, final in self._staged:
            os.replace(tmp, final)
        self._staged = []

    def abort(self) -> None:
        for tmp, _ in self._staged:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        self._staged = []


def _float_arg(text: str, field: str) -> float:
    """A finite number written in a command-line argument."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(field, f"non-numeric value '{text}'") from None
    if not math.isfinite(value):
        raise ConfigError(field, f"must be finite, got '{text}'")
    return value


# The most points a grid, the most cells a phase table, the most (x, r)
# pairs a regularity check and the most (cell, rep) pairs a sweep may hold.
MAX_GRID_POINTS = 100_000
# The most threads a sweep may run its reps on.
MAX_THREADS = 256


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the host's count where the
    platform cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_grid(text: str, field: str):
    """Parse start:end:step (end included when on-step within 1e-12).

    A grid of more than MAX_GRID_POINTS points is refused before it is built.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(field, f"expected start:end[:step], got '{text}'")
    if len(parts) == 2:
        parts.append("1")
    start, end, step = (_float_arg(part, field) for part in parts)
    if step <= 0:
        raise ConfigError(field, "step must be positive")
    if end < start:
        raise ConfigError(field, "end must be >= start")
    steps = (end - start) / step
    if not math.isfinite(steps):
        raise ConfigError(field, f"(end - start) / step = {steps!r} is not a finite count")
    count = int(math.floor(steps + 1e-12)) + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(field, f"{count} points exceed the limit of {MAX_GRID_POINTS}")
    return [start + i * step for i in range(count)]


def _log_grid(text: str, field: str):
    """10^v for each v of a log10 grid; every 10^v must be a positive finite float."""
    grid = parse_grid(text, field)
    try:
        values = [10.0**v for v in grid]
    except OverflowError:
        raise ConfigError(field, f"10^{grid[-1]} overflows a float") from None
    if values[0] == 0.0:
        raise ConfigError(field, f"10^{grid[0]} underflows to 0")
    return values


def _parse_assignments(text: str, field: str) -> dict:
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(field, f"expected key=value, got '{item}'")
        key, _, val = item.partition("=")
        out[key.strip()] = _float_arg(val, field)
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"malformed JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "the top level must be a JSON object")
    return cfg


def _seeded_config(args) -> dict:
    """The config file, with its seed replaced by --seed when given."""
    cfg = _load_json(args.config)
    return cfg if args.seed is None else dict(cfg, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_transfer(args, stager: OutputStager) -> None:
    cfg = config_object(_load_json(args.config), "", ("source", "target"))
    P = family_from_spec(cfg["source"], "source")
    Q = family_from_spec(cfg["target"], "target")
    if Q.dimension != P.dimension:
        raise ConfigError(
            "target",
            f"dimension {Q.dimension} does not match source dimension {P.dimension}",
        )
    grid = parse_grid(args.gamma_grid, "--gamma-grid")
    if grid[0] < 0.0:
        raise ConfigError("--gamma-grid", f"gamma must be nonnegative, got {grid[0]}")
    evals = estimate_index(P, Q, grid).evaluations
    header = ["gamma", "value", "method", "error_estimate", "converged"]
    rows = [
        (e.gamma, e.value, e.method, e.error_estimate, e.converged) for e in evals
    ]
    stager.write_rows("transfer.csv", header, rows)


def _cmd_rates(args, stager: OutputStager) -> None:
    cfg = config_object(
        _load_json(args.config),
        "",
        ("gamma", "s", "beta", "d", "n", "m"),
        ("transfer_p", "transfer_q", "mode"),
    )
    mode = config_choice(
        cfg.get("mode", "exponents_only"), "mode", ("exponents_only", "full")
    )
    numbers = {k: config_number(cfg[k], k) for k in ("gamma", "s", "beta", "n", "m")}
    for key in ("transfer_p", "transfer_q"):
        if cfg.get(key) is not None:
            numbers[key] = config_number(cfg[key], key)
    params = RateParams(d=config_integer(cfg["d"], "d"), **numbers)
    report = theoretical_rate(params, mode=mode)
    payload = {
        "gamma": params.gamma,
        "s": params.s,
        "beta": params.beta,
        "d": params.d,
        "n": params.n,
        "m": params.m,
        "mode": mode,
        "r_beta": report.r_beta,
        "configuration": report.configuration,
        "regime": report.regime,
        "driver": report.driver,
        "window_lo": None if report.window is None else report.window[0],
        "window_hi": None if report.window is None else report.window[1],
        "source_exp": report.source_exp,
        "target_exp": report.target_exp,
        "rate": report.rate_value,
        "flags": ";".join(report.flags),
    }
    stager.write_rows("rates.csv", list(payload), [tuple(payload.values())])


def _cmd_phase(args, stager: OutputStager) -> None:
    fixed = _parse_assignments(args.fix, "--fix")
    keys = set(fixed)
    # The flag each RateParams field of a grid cell comes from.
    flags = {"beta": "--beta", "d": "--d"}
    if keys == {"gamma", "s"}:
        if args.log_n is None or args.log_m is None:
            raise ConfigError("--log-n", "required when fixing gamma and s")
        axis1 = _log_grid(args.log_n, "--log-n")
        axis2 = _log_grid(args.log_m, "--log-m")
        flags.update(n="--log-n", m="--log-m")
        axis_flags = "--log-n, --log-m"
    elif keys == {"n", "m"}:
        if args.gamma_axis is None or args.s_axis is None:
            raise ConfigError("--gamma-axis", "required when fixing n and m")
        axis1 = parse_grid(args.gamma_axis, "--gamma-axis")
        axis2 = parse_grid(args.s_axis, "--s-axis")
        flags.update(gamma="--gamma-axis", s="--s-axis")
        axis_flags = "--gamma-axis, --s-axis"
    else:
        raise ConfigError("--fix", "must fix exactly gamma,s or n,m")
    cells = len(axis1) * len(axis2)
    if cells > MAX_GRID_POINTS:
        raise ConfigError(axis_flags, f"{cells} cells exceed the limit of {MAX_GRID_POINTS}")
    try:
        grid = phase_grid(args.beta, args.d, fixed, axis1, axis2)
    except ConfigError as exc:
        raise ConfigError(flags.get(exc.field, "--fix"), exc.message) from None
    header = [
        grid.axis1_name,
        grid.axis2_name,
        "configuration",
        "regime",
        "source_exp",
        "target_exp",
        "rate",
    ]
    rows = [
        (
            v1,
            v2,
            rep.configuration,
            rep.regime,
            rep.source_exp,
            rep.target_exp,
            rep.rate_value,
        )
        for v1, row in zip(grid.axis1, grid.reports)
        for v2, rep in zip(grid.axis2, row)
    ]
    line_header = ["name", "description", "slope", "intercept"]
    line_rows = [
        (ln.name, ln.description, ln.slope, ln.intercept)
        for ln in grid.boundary_lines
    ]
    stager.write_rows("phase.csv", header, rows)
    stager.write_rows("phase_lines.csv", line_header, line_rows)


def _cmd_simulate(args, stager: OutputStager) -> None:
    cfg = config_object(
        _seeded_config(args),
        "",
        ("target", "f_star", "noise", "estimator", "n", "m", "n_test", "seed"),
        ("source",),
    )
    source, target, f_star, noise, est_cfg = problem_from_spec(cfg)
    n = config_integer(cfg["n"], "n", least=0)
    m = config_integer(cfg["m"], "m", least=0)
    if n + m < 1:
        raise ConfigError("n, m", "at least one of the two samples must be nonempty")
    n_test = config_integer(cfg["n_test"], "n_test", least=1)
    seed = config_integer(cfg["seed"], "seed", least=0)
    if n > 0 and source is None:
        raise ConfigError("source", "required when n > 0")
    ss = np.random.SeedSequence(seed)
    rng_src, rng_tgt, rng_test = (np.random.default_rng(c) for c in ss.spawn(3))
    src_data = generate_data(source, f_star, noise, n, rng_src) if n > 0 else None
    tgt_data = generate_data(target, f_star, noise, m, rng_tgt) if m > 0 else None
    Xq = target.sample_array(rng_test, n_test)
    try:
        est = fit(src_data, tgt_data, est_cfg)
        # (values, k_p, k_q, p_hat, q_hat), the columns after the coordinates
        result = est.predict_batch(Xq)
    except ValueError as exc:
        raise NumericError(f"estimator failed on the drawn samples: {exc}") from exc
    coords = [f"x_{i + 1}" for i in range(est_cfg.d)]
    for name, data in (("train_source.csv", src_data), ("train_target.csv", tgt_data)):
        X, y = data if data else (np.empty((0, est_cfg.d)), np.empty(0))
        rows = [[*x, label] for x, label in zip(X.tolist(), y.tolist())]
        stager.write_rows(name, coords + ["y"], rows)
    stager.write_rows(
        "predictions.csv",
        coords + ["y_hat", "k_p", "k_q", "p_hat", "q_hat"],
        [[*x, *rest] for x, *rest in zip(Xq.tolist(), *(c.tolist() for c in result))],
    )


def _cmd_sweep(args, stager: OutputStager) -> None:
    config = experiment_from_spec(_seeded_config(args))
    threads = config_integer(args.threads, "--threads", least=1)
    if threads > MAX_THREADS:
        raise ConfigError("--threads", f"{threads} exceeds the limit of {MAX_THREADS}")
    # sweep lists its blocks of reps before the first rep runs.
    pairs = len(config.n_grid) * len(config.m_grid) * config.reps
    if pairs > MAX_GRID_POINTS:
        raise ConfigError("reps", f"{pairs} cells x reps exceed the limit of {MAX_GRID_POINTS}")
    result = sweep(config, threads=threads)
    rep_header = ["n", "m", "rep", "risk", "seed"]
    rep_rows = [(r.n, r.m, r.rep, r.risk, r.seed) for r in result.records]
    agg_header = ["n", "m", "mean_risk", "stderr", "q50", "q90"]
    agg_rows = [
        (e.n, e.m, e.mean, e.stderr, e.q50, e.q90) for e in result.estimates
    ]
    stager.write_rows("sweep_reps.csv", rep_header, rep_rows)
    stager.write_rows("sweep_aggregate.csv", agg_header, agg_rows)


def _cmd_check_regularity(args, stager: OutputStager) -> None:
    optional = ("theta", "x_points", "r_points")
    cfg = config_object(_load_json(args.config), "", ("distribution",), optional)
    dist = family_from_spec(cfg["distribution"], "distribution")
    if dist.dimension != 1:
        raise ConfigError("distribution", "regularity grid check requires 1-D")
    if "theta" in cfg:
        theta = config_number(cfg["theta"], "theta")
    else:
        try:
            theta = dist.local_mass_theta
        except OverflowError:
            theta = math.inf
        if theta is None:
            raise ConfigError("theta", "missing and no built-in value for this family")
        if theta == math.inf:
            raise ConfigError("theta", "missing and the built-in value overflows a float")
    if theta <= 0.0:
        raise ConfigError("theta", f"must be positive, got {theta}")
    nx = config_integer(cfg.get("x_points", 50), "x_points", least=1)
    nr = config_integer(cfg.get("r_points", 20), "r_points", least=1)
    # local_mass_check holds every (x, r) mass of the grid at once.
    if nx * nr > MAX_GRID_POINTS:
        raise ConfigError(
            "x_points, r_points",
            f"{nx} x {nr} = {nx * nr} grid points exceed the limit of {MAX_GRID_POINTS}",
        )
    try:
        x_grid = dist.ppf((np.arange(nx) + 0.5) / nx)
    except RadiusSearchError as exc:
        raise ConfigError("distribution", f"x grid: {exc}") from None
    if not np.all(np.isfinite(x_grid)):
        raise ConfigError("distribution", "a quantile of the x grid overflows a float")
    r_grid = [(j + 1) / nr for j in range(nr)]
    report = local_mass_check(dist, theta, x_grid, r_grid)
    summary = [
        ("theta", report.theta),
        ("passed", report.passed),
        ("min_ratio", report.min_ratio),
        ("max_ratio", report.max_ratio),
        ("n_checked", report.n_checked),
        ("n_failures", len(report.failures)),
    ]
    stager.write_rows("regularity.csv", ["key", "value"], summary)
    stager.write_rows("regularity_failures.csv", ["x", "r", "ratio"], report.failures)


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="transfer-knn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("transfer", help="evaluate the transfer function on a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--gamma-grid", required=True, help="start:end:step")
    common(p)

    p = sub.add_parser("rates", help="classify a configuration and its rate")
    p.add_argument("--config", required=True)
    common(p)

    p = sub.add_parser("phase", help="regime classification over a grid")
    p.add_argument("--fix", required=True, help="gamma=..,s=.. or n=..,m=..")
    p.add_argument("--log-n", default=None, help="log10 n grid start:end:step")
    p.add_argument("--log-m", default=None, help="log10 m grid start:end:step")
    p.add_argument("--gamma-axis", default=None, help="gamma grid start:end:step")
    p.add_argument("--s-axis", default=None, help="s grid start:end:step")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--d", type=int, default=1)
    common(p)

    p = sub.add_parser("simulate", help="one train/predict cycle with CSV artifacts")
    p.add_argument("--config", required=True)
    common(p)
    p.add_argument("--seed", type=int, default=None, help="seed override")

    p = sub.add_parser("sweep", help="Monte Carlo risk sweep over (n, m) cells")
    p.add_argument("--config", required=True)
    common(p)
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument(
        "--threads",
        type=int,
        default=min(_usable_cpus(), MAX_THREADS),
        help="threads the reps run on",
    )

    p = sub.add_parser("check-regularity", help="verify the local mass property")
    p.add_argument("--config", required=True)
    common(p)

    return parser


_COMMANDS = {
    "transfer": _cmd_transfer,
    "rates": _cmd_rates,
    "phase": _cmd_phase,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "check-regularity": _cmd_check_regularity,
}


def run(argv) -> int:
    """Execute argv; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        stager = OutputStager(args.out)
        try:
            _COMMANDS[args.command](args, stager)
        except BaseException:
            stager.abort()
            raise
        stager.commit()
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
