"""Command-line front end.

Subcommands: transfer, rates, phase, simulate, sweep, check-regularity.
All outputs are written atomically (temp file + rename after the whole
run succeeds), so a failed run leaves no partial artifacts.  Exit codes:
0 success, 1 configuration error (the message names the offending
field), 2 numeric failure.
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
from .errors import ConfigError, NumericError, config_integer
from .estimator import fit, write_labeled_csv, write_predictions_csv
from .harness import experiment_from_spec, generate_data, problem_from_spec, sweep
from .rates import RateParams, phase_grid, theoretical_rate
from .transfer import transfer_value


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

    def path(self, name: str) -> str:
        tmp = os.path.join(self.out_dir, f".{name}.tmp-{os.getpid()}")
        self._staged.append((tmp, os.path.join(self.out_dir, name)))
        return tmp

    def write_rows(self, name: str, header, rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def write_json(self, name: str, payload) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=True)
            fh.write("\n")

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


def parse_grid(text: str, field: str):
    """Parse start:end:step (end included when on-step within 1e-12)."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(field, f"expected start:end[:step], got '{text}'")
    try:
        start = float(parts[0])
        end = float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise ConfigError(field, f"non-numeric grid bound in '{text}'") from None
    if step <= 0:
        raise ConfigError(field, "step must be positive")
    if end < start:
        raise ConfigError(field, "end must be >= start")
    count = int(math.floor((end - start) / step + 1e-12)) + 1
    return [start + i * step for i in range(count)]


def _parse_assignments(text: str, field: str) -> dict:
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(field, f"expected key=value, got '{item}'")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(field, f"non-numeric value in '{item}'") from None
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"malformed JSON: {exc}") from None


def _require(obj: dict, key: str, caster, where: str = ""):
    label = f"{where}.{key}" if where else key
    if key not in obj:
        raise ConfigError(label, "missing")
    if caster is int:
        return config_integer(obj[key], label)
    try:
        return caster(obj[key])
    except (TypeError, ValueError):
        raise ConfigError(label, "invalid value") from None


def _count(obj: dict, key: str, least: int, default: int | None = None) -> int:
    """obj[key] as an integer >= least; default when given and absent."""
    if default is not None and key not in obj:
        return default
    value = _require(obj, key, int)
    if value < least:
        raise ConfigError(key, f"must be at least {least}, got {value}")
    return value


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("TRANSFER_KNN_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("TRANSFER_KNN_THREADS", f"not an integer: '{env}'")
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_transfer(args, stager: OutputStager) -> None:
    cfg = _load_json(args.config)
    allowed = {"source", "target"}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(key, "unknown field")
    P = family_from_spec(cfg.get("source"), "source")
    Q = family_from_spec(cfg.get("target"), "target")
    grid = parse_grid(args.gamma_grid, "--gamma-grid")
    evals = [transfer_value(P, Q, g) for g in grid]
    header = ["gamma", "value", "method", "error_estimate", "converged"]
    rows = [
        (e.gamma, e.value, e.method, e.error_estimate, e.converged) for e in evals
    ]
    if args.format == "json":
        stager.write_json(
            "transfer.json", [dict(zip(header, row)) for row in rows]
        )
    else:
        stager.write_rows("transfer.csv", header, rows)


def _rate_params_from(cfg: dict) -> tuple[RateParams, str]:
    allowed = {"gamma", "s", "beta", "d", "n", "m", "transfer_p", "transfer_q", "mode"}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(key, "unknown field")
    mode = cfg.get("mode", "exponents_only")
    if mode not in ("exponents_only", "full"):
        raise ConfigError("mode", f"unknown mode '{mode}'")
    try:
        params = RateParams(
            gamma=_require(cfg, "gamma", float),
            s=_require(cfg, "s", float),
            beta=_require(cfg, "beta", float),
            d=_require(cfg, "d", int),
            n=_require(cfg, "n", float),
            m=_require(cfg, "m", float),
            transfer_p=None if cfg.get("transfer_p") is None else float(cfg["transfer_p"]),
            transfer_q=None if cfg.get("transfer_q") is None else float(cfg["transfer_q"]),
        )
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None
    return params, mode


def _cmd_rates(args, stager: OutputStager) -> None:
    cfg = _load_json(args.config)
    params, mode = _rate_params_from(cfg)
    if args.mode is not None:
        mode = args.mode
    try:
        report = theoretical_rate(params, mode=mode)
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from None
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
        "flags": list(report.flags),
    }
    if args.format == "json":
        stager.write_json("rates.json", payload)
    else:
        header = [k for k in payload if k != "flags"]
        stager.write_rows("rates.csv", header, [tuple(payload[k] for k in header)])


def _cmd_phase(args, stager: OutputStager) -> None:
    fixed = _parse_assignments(args.fix, "--fix")
    keys = set(fixed)
    if keys == {"gamma", "s"}:
        if args.log_n is None or args.log_m is None:
            raise ConfigError("--log-n", "required when fixing gamma and s")
        axis1 = [10.0**v for v in parse_grid(args.log_n, "--log-n")]
        axis2 = [10.0**v for v in parse_grid(args.log_m, "--log-m")]
    elif keys == {"n", "m"}:
        if args.gamma_axis is None or args.s_axis is None:
            raise ConfigError("--gamma-axis", "required when fixing n and m")
        axis1 = parse_grid(args.gamma_axis, "--gamma-axis")
        axis2 = parse_grid(args.s_axis, "--s-axis")
    else:
        raise ConfigError("--fix", "must fix exactly gamma,s or n,m")
    try:
        grid = phase_grid(args.beta, args.d, fixed, axis1, axis2)
    except ValueError as exc:
        raise ConfigError("--fix", str(exc)) from None
    header = [
        grid.axis1_name,
        grid.axis2_name,
        "configuration",
        "regime",
        "source_exp",
        "target_exp",
        "rate",
    ]
    rows = []
    for i, v1 in enumerate(grid.axis1):
        for j, v2 in enumerate(grid.axis2):
            rep = grid.reports[i][j]
            rows.append(
                (
                    v1,
                    v2,
                    rep.configuration,
                    rep.regime,
                    rep.source_exp,
                    rep.target_exp,
                    rep.rate_value,
                )
            )
    line_header = ["name", "description", "slope", "intercept"]
    line_rows = [
        (ln.name, ln.description, ln.slope, ln.intercept)
        for ln in grid.boundary_lines
    ]
    if args.format == "json":
        stager.write_json(
            "phase.json",
            {
                "mode": grid.mode,
                "cells": [dict(zip(header, row)) for row in rows],
                "boundary_lines": [dict(zip(line_header, r)) for r in line_rows],
            },
        )
    else:
        stager.write_rows("phase.csv", header, rows)
        stager.write_rows("phase_lines.csv", line_header, line_rows)


def _cmd_simulate(args, stager: OutputStager) -> None:
    cfg = _load_json(args.config)
    allowed = {"source", "target", "f_star", "noise", "estimator", "n", "m",
               "n_test", "seed"}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(key, "unknown field")
    source, target, f_star, noise, est_cfg = problem_from_spec(cfg)
    n = _count(cfg, "n", 0)
    m = _count(cfg, "m", 0)
    if n + m < 1:
        raise ConfigError("n, m", "at least one of the two samples must be nonempty")
    n_test = _count(cfg, "n_test", 1)
    seed = args.seed if args.seed is not None else _require(cfg, "seed", int)
    if seed < 0:
        raise ConfigError("seed", f"must be at least 0, got {seed}")
    if n > 0 and source is None:
        raise ConfigError("source", "required when n > 0")
    ss = np.random.SeedSequence(seed)
    rng_src, rng_tgt, rng_test = (np.random.default_rng(c) for c in ss.spawn(3))
    src_data = generate_data(source, f_star, noise, n, rng_src) if n > 0 else None
    tgt_data = generate_data(target, f_star, noise, m, rng_tgt) if m > 0 else None
    est = fit(src_data, tgt_data, est_cfg)
    Xq = target.sample_array(rng_test, n_test)
    values, k_p, k_q, p_hat, q_hat = est.predict_batch(Xq, workers=_threads(args))
    d = est_cfg.d
    write_labeled_csv(
        stager.path("train_source.csv"),
        src_data[0] if src_data else np.empty((0, d)),
        src_data[1] if src_data else np.empty(0),
    )
    write_labeled_csv(
        stager.path("train_target.csv"),
        tgt_data[0] if tgt_data else np.empty((0, d)),
        tgt_data[1] if tgt_data else np.empty(0),
    )
    write_predictions_csv(
        stager.path("predictions.csv"), Xq, values, k_p, k_q, p_hat, q_hat
    )


def _cmd_sweep(args, stager: OutputStager) -> None:
    cfg = _load_json(args.config)
    if args.seed is not None:
        cfg = dict(cfg)
        cfg["seed"] = args.seed
    config = experiment_from_spec(cfg)
    result = sweep(config, threads=_threads(args))
    rep_header = ["n", "m", "rep", "risk", "seed"]
    rep_rows = [(r.n, r.m, r.rep, r.risk, r.seed) for r in result.records]
    agg_header = ["n", "m", "mean_risk", "stderr", "q50", "q90"]
    agg_rows = [
        (e.n, e.m, e.mean, e.stderr, e.q50, e.q90) for e in result.estimates
    ]
    if args.format == "json":
        stager.write_json(
            "sweep.json",
            {
                "reps": [dict(zip(rep_header, r)) for r in rep_rows],
                "aggregate": [dict(zip(agg_header, r)) for r in agg_rows],
            },
        )
    else:
        stager.write_rows("sweep_reps.csv", rep_header, rep_rows)
        stager.write_rows("sweep_aggregate.csv", agg_header, agg_rows)


def _cmd_check_regularity(args, stager: OutputStager) -> None:
    cfg = _load_json(args.config)
    allowed = {"distribution", "theta", "x_points", "r_points"}
    for key in cfg:
        if key not in allowed:
            raise ConfigError(key, "unknown field")
    dist = family_from_spec(_require(cfg, "distribution", dict), "distribution")
    theta = _require(cfg, "theta", float) if "theta" in cfg else dist.local_mass_theta
    if theta is None:
        raise ConfigError("theta", "missing and no built-in value for this family")
    if not 0.0 < theta < math.inf:
        raise ConfigError("theta", f"must be a positive number, got {theta}")
    nx = _count(cfg, "x_points", 1, default=50)
    nr = _count(cfg, "r_points", 1, default=20)
    if dist.dimension != 1:
        raise ConfigError("distribution", "regularity grid check requires 1-D")
    x_grid = [float(dist.ppf((i + 0.5) / nx)) for i in range(nx)]
    r_grid = [(j + 1) / nr for j in range(nr)]
    report = local_mass_check(dist, theta, x_grid, r_grid)
    summary = {
        "family": dist.spec(),
        "theta": report.theta,
        "passed": report.passed,
        "min_ratio": report.min_ratio,
        "max_ratio": report.max_ratio,
        "n_checked": report.n_checked,
        "n_failures": len(report.failures),
    }
    fail_header = ["x", "r", "ratio"]
    if args.format == "json":
        summary["failures"] = [
            dict(zip(fail_header, f)) for f in report.failures
        ]
        stager.write_json("regularity.json", summary)
    else:
        stager.write_rows(
            "regularity.csv",
            ["key", "value"],
            [(k, v) for k, v in summary.items() if k != "family"],
        )
        stager.write_rows("regularity_failures.csv", fail_header, report.failures)


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="transfer-knn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("transfer", help="evaluate the transfer function on a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--gamma-grid", required=True, help="start:end:step")
    common(p)

    p = sub.add_parser("rates", help="classify a configuration and its rate")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("exponents_only", "full"), default=None)
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

    p = sub.add_parser("sweep", help="Monte Carlo risk sweep over (n, m) cells")
    p.add_argument("--config", required=True)
    common(p)

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
