"""Theoretical convergence-rate calculus for two-sample regression.

Everything here is a pure function of the five parameters
(gamma, s, r_beta, n, m).  A configuration is supercritical when
(gamma - r_beta)(s - r_beta) < 0, critical at equality, subcritical
otherwise.  Supercritical configurations with m inside the window
between n and n^(gamma/s) follow the accelerated rate

    n^(-gamma a) m^(-s (1 - a)),    a = (r_beta - s)/(gamma - s),

whose exponents always sum to r_beta; everything else follows the wedge
rate min(n^-(gamma ^ r_beta), m^-(s ^ r_beta)).

Both modes build these rates from one term per sample, with
term(0, e) = inf for an absent sample:

    exponents_only:  term(n, e) = n^-e
    full:            term(n, e) = (log(nm) / n)^e

The accelerated rate is coef term(n, gamma a) term(m, s (1 - a)) and the
wedge rate min(T_p term(n, gamma ^ r_beta), T_q term(m, s ^ r_beta)).
In exponents_only mode coef and the T values are one; in full mode they
are the caller-supplied transfer-function values, coef = T_p^a T_q^(1-a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"

WEDGE = "wedge"
ACCELERATED = "accelerated"

SOURCE = "source"
TARGET = "target"


@dataclass(frozen=True)
class RateParams:
    """Inputs to the rate formulas; n and m may be real-valued."""

    gamma: float
    s: float
    beta: float
    d: int
    n: float
    m: float
    transfer_p: float | None = None  # T value multiplying the source factor
    transfer_q: float | None = None  # T value multiplying the target factor

    def __post_init__(self):
        # T(P, Q, gamma) > 0 for every pair; a given T must be too, and finite.
        for name in ("gamma", "s", "transfer_p", "transfer_q"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(name, f"must be positive, got {value}")
            if name.startswith("transfer") and value == math.inf:
                raise ConfigError(name, "must be finite, got inf")
        r_beta(self.beta, self.d)
        for name, value in (("n", self.n), ("m", self.m)):
            if not 0 <= value < math.inf:
                raise ConfigError(name, f"must be finite and nonnegative, got {value}")
        if self.n == 0 and self.m == 0:
            raise ConfigError("n, m", "cannot both vanish")


@dataclass(frozen=True)
class RegimeReport:
    r_beta: float
    configuration: str  # subcritical | critical | supercritical
    regime: str  # wedge | accelerated
    driver: str | None  # source | target for the wedge; None otherwise
    window: tuple[float, float] | None  # m-interval enabling acceleration
    rate_value: float
    source_exp: float
    target_exp: float
    flags: tuple = ()


def r_beta(beta: float, d: int) -> float:
    """The nonparametric exponent 2 beta / (2 beta + d)."""
    if not 0.0 < beta <= 1.0:
        raise ConfigError("beta", f"must lie in (0, 1], got {beta}")
    if d < 1:
        raise ConfigError("d", f"must be a positive integer, got {d}")
    try:
        return 2.0 * beta / (2.0 * beta + d)
    except OverflowError:
        raise ConfigError("d", "is too large for a float") from None


def classify_configuration(gamma: float, s: float, r_b: float) -> str:
    """Sign of (gamma - r_beta)(s - r_beta); exact zero is critical."""
    prod = (gamma - r_b) * (s - r_b)
    if prod < 0.0:
        return SUPERCRITICAL
    if prod == 0.0:
        return CRITICAL
    return SUBCRITICAL


def acceleration_window(n: float, gamma: float, s: float) -> tuple[float, float]:
    """The ordered m-interval between n and n^(gamma/s)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if gamma <= 0 or s <= 0:
        raise ValueError("gamma and s must be positive")
    if gamma == s:
        raise ValueError("gamma = s leaves no window")
    log_edge = (gamma / s) * math.log(n)
    edge = math.inf if log_edge > 700.0 else math.exp(log_edge)
    return (min(n, edge), max(n, edge))


def theoretical_rate(params: RateParams, mode: str = "exponents_only") -> RegimeReport:
    """Classify the configuration and evaluate the minimax-rate formula."""
    if mode not in ("exponents_only", "full"):
        raise ValueError(f"unknown mode '{mode}'")
    gamma, s, n, m = params.gamma, params.s, params.n, params.m
    r_b = r_beta(params.beta, params.d)
    config = classify_configuration(gamma, s, r_b)

    window = None
    if config == SUPERCRITICAL and n >= 1:
        window = acceleration_window(n, gamma, s)
    accelerated = window is not None and m >= 1 and window[0] <= m <= window[1]

    full = mode == "full"
    if full:
        if not max(n, m) >= 2:
            raise ConfigError("n, m", "full mode needs n or m >= 2 for the log factors")
        n1, m1 = max(n, 1.0), max(m, 1.0)
        # n m can pass the largest float where its log does not.
        log_nm = math.log(n1 * m1) if n1 * m1 < math.inf else math.log(n1) + math.log(m1)

    def term(size: float, exp: float) -> float:
        """One sample's rate factor; an absent sample (size 0) gives none."""
        if size == 0.0:
            return math.inf
        return (log_nm / size) ** exp if full else size**-exp

    if accelerated:
        a = (r_b - s) / (gamma - s)
        src_exp = gamma * a
        tgt_exp = s * (1.0 - a)
        coef = 1.0
        if full:
            if params.transfer_p is None or params.transfer_q is None:
                raise ConfigError(
                    "transfer_p, transfer_q",
                    "full mode needs both transfer values in the accelerated regime",
                )
            coef = params.transfer_p**a * params.transfer_q ** (1.0 - a)
        return RegimeReport(
            r_beta=r_b,
            configuration=config,
            regime=ACCELERATED,
            driver=None,
            window=window,
            rate_value=coef * term(n, src_exp) * term(m, tgt_exp),
            source_exp=src_exp,
            target_exp=tgt_exp,
        )

    r_s = min(gamma, r_b)
    r_t = min(s, r_b)
    # The paper is silent on a full-mode wedge term whose transfer value
    # is unavailable; report the other term alone and flag the omission.
    weights = (params.transfer_p, params.transfer_q) if full else (1.0, 1.0)
    src_term, tgt_term = (
        math.inf if weight is None else weight * term(size, exp)
        for weight, size, exp in zip(weights, (n, m), (r_s, r_t))
    )
    flags = tuple(
        f"{side} term omitted: no transfer value"
        for side, weight in zip((SOURCE, TARGET), weights)
        if weight is None
    )
    if src_term == tgt_term == math.inf:
        # An empty sample has no term, so only the other sample's T is at fault.
        if n == 0 or m == 0:
            field, empty = ("transfer_q", "n") if n == 0 else ("transfer_p", "m")
            raise ConfigError(field, f"full-mode wedge needs it when {empty} = 0")
        raise ConfigError(
            "transfer_p, transfer_q", "full-mode wedge needs at least one of them"
        )
    return RegimeReport(
        r_beta=r_b,
        configuration=config,
        regime=WEDGE,
        driver=SOURCE if src_term <= tgt_term else TARGET,
        window=window,
        rate_value=min(src_term, tgt_term),
        source_exp=r_s,
        target_exp=r_t,
        flags=flags,
    )


def lower_bound_rate(params: RateParams) -> float:
    """Minimax lower-bound rate with its constant set to one.

    Transcribed directly from the lower-bound statement; kept separate
    from theoretical_rate so the two can be cross-checked against each
    other.
    """
    gamma, s, n, m = params.gamma, params.s, params.n, params.m
    r_b = 2.0 * params.beta / (2.0 * params.beta + params.d)
    in_window = False
    if (gamma - r_b) * (s - r_b) < 0.0 and gamma != s and n >= 1 and m >= 1:
        log_edge = (gamma / s) * math.log(n)
        edge = math.inf if log_edge > 700.0 else math.exp(log_edge)
        lo, hi = sorted((n, edge))
        in_window = lo <= m <= hi
    if in_window:
        return m ** (-s * (gamma - r_b) / (gamma - s)) * n ** (
            -gamma * (r_b - s) / (gamma - s)
        )
    src = math.inf if n == 0 else n ** -min(gamma, r_b)
    tgt = math.inf if m == 0 else m ** -min(s, r_b)
    return min(src, tgt)


# ---------------------------------------------------------------------------
# Phase diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryLine:
    """A regime boundary, as slope/intercept in the grid's coordinates.

    For (n, m) grids the coordinates are (log n, log m); a vertical line
    in a (gamma, s) grid is encoded with slope = inf and the crossing
    abscissa stored in `intercept`.
    """

    name: str
    description: str
    slope: float
    intercept: float


@dataclass(frozen=True)
class PhaseGrid:
    axis1_name: str
    axis2_name: str
    axis1: tuple
    axis2: tuple
    reports: tuple  # reports[i][j] pairs axis1[i] with axis2[j]
    boundary_lines: tuple


def phase_grid(
    beta: float,
    d: int,
    fixed: dict,
    axis1,
    axis2,
) -> PhaseGrid:
    """Cell-wise regime classification over an (n, m) or (gamma, s) grid.

    `fixed` holds either {"gamma": g, "s": s} (grid over n and m) or
    {"n": n, "m": m} (grid over gamma and s).
    """
    r_b = r_beta(beta, d)
    a1 = tuple(float(v) for v in axis1)
    a2 = tuple(float(v) for v in axis2)
    if set(fixed) == {"gamma", "s"}:
        mode, held_names, varied = "nm", ("gamma", "s"), ("n", "m")
    elif set(fixed) == {"n", "m"}:
        mode, held_names, varied = "gamma_s", ("n", "m"), ("gamma", "s")
    else:
        raise ValueError("fixed must supply exactly {gamma, s} or {n, m}")
    held = {name: float(fixed[name]) for name in held_names}
    reports = tuple(
        tuple(
            theoretical_rate(
                RateParams(beta=beta, d=d, **held, **dict(zip(varied, (v1, v2))))
            )
            for v2 in a2
        )
        for v1 in a1
    )
    if mode == "nm":
        gamma, s = held["gamma"], held["s"]
        lines = (
            BoundaryLine("a(s)", "s log m = r_beta log n", r_b / s, 0.0),
            BoundaryLine("b(s)", "s log m = gamma log n", gamma / s, 0.0),
            BoundaryLine("I", "log m = log n", 1.0, 0.0),
            BoundaryLine("M", "r_beta log m = gamma log n", gamma / r_b, 0.0),
        )
    else:
        n, m = held["n"], held["m"]
        lines = (
            BoundaryLine("gamma_critical", "gamma = r_beta", math.inf, r_b),
            BoundaryLine("s_critical", "s = r_beta", 0.0, r_b),
        )
        if m > 1:
            lines += (
                BoundaryLine(
                    "window_edge",
                    "s = gamma log n / log m",
                    math.log(max(n, 1.0)) / math.log(m),
                    0.0,
                ),
            )
    return PhaseGrid(*varied, a1, a2, reports, lines)
