"""The transfer function T(P, Q, gamma) = E_{X~Q}[p(X)^-gamma].

Values come from closed forms where a pair admits one, otherwise from
adaptive quadrature with heavy-tail divergence detection for a 1-D
pair, and from fixed-seed Monte Carlo in d >= 2.  The
integrability index gamma* = sup{gamma >= 0 : T < oo} is reported as a
bracket (largest confirmed-finite grid point, smallest diverging one),
never as a point estimate: divergence of an integral is invisible to
finite numerics, so any point claim would overreach.

The domain {gamma >= 0 : T < oo} is an interval that starts at 0: for
gamma < gamma', p^-gamma <= 1 where p >= 1 and p^-gamma <= p^-gamma'
where p < 1, so T(gamma) <= 1 + T(gamma').  So estimate_index evaluates
a grid only up to its first divergent point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._integrate import improper_quad, libm, log_quad
from .distributions import DistributionFamily, Exponential, Pareto, Uniform
from .errors import NumericError

_MC_DRAWS = 100_000
_MC_SEED = 0x7AA45FE2


@dataclass(frozen=True)
class TransferEvaluation:
    gamma: float
    value: float  # +inf flags divergence
    method: str  # closed_form | quadrature | monte_carlo
    error_estimate: float
    converged: bool


@dataclass(frozen=True)
class IndexEstimate:
    """Bracket for gamma*: confirmed-finite below, diverging above."""

    lower_confirmed: float
    upper_confirmed: float
    evaluations: tuple  # per-gamma TransferEvaluation diagnostics


def _finite_closed_form(
    scale: float, base: float, power: float, denom: float, gamma: float
) -> float:
    """scale * base**power / denom, a closed-form T known to be finite.

    It is evaluated as written where that fits in a float.  The ratio
    scale / denom is at least 1 here, so T >= base**power, and T exceeds
    the largest float when base**power does; a T beyond it raises
    NumericError rather than read as divergent.
    """
    try:
        value = scale * base**power / denom
        if value == math.inf:
            # A partial product overflowed; the ratio first finds a T a float holds.
            value = scale / denom * base**power
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise NumericError(f"T at gamma={gamma} is finite but exceeds the largest float")
    return value


def _closed_form(P, Q, gamma: float) -> float | None:
    """T(P, Q, gamma) where analytic integration is available."""
    if isinstance(P, Exponential) and isinstance(Q, Exponential):
        if gamma * P.lam >= Q.lam:
            return math.inf
        return _finite_closed_form(Q.lam, P.lam, -gamma, Q.lam - gamma * P.lam, gamma)
    if isinstance(P, Pareto) and isinstance(Q, Pareto) and P.sigma == Q.sigma:
        if gamma * (P.alpha + 1.0) >= Q.alpha:
            return math.inf
        return _finite_closed_form(
            Q.alpha, P.sigma / P.alpha, gamma, Q.alpha - gamma * (P.alpha + 1.0), gamma
        )
    if isinstance(P, Uniform) and isinstance(Q, Uniform) and P.support == Q.support:
        return _finite_closed_form(1.0, P.b - P.a, gamma, 1.0, gamma)
    return None


class _PairMemo:
    """What every gamma of one (P, Q) pair shares.

    nodes maps a head node x of the quadrature to (log q(x), log p(x)).
    tail_nodes maps an array of tail nodes t = log x, by its shape and
    bytes, to the read-only arrays log q and log p at x = exp(t): every
    gamma integrates the same tail windows in the same chunks, so each
    chunk's log densities are computed once, in one log_density call per
    side.  mc_log_p is log p at the _MC_DRAWS fixed-seed Monte Carlo
    draws from Q, read-only.  Threads that race on a missing entry each
    store the same values.
    """

    def __init__(self, P, Q):
        self.P, self.Q = P, Q
        self.nodes, self.tail_nodes = {}, {}

    def node(self, x: float) -> tuple[float, float]:
        """(log q(x), log p(x)), stored in nodes under x."""
        self.nodes[x] = pair = (self.Q.log_density(x), self.P.log_density(x))
        return pair

    def tail_logs(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log q, log p) at x = exp(t) for each t of ts, stored in tail_nodes."""
        key = (ts.shape, ts.tobytes())
        pair = self.tail_nodes.get(key)
        if pair is None:
            xs = libm(math.exp, ts)
            pair = (self.Q.log_density(xs), self.P.log_density(xs))
            for side in pair:
                side.setflags(write=False)
            self.tail_nodes[key] = pair
        return pair

    @functools.cached_property
    def mc_log_p(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence(_MC_SEED))
        log_p = self.P.log_density(self.Q.sample_array(rng, _MC_DRAWS))
        log_p.setflags(write=False)
        return log_p


@functools.lru_cache(maxsize=1)
def _pair_memo(P, Q) -> _PairMemo:
    """The memo of the most recent pair; the families are frozen and hashable."""
    return _PairMemo(P, Q)


def _uncovered(P, Q) -> bool:
    """Whether Q's support reaches outside P's, where p vanishes."""
    (p_lo, p_hi), (q_lo, q_hi) = P.support, Q.support
    return q_lo < p_lo or q_hi > p_hi


def _quadrature(P, Q, gamma: float) -> tuple[float, float, bool]:
    """int q p^-gamma over Q's support as (value, error, converged).

    The integrand goes to _integrate as its log, log q - gamma log p;
    on the tail windows of an unbounded support, in t = log x, it is that
    at x = e^t plus t.  Where q > 0 = p the integrand is infinite, so a Q whose support
    reaches outside P's diverges at once, with no node evaluated.  On a
    bounded support only that can make the integral diverge: the
    families' densities are bounded away from 0 on compact parts of
    their support, so a large value is still a finite one, and one
    beyond the largest float raises NumericError.  The log
    densities at each node come from the pair's memo, so every gamma
    after the first evaluates only the nodes it adds.
    """
    if _uncovered(P, Q):
        return math.inf, math.inf, False
    memo = _pair_memo(P, Q)
    nodes, node = memo.nodes, memo.node

    def log_f(x: float) -> float:
        lq, lp = nodes.get(x) or node(x)
        return lq - gamma * lp

    def log_tail(ts: np.ndarray) -> np.ndarray:
        lq, lp = memo.tail_logs(ts)
        return lq - gamma * lp + ts

    lo, hi = Q.support
    if math.isinf(hi):
        res = improper_quad(log_f, log_tail, lo)
        return res.value, res.error, res.converged
    value, err = log_quad(log_f, lo, hi)
    if math.isfinite(value):
        return value, err, True
    raise NumericError(f"T at gamma={gamma} is finite but exceeds the largest float")


def transfer_value(
    P: DistributionFamily, Q: DistributionFamily, gamma: float
) -> TransferEvaluation:
    """Evaluate T(P, Q, gamma); value +inf with converged=False on divergence.

    The pair fixes the route: a closed form where one exists, otherwise
    quadrature for a 1-D pair and fixed-seed Monte Carlo in d >= 2.
    A NaN or infinite gamma raises ValueError before any route runs.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        return TransferEvaluation(0.0, 1.0, "closed_form", 0.0, True)

    cf = _closed_form(P, Q, gamma)
    if cf is not None:
        return TransferEvaluation(gamma, cf, "closed_form", 0.0, math.isfinite(cf))
    if P.dimension == 1 and Q.dimension == 1:
        value, err, ok = _quadrature(P, Q, gamma)
        return TransferEvaluation(gamma, value, "quadrature", err, ok)

    if P.dimension != Q.dimension:
        raise ValueError("P and Q must share a dimension")
    logs = -gamma * _pair_memo(P, Q).mc_log_p
    if np.any(np.isinf(logs)):
        return TransferEvaluation(gamma, math.inf, "monte_carlo", math.inf, False)
    vals = np.exp(logs)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(_MC_DRAWS))
    return TransferEvaluation(gamma, mean, "monte_carlo", stderr, math.isfinite(mean))


def estimate_index(
    P: DistributionFamily, Q: DistributionFamily, gamma_grid
) -> IndexEstimate:
    """Bracket gamma* by evaluating the transfer function on a sorted grid.

    T is infinite above any gamma where it is infinite: p^-gamma <=
    1 + p^-gamma' for gamma < gamma', so T(gamma) <= 1 + T(gamma').  So
    transfer_value runs only up to the first divergent grid point, and
    each larger gamma gets that evaluation with its own gamma.
    """
    grid = [float(g) for g in gamma_grid]
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    if bad := [g for g in grid if not math.isfinite(g)]:
        raise ValueError(f"gamma grid must be finite, got gamma {bad[0]}")
    if any(g < 0 for g in grid) or sorted(grid) != grid:
        raise ValueError("gamma grid must be nonnegative and increasing")
    evals = []
    for g in grid:
        if evals and not evals[-1].converged:
            evals.append(replace(evals[-1], gamma=g))
        else:
            evals.append(transfer_value(P, Q, g))
    diverged = [e.gamma for e in evals if not e.converged]
    upper = min(diverged) if diverged else math.inf
    converged = [e.gamma for e in evals if e.converged]
    lower = max(converged) if converged else 0.0
    return IndexEstimate(
        lower_confirmed=lower, upper_confirmed=upper, evaluations=tuple(evals)
    )
