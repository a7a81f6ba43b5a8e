"""Adaptive quadrature for heavy-tailed integrals on [x0, oo).

The head [x0, x0 + 8] of the integral is computed by ordinary adaptive
quadrature in x.  The tail is summed over windows [t, t + log 2] after
the substitution t = log x, which keeps every window resolvable in
floating point arbitrarily far out; its integrand is e^t f(e^t), a
function of t, so a caller can key its work on t.  Divergence is
declared when the running total exceeds VALUE_CUTOFF or when the
doubling sequence fails to stabilize (relative change per doubling >=
STABLE_REL at the cap).

Every window is one scipy quad call in full-output mode, which returns
QUADPACK's failure message instead of issuing an IntegrationWarning, so
no call touches the process-wide warning filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

VALUE_CUTOFF = 1.0e6
STABLE_REL = 1.0e-4
# Early exit once a window contributes below this relative amount.
_EXIT_REL = 1.0e-13
# Cap on log x: e^690 is near the largest double.
_T_MAX = 690.0
# Width of the head [x0, x0 + _HEAD_WIDTH] integrated before the windows.
_HEAD_WIDTH = 8.0
_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=200, full_output=1)


@dataclass(frozen=True)
class TailIntegral:
    value: float
    error: float
    converged: bool


def exp_clamped(log_value: float) -> float:
    """exp(log_value), with inf above 700 instead of an OverflowError."""
    return math.inf if log_value > 700.0 else math.exp(log_value)


def bounded_quad(f, lo: float, hi: float) -> tuple[float, float]:
    """(value, error) of plain adaptive quadrature on a finite interval.

    A QUADPACK failure (ier != 0) still returns its best estimate and
    error bound; its message is dropped and no warning is issued.
    """
    return quad(f, lo, hi, **_QUAD_KW)[:2]


def improper_quad(head, tail, x0: float) -> TailIntegral:
    """Integrate f over [x0, oo) with divergence detection.

    head(x) is f(x) on the head [x0, x0 + 8]; tail(t) is e^t f(e^t),
    the integrand in t = log x beyond it.
    """
    x1 = x0 + _HEAD_WIDTH
    total, err = bounded_quad(head, x0, x1)
    if not math.isfinite(total) or total > VALUE_CUTOFF:
        return TailIntegral(math.inf, math.inf, False)
    t = math.log(x1)
    last_rel = math.inf
    while t < _T_MAX:
        # Full log-2 windows throughout: a truncated final window would
        # understate the last relative change and fake stabilization.
        t_next = t + math.log(2.0)
        piece, piece_err = bounded_quad(tail, t, t_next)
        if not math.isfinite(piece):
            return TailIntegral(math.inf, math.inf, False)
        total += piece
        err += piece_err
        if total > VALUE_CUTOFF:
            return TailIntegral(math.inf, math.inf, False)
        last_rel = piece / total if total > 0 else 0.0
        if last_rel < _EXIT_REL:
            return TailIntegral(total, err + piece, True)
        t = t_next
    # Reached the cap: stabilized sequences count as converged, with the
    # last window kept as a truncation-error proxy.
    if last_rel < STABLE_REL:
        return TailIntegral(total, err + last_rel * total, True)
    return TailIntegral(math.inf, math.inf, False)
