"""Adaptive quadrature for heavy-tailed integrals on [x0, oo).

Integrands are supplied through their logarithm so that extreme tail
values (x up to e^690) neither overflow nor underflow prematurely.  The
head of the integral is computed by ordinary adaptive quadrature; the
tail is summed over geometrically doubling windows [M, 2M] after the
substitution t = log x, which keeps every window resolvable in floating
point arbitrarily far out.  Divergence is declared when the running
total exceeds VALUE_CUTOFF or when the doubling sequence fails to
stabilize (relative change per doubling >= STABLE_REL at the cap).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.integrate import IntegrationWarning, quad

VALUE_CUTOFF = 1.0e6
STABLE_REL = 1.0e-4
# Early exit once a window contributes below this relative amount.
_EXIT_REL = 1.0e-13
# Cap on log x: e^690 is near the largest double.
_T_MAX = 690.0
# Width of the head [x0, x0 + _HEAD_WIDTH] integrated before the windows.
_HEAD_WIDTH = 8.0
_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


@dataclass(frozen=True)
class TailIntegral:
    value: float
    error: float
    converged: bool


def _exp_clamped(log_value: float) -> float:
    if log_value == -math.inf:
        return 0.0
    if log_value > 700.0:
        return math.inf
    return math.exp(log_value)


def bounded_quad(f, lo: float, hi: float) -> tuple[float, float]:
    """Plain adaptive quadrature on a finite interval, warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, lo, hi, **_QUAD_KW)


def improper_quad(log_f, x0: float) -> TailIntegral:
    """Integrate exp(log_f(x)) over [x0, oo) with divergence detection."""
    x1 = x0 + _HEAD_WIDTH
    head, head_err = bounded_quad(lambda x: _exp_clamped(log_f(x)), x0, x1)
    if not math.isfinite(head) or head > VALUE_CUTOFF:
        return TailIntegral(math.inf, math.inf, False)

    def g(t):
        return _exp_clamped(log_f(math.exp(t)) + t)

    total = head
    err = head_err
    t = math.log(x1)
    last_rel = math.inf
    while t < _T_MAX:
        # Full log-2 windows throughout: a truncated final window would
        # understate the last relative change and fake stabilization.
        t_next = t + math.log(2.0)
        piece, piece_err = bounded_quad(g, t, t_next)
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
