"""Adaptive quadrature of positive integrands given by their logs.

Every integrand reaches this module as log f, and only here does it
become a float: log_quad integrates f on a finite interval, rescaled by
a power of two where it passes exp's clamp, and improper_quad over
[x0, oo).  The head [x0, x0 + 8] of the latter is one log_quad.  The
tail is summed over windows [t, t + log 2] after the substitution
t = log x, which keeps every window resolvable in floating point
arbitrarily far out; its log integrand is t + log f(e^t), a function of
an array of t, so a caller can compute a whole chunk of nodes at once.
Divergence is declared when the running total exceeds
VALUE_CUTOFF or when the doubling sequence fails to stabilize (relative
change per doubling >= STABLE_REL at the cap).

The tail windows are integrated a chunk at a time.  One vectorised pass
takes the chunk's logs through exp_clamped_array (inf above 700) and
reproduces, bit for bit, the first 21-point Gauss-Kronrod step (dqk21)
of QUADPACK's dqagse on every window, and dqagse's test of whether it
stops there.  A window that passes has exactly the (value, error)
scipy's quad returns for it; only a window QUADPACK would bisect, and
that the running sums reach, goes to log_quad.  A chunk ends just
before its next such window, which opens the next chunk, so log_quad
only ever redoes a chunk's first window, and the sums add each chunk
with one np.cumsum, which adds in order.

numpy is exact for +, -, *, /, abs, min, max and the comparisons, but
its exp, log, log1p and power differ from libm's in the last bit on some
inputs, so those go through `libm`: math's function mapped over the
elements of an array, with no Python frame per element.  `libm` takes
further argument iterables, as map does, and exp_clamped_array does its
clamp in one numpy pass, so neither needs a lambda.

The first chunk holds 64 windows, each later one as many as all before
it, up to 256.  A first_pass call costs about 80 us before any window
and about 1.9 us a window on a transfer tail (2-core x86 VM, numpy 2.4),
so its fixed cost is the work of some 40 windows, and a tail that stops
within a few windows loses little to a first chunk of 64.  A chunk never
holds more windows than the ones before it, which the sums used, so an
integral that uses `used` windows evaluates at most max(64, 2 * used),
plus one chunk per bisected window the sums reach, whose chunk it cuts.

Every quad call runs in full-output mode, which returns QUADPACK's
failure message instead of issuing an IntegrationWarning, so no call
touches the process-wide warning filters.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

VALUE_CUTOFF = 1.0e6
STABLE_REL = 1.0e-4
# Early exit once a window contributes below this relative amount.
_EXIT_REL = 1.0e-13
# Cap on log x: e^690 is near the largest double.
_T_MAX = 690.0
# Width of the head [x0, x0 + _HEAD_WIDTH] integrated before the windows.
_HEAD_WIDTH = 8.0
_EPSABS, _EPSREL = 1e-13, 1e-11
_QUAD_KW = dict(epsabs=_EPSABS, epsrel=_EPSREL, limit=200, full_output=1)
# Tail windows per batched pass: the first chunk holds _CHUNK_FIRST, each
# later one as many as all before it, up to _CHUNK_CAP (see the module
# docstring for why 64).
_CHUNK_FIRST, _CHUNK_CAP = 64, 256

# dqk21's constants: the Kronrod abscissae above the centre, descending;
# their weights, with the centre's last; and the 10-point Gauss weights
# of the abscissae _XGK[1], _XGK[3], ..., _XGK[9].
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# The order in which dqk21 adds the abscissa pairs into resk and resabs.
_KRONROD_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
_EPMACH, _UFLOW = sys.float_info.epsilon, sys.float_info.min
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class TailIntegral:
    value: float
    error: float
    converged: bool


_DIVERGED = TailIntegral(math.inf, math.inf, False)


def libm(fn, xs, *more) -> np.ndarray:
    """fn, a function of floats such as math.exp, at each element of xs.

    The elements reach fn as Python floats through a memoryview, with no
    list of them built; each further iterable in more gives fn its next
    argument, element by element, as map's do.
    """
    xs = np.asarray(xs, dtype=np.float64)
    flat = memoryview(xs.ravel())
    return np.fromiter(map(fn, flat, *more), np.float64, xs.size).reshape(xs.shape)


def exp_clamped_array(log_values: np.ndarray) -> np.ndarray:
    """libm's exp at each element, inf above 700 instead of an OverflowError.

    The clamp is one numpy pass, so math.exp runs through map with no
    Python frame per element.
    """
    log_values = np.asarray(log_values, dtype=np.float64)
    out = libm(math.exp, np.minimum(log_values, 700.0))
    out[log_values > 700.0] = math.inf
    return out


def log_quad(log_f, lo: float, hi: float) -> tuple[float, float]:
    """(value, error) of plain adaptive quadrature of exp(log_f) on [lo, hi].

    log_f(x) is log f(x) at one point.  quad runs on exp(log_f - k log 2),
    k = 0 first and raised until no node passes exp's 700 clamp, and the
    result is scaled back by 2^k.  A result past the largest float, or a
    log value of +inf, gives (inf, inf).  A QUADPACK failure (ier != 0)
    still returns its best estimate and error bound, with no warning.
    """
    k, shift, peaks = 0, 0.0, [0.0]

    def f(x: float) -> float:
        v = log_f(x) - shift
        if v > 700.0:
            peaks.append(v)
            v = 700.0
        return math.exp(v)

    while peaks:
        peak = max(peaks)
        if peak == math.inf:
            return math.inf, math.inf
        k += math.ceil(peak / _LOG2)
        shift = k * _LOG2
        peaks.clear()
        value, error = quad(f, lo, hi, **_QUAD_KW)[:2]
    try:
        return math.ldexp(value, k), math.ldexp(error, k)
    except OverflowError:
        return math.inf, math.inf


def _added_in_order(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """first + terms[:, 0] + terms[:, 1] + ... per row, added left to right
    as dqk21's loops add: np.cumsum accumulates in order, where np.sum
    adds pairwise."""
    return np.cumsum(np.column_stack([first, terms]), axis=1)[:, -1]


def first_pass(f, a: np.ndarray, b: np.ndarray):
    """dqagse's first step on each window [a_i, b_i], with f evaluated once.

    f takes an array of nodes and returns the integrand at each.  Returns
    (result, abserr, kept): dqk21's estimate and error bound of every
    window, in its exact operation order, and whether dqagse returns them
    without bisecting, which is when quad(f, a_i, b_i) returns exactly
    them.  Its min and max are C's fmin and fmax, which drop a NaN
    operand, as in the C translation of QUADPACK scipy ships; so a window
    with an inf or NaN node is kept exactly when quad stops after it too.
    """
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK
    fv = f(np.column_stack([centr, centr[:, None] - absc, centr[:, None] + absc]))
    fc, fv1, fv2 = fv[:, 0], fv[:, 1:11], fv[:, 11:]
    with np.errstate(all="ignore"):
        fsum, wgk = fv1 + fv2, _WGK[:10]
        resg = _added_in_order(np.zeros(len(a)), _WG * fsum[:, 1::2])
        resk = _added_in_order(_WGK[10] * fc, (wgk * fsum)[:, _KRONROD_ORDER])
        terms = wgk * (np.abs(fv1) + np.abs(fv2))
        resabs = _added_in_order(np.abs(_WGK[10] * fc), terms[:, _KRONROD_ORDER])
        reskh = resk * 0.5
        terms = wgk * (np.abs(fv1 - reskh[:, None]) + np.abs(fv2 - reskh[:, None]))
        resasc = _added_in_order(_WGK[10] * np.abs(fc - reskh), terms)
        result = resk * hlgth
        resabs = resabs * np.abs(hlgth)
        resasc = resasc * np.abs(hlgth)
        abserr = np.abs((resk - resg) * hlgth)
        scaled = (resasc != 0.0) & (abserr != 0.0)
        ratio = 200.0 * abserr[scaled] / resasc[scaled]
        # min(1, ratio^1.5) is 1 from ratio 1 on, where pow could overflow.
        small = ratio < 1.0
        ratio[small] = libm(math.pow, ratio[small], itertools.repeat(1.5))
        abserr[scaled] = resasc[scaled] * np.fmin(1.0, ratio)
        floor = resabs > _UFLOW / (50.0 * _EPMACH)
        abserr[floor] = np.fmax((_EPMACH * 50.0) * resabs[floor], abserr[floor])
        errbnd = np.fmax(_EPSABS, _EPSREL * np.abs(result))
        kept = (
            ((abserr <= 100.0 * _EPMACH * resabs) & (abserr > errbnd))
            | ((abserr <= errbnd) & (abserr != resasc))
            | (abserr == 0.0)
        )
    return result, abserr, kept


def _window_starts(x1: float) -> np.ndarray:
    """log x1, then each start plus log 2, while below _T_MAX.

    np.cumsum adds in order, so every start is bit for bit the one a
    running `t += log 2` reaches.
    """
    t0, step = math.log(x1), _LOG2
    count = max(0, math.ceil((_T_MAX - t0) / step)) + 2
    starts = np.cumsum(np.concatenate([[t0], np.full(count, step)]))
    return starts[starts < _T_MAX]


def improper_quad(log_head, log_tail, x0: float) -> TailIntegral:
    """Integrate f over [x0, oo) with divergence detection.

    log_head(x) is log f(x) on the head [x0, x0 + 8]; log_tail(ts) is
    t + log f(e^t) at each t of an array, the log integrand in t = log x
    beyond it.

    The windows are added to the head's (value, error) in order, a chunk
    at a time by one np.cumsum, which adds as `total += piece` does.  A
    chunk ends just before its next window QUADPACK bisects, which opens
    the next chunk; log_quad redoes a bisected window only once it opens
    a chunk, when the sums have reached it.  The sums stop at the first
    window that is not finite, takes the total past VALUE_CUTOFF or adds
    less than _EXIT_REL of it.
    """
    x1 = x0 + _HEAD_WIDTH
    total, err = log_quad(log_head, x0, x1)
    if not math.isfinite(total) or total > VALUE_CUTOFF:
        return _DIVERGED
    # Full log-2 windows throughout: a truncated final window would
    # understate the last relative change and fake stabilization.
    starts, step = _window_starts(x1), _LOG2
    last_rel, size, done = math.inf, _CHUNK_FIRST, 0

    def tail(ts: np.ndarray) -> np.ndarray:
        return exp_clamped_array(log_tail(ts))

    while done < len(starts):
        a = starts[done : done + size]
        values, errors, kept = first_pass(tail, a, a + step)
        # The chunk ends just before its next window QUADPACK bisects,
        # which opens the next chunk.
        bisected = np.flatnonzero(~kept[1:])
        cut = int(bisected[0]) + 1 if len(bisected) else len(a)
        if not kept[0]:
            # The sums reach this bisected window: log_quad redoes it.
            lo = float(a[0])
            values[0], errors[0] = log_quad(
                lambda s: float(log_tail(np.array([s]))[0]), lo, lo + step
            )
        pieces = values[:cut]
        run = np.hstack([[[total], [err]], [pieces, errors[:cut]]])
        totals, errs = np.cumsum(run, axis=1)[:, 1:]
        with np.errstate(all="ignore"):
            rels = np.where(totals > 0.0, pieces / totals, 0.0)
            stops = ~np.isfinite(pieces) | (totals > VALUE_CUTOFF) | (rels < _EXIT_REL)
        if stops.any():
            j = int(stops.argmax())
            if not math.isfinite(pieces[j]) or totals[j] > VALUE_CUTOFF:
                return _DIVERGED
            return TailIntegral(float(totals[j]), float(errs[j] + pieces[j]), True)
        total, err, last_rel = float(totals[-1]), float(errs[-1]), float(rels[-1])
        done += cut
        size = min(done, _CHUNK_CAP)
    # Reached the cap: stabilized sequences count as converged, with the
    # last window kept as a truncation-error proxy.
    if last_rel < STABLE_REL:
        return TailIntegral(total, err + last_rel * total, True)
    return _DIVERGED
