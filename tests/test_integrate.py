"""The windowed quadrature against closed forms.

A window where QUADPACK stops short (ier != 0) returns its best estimate,
within its error estimate of the exact value, without issuing a warning.
The warning policy in pyproject.toml makes a warning from a quad call,
or from numpy, an error.
"""

import math
import warnings

import pytest
from scipy import special
from scipy.integrate import IntegrationWarning, quad

from conftest import log_pareto_tail
from transfer_knn._integrate import bounded_quad, exp_clamped, improper_quad
from transfer_knn.distributions import LogPareto


def sin_inverse(x):
    """Oscillates without bound at 0, which QUADPACK cannot resolve."""
    return math.sin(1.0 / x)


def log_wiggle(x):
    """log of e^-x (1 + sin^2(1/(x - 2))), oscillating without bound at 2."""
    return math.log1p(math.sin(1.0 / (x - 2.0)) ** 2) - x


def quadpack_fails(f, lo, hi) -> bool:
    """Whether plain quad at the library's tolerances ends with ier != 0."""
    out = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11, limit=200, full_output=1)
    return len(out) == 4


@pytest.mark.parametrize("c", [0.0, 2.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 38.0])
def test_log_pareto_normaliser_unchanged(b, c):
    # Z = (log 2)^(1 - c) E_c(b log 2); 2^-b / b at c = 0.
    want = log_pareto_tail(b, c, math.log(2.0))
    assert LogPareto(1.0, b, c)._norm == pytest.approx(want, rel=3e-10, abs=0)


def test_failed_window_warns_nothing():
    assert quadpack_fails(sin_inverse, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, error = bounded_quad(sin_inverse, 0.0, 1.0)
    # With u = 1/x: int_1^oo sin(u) / u^2 du = sin 1 - Ci 1.
    assert abs(value - (math.sin(1.0) - special.sici(1.0)[1])) <= error


def test_failed_head_window_warns_nothing():
    assert quadpack_fails(lambda x: math.exp(log_wiggle(x)), 2.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = improper_quad(
            lambda x: exp_clamped(log_wiggle(x)),
            lambda t: exp_clamped(log_wiggle(math.exp(t)) + t),
            2.0,
        )
    # e^-2 (1 + int_0^oo e^-y sin^2(1/y) dy), where the integral of
    # e^-y cos(2/y) is Re 2 sqrt(-2i) K_1(2 sqrt(-2i)), sqrt(-2i) = 1 - i.
    bessel = 2.0 * (1.0 - 1.0j) * special.kv(1, 2.0 - 2.0j)
    want = math.exp(-2.0) * (3.0 - bessel.real) / 2.0
    assert res.converged
    assert abs(res.value - want) <= res.error


@pytest.mark.parametrize(
    "category",
    [RuntimeWarning, DeprecationWarning, IntegrationWarning],
    ids=lambda category: category.__name__,
)
def test_warning_policy_raises(category):
    with pytest.raises(category):
        warnings.warn("probe", category)
