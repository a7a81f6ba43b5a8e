"""The windowed quadrature against its frozen warning-filtered copy.

Every value and error estimate equals the copy's bit for bit, and a
window where QUADPACK stops short (ier != 0) returns its best estimate
without issuing a warning.  The warning policy in pyproject.toml makes
a warning from a quad call, or from numpy, an error.
"""

import math
import warnings

import pytest
from scipy.integrate import IntegrationWarning, quad

from conftest import frozen_bounded_quad, frozen_improper_quad
from transfer_knn._integrate import bounded_quad, exp_clamped, improper_quad
from transfer_knn.distributions import LogPareto


def hexes(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


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
    dist = LogPareto(1.0, b, c)
    value, _, converged = frozen_improper_quad(dist._log_raw, dist._LEFT)
    assert converged
    assert dist._norm.hex() == value.hex()


def test_failed_window_warns_nothing():
    assert quadpack_fails(sin_inverse, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bounded_quad(sin_inverse, 0.0, 1.0)
    assert hexes(*got) == hexes(*frozen_bounded_quad(sin_inverse, 0.0, 1.0))


def test_failed_head_window_warns_nothing():
    assert quadpack_fails(lambda x: math.exp(log_wiggle(x)), 2.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = improper_quad(
            lambda x: exp_clamped(log_wiggle(x)),
            lambda t: exp_clamped(log_wiggle(math.exp(t)) + t),
            2.0,
        )
    want = frozen_improper_quad(log_wiggle, 2.0)
    assert want[2] and res.converged
    assert hexes(res.value, res.error) == hexes(*want[:2])


@pytest.mark.parametrize(
    "category",
    [RuntimeWarning, DeprecationWarning, IntegrationWarning],
    ids=lambda category: category.__name__,
)
def test_warning_policy_raises(category):
    with pytest.raises(category):
        warnings.warn("probe", category)
