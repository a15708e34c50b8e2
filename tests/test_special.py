"""The model's numpy log-gamma, digamma, trigamma and logistic kernels
against mpmath and scipy.special.

Error is relative, or absolute where the function's magnitude is below 1
(near the zeros of log-gamma at 1 and 2 and of digamma at 1.4616...).
"""

from __future__ import annotations

import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from clonedyn.model import _digamma, _expit, _gammaln, _gammaln_digamma, _trigamma

TOL = 1e-14
DIGAMMA_ROOT = 1.4616321449683622

# 1e-8 to 1e12, with the values around the recurrence cut-off at 8 and the
# zeros of log-gamma and digamma
GRID = np.concatenate(
    [
        np.geomspace(1e-8, 1e12, 1500),
        np.linspace(0.5, 20.0, 1500),
        np.nextafter(8.0, [0.0, 16.0]),
        DIGAMMA_ROOT + np.linspace(-1e-6, 1e-6, 21),
        [1.0, 2.0, 8.0],
    ]
)
# what SeriesBatch and ExpectedLoglik evaluate: integer counts (and count
# sums) plus alpha
COUNTS = np.concatenate([np.arange(60.0), np.geomspace(60.0, 1e7, 200).round()])
ALPHAS = np.geomspace(1e-3, 1e3, 61)
COUNT_PLUS_ALPHA = (COUNTS[:, None] + ALPHAS[None, :]).ravel()


def exact(f, x) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(f(mpmath.mpf(float(v)))) for v in np.ravel(x)])


def worst_error(actual, expected) -> float:
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), 1.0)))


@pytest.mark.parametrize(
    ("kernel", "reference"), [(_gammaln, mpmath.loggamma), (_digamma, mpmath.digamma)]
)
def test_kernels_match_mpmath_on_a_grid(kernel, reference):
    assert worst_error(kernel(GRID), exact(reference, GRID)) <= TOL


@pytest.mark.parametrize(
    ("kernel", "reference"), [(_gammaln, mpmath.loggamma), (_digamma, mpmath.digamma)]
)
def test_kernels_match_mpmath_on_counts_plus_alpha(kernel, reference):
    x = COUNT_PLUS_ALPHA[::7]
    assert worst_error(kernel(x), exact(reference, x)) <= TOL


@pytest.mark.parametrize(
    ("kernel", "reference"),
    [(_gammaln, scipy.special.gammaln), (_digamma, scipy.special.digamma)],
)
def test_kernels_match_scipy_on_counts_plus_alpha(kernel, reference):
    for x in (COUNT_PLUS_ALPHA, GRID):
        assert worst_error(kernel(x), reference(x)) <= TOL


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-8, 1e12), min_size=1, max_size=20))
def test_kernels_match_mpmath_on_drawn_floats(values):
    x = np.array(values)
    assert worst_error(_gammaln(x), exact(mpmath.loggamma, x)) <= TOL
    assert worst_error(_digamma(x), exact(mpmath.digamma, x)) <= TOL


def test_trigamma_matches_scipy():
    x = np.concatenate([np.geomspace(1e-3, 1e6, 3000), np.nextafter(8.0, [0.0, 16.0]), [8.0]])
    expected = scipy.special.polygamma(1, x)
    assert np.max(np.abs(_trigamma(x) - expected) / expected) <= 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _trigamma(np.array([0.0, np.inf])).tolist() == [np.inf, 0.0]
        assert np.shape(_trigamma(2.5)) == ()


def test_the_joint_kernel_gives_the_bits_of_each_kernel():
    for x in (GRID, COUNT_PLUS_ALPHA, np.array([0.0, np.inf, np.nan]), 2.5):
        gammaln, digamma = _gammaln_digamma(x)
        np.testing.assert_array_equal(gammaln.view(np.int64), _gammaln(x).view(np.int64))
        np.testing.assert_array_equal(digamma.view(np.int64), _digamma(x).view(np.int64))


def test_logistic_matches_scipy():
    x = np.concatenate([np.linspace(-800.0, 800.0, 20001), [-1e300, 1e300, 0.0]])
    with np.errstate(over="ignore"):
        assert np.max(np.abs(_expit(x) - scipy.special.expit(x))) <= TOL


def test_scalars_give_0d_results():
    for kernel, reference in ((_gammaln, scipy.special.gammaln), (_digamma, scipy.special.digamma)):
        value = kernel(2.5)
        assert np.shape(value) == ()
        assert float(value) == pytest.approx(float(reference(2.5)), rel=TOL)


def test_edge_values_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _gammaln(0.0) == np.inf
        assert _gammaln(np.inf) == np.inf
        assert _digamma(0.0) == -np.inf
        assert _digamma(np.inf) == np.inf
        assert np.isnan(_gammaln(np.nan)) and np.isnan(_digamma(np.nan))
        assert np.isnan(_expit(np.nan))
        x = np.array([-np.inf, -1e4, -745.2, 745.2, 1e4, np.inf])
        assert _expit(x).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        values = _gammaln(np.array([np.nan, 1.0, np.inf, 0.0]))
        assert np.isnan(values[0]) and abs(values[1]) <= TOL
        assert values[2:].tolist() == [np.inf, np.inf]
