"""Property tests of the M-step objective and of batch invariance.

The histogram objective (ExpectedLoglik, sums over distinct values) is
held to the per-observation reference in oracles.py on random cohorts
with zero counts, single-time-point clones, shared offsets and
responsibilities that include exact 0 and 1.  The two forms drop
different (alpha, beta)-free constants, so values are compared as
differences Q(theta) - Q(theta0).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln

from clonedyn import CloneSeries, SeriesBatch
from clonedyn.model import ExpectedLoglik

from oracles import m_step_objective, pack

SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
RTOL = 1e-10
# a float sum is exact to a few ulps of the mass of its terms, whatever its value
ULPS_OF_MASS = 1e-14

COUNTS = st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 10_000))
EXTRA_READS = st.one_of(st.sampled_from([1, 50, 40_000]), st.integers(1, 10**7))
RESPONSIBILITY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
LOG_ALPHA = st.floats(-4.0, 4.0)
LOG_BETA = st.floats(-2.0, 14.0)


@st.composite
def cohorts(draw, max_clones=8):
    n = draw(st.integers(1, max_clones))
    series = []
    for i in range(n):
        t = draw(st.integers(1, 5))
        counts = draw(st.lists(COUNTS, min_size=t, max_size=t))
        extra = draw(st.lists(EXTRA_READS, min_size=t, max_size=t))
        offsets = [c + e for c, e in zip(counts, extra)]
        series.append(CloneSeries(f"c{i}", f"p{i}", counts, offsets))
    return series


def term_mass(series, r, alpha, beta):
    """Per-clone-averaged sum of the absolute values of every term the
    reference adds for Q and for its two log-coordinate partials."""
    value = d_alpha = d_beta = 0.0
    for s, w in zip(series, r):
        c = s.counts.astype(np.float64)
        o = s.offsets.astype(np.float64)
        t, csum, osum = c.size, c.sum(), o.sum()
        fixed = np.sum(c * np.log(o)) + np.sum(gammaln(c + 1.0))
        prior = t * (abs(gammaln(alpha)) + alpha * abs(np.log(beta)))
        dynamic = np.sum(np.abs(gammaln(c + alpha)) + (alpha + c) * np.abs(np.log(o + beta)))
        static = abs(gammaln(csum + alpha)) + (alpha + csum) * abs(np.log(osum + beta))
        value += 2 * fixed + prior + w * dynamic + (1 - w) * static
        d_alpha += (
            t * (abs(digamma(alpha)) + abs(np.log(beta)))
            + np.sum(np.abs(digamma(c + alpha)) + np.abs(np.log(o + beta)))
            + abs(digamma(csum + alpha))
            + abs(np.log(osum + beta))
        )
        d_beta += (
            (t + 1) * alpha / beta
            + np.sum((c + alpha) / (o + beta))
            + (csum + alpha) / (osum + beta)
        )
    n = len(series)
    return value / n, d_alpha * alpha / n, d_beta * beta / n


def assert_close(actual, expected, mass):
    assert abs(actual - expected) <= RTOL * abs(expected) + ULPS_OF_MASS * mass, (
        actual,
        expected,
        mass,
    )


@SETTINGS
@given(cohorts(), st.data(), LOG_ALPHA, LOG_BETA, LOG_ALPHA, LOG_BETA)
def test_histogram_objective_matches_the_per_observation_reference(
    series, data, la, lb, la0, lb0
):
    r = np.array(
        data.draw(st.lists(RESPONSIBILITY, min_size=len(series), max_size=len(series)))
    )
    batch = SeriesBatch(pack(series))
    theta, theta0 = np.array([la, lb]), np.array([la0, lb0])
    histogram = ExpectedLoglik(batch, r).in_log_coords
    reference = m_step_objective(batch, r)

    value, grad = histogram(theta)
    value0, _ = histogram(theta0)
    ref_value, ref_grad = reference(theta)
    ref_value0, _ = reference(theta0)

    mass, mass_alpha, mass_beta = term_mass(series, r, np.exp(la), np.exp(lb))
    mass0, _, _ = term_mass(series, r, np.exp(la0), np.exp(lb0))
    assert_close(value - value0, ref_value - ref_value0, mass + mass0)
    assert_close(grad[0], ref_grad[0], mass_alpha)
    assert_close(grad[1], ref_grad[1], mass_beta)


@SETTINGS
@given(cohorts(max_clones=12), st.data(), LOG_ALPHA, LOG_BETA)
def test_a_clone_has_the_same_log_densities_alone_and_in_any_batch(series, data, la, lb):
    order = data.draw(st.permutations(range(len(series))))
    alpha, beta = float(np.exp(la)), float(np.exp(lb))
    ls, ld = SeriesBatch(pack([series[i] for i in order])).log_pmfs(alpha, beta)
    for position, i in enumerate(order):
        alone_ls, alone_ld = SeriesBatch(pack([series[i]])).log_pmfs(alpha, beta)
        assert ls[position].tobytes() == alone_ls[0].tobytes()
        assert ld[position].tobytes() == alone_ld[0].tobytes()
