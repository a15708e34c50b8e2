"""Generating-process checks: determinism, moments, and missingness rules."""

import numpy as np
import pytest
from scipy import stats

from clonedyn import SimConfig, ValidationError, simulate

from oracles import pack, simulate_series


def static_draws(cohort, truth, lambdas):
    """Each static clone's proportion: the first of its repeated values."""
    return lambdas[cohort.starts[~truth.dynamic]]


def test_seed_determinism():
    cfg = SimConfig(n_clones=300, n_persons=6, missing_rate=0.15, seed=77)
    series_a, truth_a, lambdas_a = simulate(cfg)
    series_b, truth_b, lambdas_b = simulate(cfg)
    assert len(series_a) == len(series_b) == 300
    for a, b in zip(series_a, series_b):
        assert a.key == b.key
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.times, b.times)
    for column in ("person_id", "clone_id", "dynamic"):
        assert np.array_equal(getattr(truth_a, column), getattr(truth_b, column))
    assert np.array_equal(lambdas_a, lambdas_b)


def test_all_static_when_pi_zero():
    series, truth, lambdas = simulate(SimConfig(n_clones=200, pi=0.0, n_persons=4, seed=1))
    assert not truth.dynamic.any()
    assert np.array_equal(lambdas, np.repeat(static_draws(series, truth, lambdas), series.n_times))


def test_full_followup_without_missingness():
    series = simulate(SimConfig(n_clones=150, n_followups=3, n_persons=3, seed=2))[0]
    assert all(s.n_times == 3 for s in series)
    assert all(np.array_equal(s.times, [0, 1, 2]) for s in series)


def test_dynamic_clones_draw_one_lambda_per_observed_time():
    series, truth, lambdas = simulate(
        SimConfig(n_clones=400, pi=0.5, n_followups=4, missing_rate=0.3, n_persons=5, seed=3)
    )
    assert lambdas.shape == series.counts.shape
    for s, dynamic, start in zip(series, truth.dynamic, series.starts):
        lam = lambdas[start : start + s.n_times]
        if dynamic:
            assert np.unique(lam).size == s.n_times
        else:
            assert np.all(lam == lam[0])


def test_baseline_never_dropped():
    series = simulate(
        SimConfig(n_clones=2000, n_followups=3, missing_rate=0.45, n_persons=10, seed=4)
    )[0]
    assert all(s.times[0] == 0 for s in series)
    assert all(s.n_times >= 1 for s in series)


def test_missing_rate_applies_to_later_followups():
    cfg = SimConfig(n_clones=20000, n_followups=3, missing_rate=0.2, n_persons=20, seed=5)
    series = simulate(cfg)[0]
    kept = np.zeros(3)
    for s in series:
        kept[s.times] += 1
    n = len(series)
    assert kept[0] == n
    for t in (1, 2):
        rate = 1.0 - kept[t] / n
        se = np.sqrt(0.2 * 0.8 / n)
        assert abs(rate - 0.2) < 4 * se


def test_generating_moments():
    cfg = SimConfig(n_clones=60_000, alpha=1.0, beta=200.0, pi=0.2, n_followups=3, seed=6)
    series, truth, lambdas = simulate(cfg)

    labels = truth.dynamic
    frac = labels.mean()
    se_frac = np.sqrt(0.2 * 0.8 / labels.size)
    assert abs(frac - 0.2) < 3 * se_frac

    static_lams = static_draws(series, truth, lambdas)
    n = static_lams.size
    mean, var = static_lams.mean(), static_lams.var()
    # Gamma(alpha, beta): mean alpha/beta, variance alpha/beta^2
    se_mean = np.sqrt(1.0 / 200.0**2 / n)
    assert abs(mean - 1.0 / 200.0) < 4 * se_mean
    se_var = np.sqrt(static_lams.var(ddof=1) ** 2 * 2.0 / n) * np.sqrt(5)  # kurtosis slack
    assert abs(var - 1.0 / 200.0**2) < 4 * se_var


def test_counts_follow_rate_times_offset():
    series, truth, lambdas = simulate(
        SimConfig(n_clones=30_000, alpha=2.0, beta=100.0, pi=0.0, n_persons=100, seed=8)
    )
    ratio = []
    for s, lam in zip(series, static_draws(series, truth, lambdas)):
        expected = lam * s.offsets.sum()
        if expected >= 50:
            ratio.append(s.counts.sum() / expected)
    ratio = np.array(ratio)
    assert abs(ratio.mean() - 1.0) < 4 * ratio.std(ddof=1) / np.sqrt(ratio.size)


def test_counts_never_exceed_offsets():
    series = simulate(SimConfig(n_clones=500, alpha=5.0, beta=10.0, n_persons=5, seed=9))[0]
    for s in series:
        assert np.all(s.counts <= s.offsets)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(n_clones=0)
    with pytest.raises(ValidationError):
        SimConfig(n_followups=1)
    with pytest.raises(ValidationError):
        SimConfig(missing_rate=1.0)
    with pytest.raises(ValidationError):
        SimConfig(pi=1.5)
    with pytest.raises(ValidationError):
        SimConfig(n_persons=0)
    with pytest.raises(ValidationError):
        SimConfig(offset_mean=0.0)


@pytest.mark.parametrize(
    "cfg",
    [
        SimConfig(n_clones=301, n_persons=7, seed=21),
        SimConfig(n_clones=250, n_persons=4, n_followups=5, missing_rate=0.3, seed=22),
        SimConfig(n_clones=97, n_persons=5, pi=0.0, missing_rate=0.2, seed=23),
        SimConfig(n_clones=122, n_persons=3, pi=1.0, seed=24),
        SimConfig(n_clones=1001, n_persons=12, pi=1.0, n_followups=4, missing_rate=0.6, seed=25),
        SimConfig(n_clones=400, n_persons=6, n_followups=6, missing_rate=0.95, seed=26),
        SimConfig(n_clones=40, n_persons=40, missing_rate=0.3, seed=27),
        SimConfig(n_clones=300, n_persons=5, alpha=5.0, beta=10.0, seed=28),
    ],
    ids=[
        "uneven", "missing", "all-static", "all-dynamic", "dynamic-missing",
        "heavy-missing", "one-clone-per-person", "clamped",
    ],
)
def test_packed_simulation_matches_the_per_clone_reference(cfg):
    cohort, truth, lams = simulate(cfg)
    series, labels, lambdas = simulate_series(cfg)
    expected = pack(series)
    for name in ("person_id", "clone_id", "starts", "counts", "offsets", "times"):
        assert np.array_equal(getattr(cohort, name), getattr(expected, name)), name
    for name in ("starts", "counts", "offsets", "times", "n_times"):
        assert getattr(cohort, name).dtype == np.int64, name
    assert lams.dtype == np.float64 and truth.dynamic.dtype == bool
    if cfg.alpha / cfg.beta > 0.1:  # some Poisson draws exceed their offset
        assert np.any(cohort.counts == cohort.offsets)
    assert cohort.sorted() is cohort
    assert list(zip(truth.person_id, truth.clone_id)) == list(labels)
    assert truth.dynamic.tolist() == list(labels.values())
    # a static clone's one draw stands behind each of its counts
    assert list(lambdas) == list(labels)
    per_count = [
        lam if labels[s.key] else np.repeat(lam, s.n_times)
        for s, lam in zip(series, lambdas.values())
    ]
    assert np.array_equal(lams, np.concatenate(per_count))
    assert [s.key for s in cohort] == [s.key for s in series]
    assert cohort[-1].key == series[-1].key and len(cohort) == cfg.n_clones


class RecordingGenerator:
    """A numpy Generator that records (method, args) for every call made on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self._calls.append((name, args))
            return method(*args, **kwargs)

        return record


def test_poisson_means_are_drawn_one_scalar_at_a_time(monkeypatch):
    """An array mean costs numpy's per-call argument checks, ~15x a scalar's;
    only the benchmark times simulate, so this keeps the loop on scalars."""
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RecordingGenerator(default_rng(seed), calls)
    )
    cfg = SimConfig(n_clones=60, n_persons=3, pi=0.5, n_followups=4, missing_rate=0.3, seed=29)
    cohort = simulate(cfg)[0]
    means = [args[0] for name, args in calls if name == "poisson"]
    assert len(means) == cohort.counts.size
    assert all(isinstance(mean, float) for mean in means)
    monkeypatch.undo()
    assert np.array_equal(simulate(cfg)[0].counts, cohort.counts)


# Stream-free checks: the counts against the distributions the fit assumes,
# with scipy.stats as the independent reference.  A randomized probability
# integral transform (PIT), F(c - 1) + V (F(c) - F(c - 1)) with V uniform,
# is uniform on (0, 1) when the counts follow F; its histogram on 20 bins
# is tested by chi-squared.  The floor is 1e-4, Bonferroni-corrected over
# the two PIT tests.
PIT_BINS = 20
P_FLOOR = 1e-4 / 2
PIT_CONFIG = SimConfig(n_clones=20_000, alpha=1.0, beta=100.0, pi=0.5, n_followups=3, seed=31)


@pytest.fixture(scope="module")
def pit_draws():
    return simulate(PIT_CONFIG)


def pit_p_value(cdf_below: np.ndarray, cdf_at: np.ndarray) -> float:
    u = cdf_below + np.random.default_rng(0).random(cdf_at.size) * (cdf_at - cdf_below)
    bins = np.minimum((u * PIT_BINS).astype(int), PIT_BINS - 1)
    observed = np.bincount(bins, minlength=PIT_BINS)
    return float(stats.chisquare(observed).pvalue)


def test_dynamic_counts_follow_the_negative_binomial(pit_draws):
    """A dynamic clone's count at offset o, Poisson(lambda o) with lambda
    ~ Gamma(alpha, beta), is NB(alpha, beta / (beta + o))."""
    cohort, truth, _ = pit_draws
    dynamic = np.repeat(truth.dynamic, cohort.n_times)
    counts, offsets = cohort.counts[dynamic], cohort.offsets[dynamic]
    law = stats.nbinom(PIT_CONFIG.alpha, PIT_CONFIG.beta / (PIT_CONFIG.beta + offsets))
    assert counts.size > 25_000
    assert pit_p_value(law.cdf(counts - 1), law.cdf(counts)) > P_FLOOR


def test_static_first_counts_follow_the_binomial(pit_draws):
    """A static clone's counts share one lambda, so its first count given
    its total T is Binomial(T, o_0 / sum(o))."""
    cohort, truth, _ = pit_draws
    static = ~truth.dynamic
    totals = cohort.segment_sums(cohort.counts)[static]
    share = (cohort.offsets[cohort.starts] / cohort.segment_sums(cohort.offsets))[static]
    first = cohort.counts[cohort.starts[static]]
    law = stats.binom(totals, share)
    assert first.size > 9_000
    assert pit_p_value(law.cdf(first - 1), law.cdf(first)) > P_FLOOR


def test_the_offset_clamp_binds_nowhere(pit_draws):
    """min(poisson, offset) keeps a count within its offset; at these
    settings no count comes near it, so the clamp changes no draw."""
    cohort, _, _ = pit_draws
    assert (cohort.counts < cohort.offsets).all()
