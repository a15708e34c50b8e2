"""Marginal log-density operations against quadrature oracles and invariants."""

import math

import numpy as np
import pytest

from clonedyn import CloneSeries, Hyperparams, PackedCohort, SeriesBatch, ValidationError
from clonedyn.model import stable_responsibility

from oracles import (
    log_per_time_marginal,
    log_shared_rate_marginal,
    pack,
    random_series_cases,
)


def series(counts, offsets, **kwargs):
    return CloneSeries(clone_id="c", person_id="p", counts=counts, offsets=offsets, **kwargs)


def log_pmfs(s, hp):
    """The static and dynamic log-densities of one series, from a batch of one."""
    ls, ld = SeriesBatch(pack([s])).log_pmfs(hp.alpha, hp.beta)
    return float(ls[0]), float(ld[0])


def prob_dynamic(s, hp):
    ls, ld = SeriesBatch(pack([s])).log_pmfs(hp.alpha, hp.beta)
    return float(stable_responsibility(ls, ld, hp.pi)[0])


class TestStaticLogPmf:
    def test_zero_count_single_time(self):
        # (beta / (beta + offset)) ** alpha with alpha=1, beta=100, offset=100
        value = log_pmfs(series([0], [100]), Hyperparams(1.0, 100.0, 0.5))[0]
        assert value == pytest.approx(math.log(0.5), rel=1e-12)

    def test_single_timepoint_equals_dynamic(self):
        s = series([7], [1234])
        hp = Hyperparams(0.8, 321.0, 0.4)
        static, dynamic = log_pmfs(s, hp)
        assert static == dynamic

    def test_frozen_quadrature_value(self):
        # independent quadrature over the shared rate (tests/oracles.py)
        value = log_pmfs(series([2, 3], [1000, 2000]), Hyperparams(1.0, 500.0, 0.5))[0]
        assert value == pytest.approx(-3.8276983568582717, rel=1e-8)

    def test_does_not_use_pi(self):
        s = series([4, 9], [500, 700])
        values = {log_pmfs(s, Hyperparams(1.0, 100.0, pi))[0] for pi in (0.1, 0.5, 0.9)}
        assert len(values) == 1


class TestDynamicLogPmf:
    def test_independent_zero_counts(self):
        value = log_pmfs(series([0, 0], [100, 100]), Hyperparams(1.0, 100.0, 0.5))[1]
        assert value == pytest.approx(2 * math.log(0.5), rel=1e-12)

    def test_frozen_quadrature_value(self):
        # per-time quadrature marginals, summed (tests/oracles.py)
        value = log_pmfs(series([2, 3], [1000, 2000]), Hyperparams(1.0, 500.0, 0.5))[1]
        assert value == pytest.approx(-4.188411071261168, rel=1e-8)


def quotient(s, hp):
    """Static minus dynamic log-density; higher favors static behavior."""
    static, dynamic = log_pmfs(s, hp)
    return static - dynamic


class TestQuotient:
    def test_single_timepoint_is_zero(self):
        assert quotient(series([5], [100]), Hyperparams(1.0, 50.0, 0.5)) == 0.0

    def test_proportional_counts_beat_concentrated_counts(self):
        # same total reads over the same offsets: a constant proportion
        # profile must look more static than an all-in-one-sample profile
        hp = Hyperparams(1.0, 200.0, 0.5)
        proportional = quotient(series([10, 20], [1000, 2000]), hp)
        concentrated = quotient(series([30, 0], [1000, 2000]), hp)
        assert proportional > concentrated

    def test_frozen_quadrature_value(self):
        value = quotient(series([5, 5], [1000, 1000]), Hyperparams(1.0, 100.0, 0.5))
        assert value == pytest.approx(0.8144255461342169, rel=1e-8)


class TestResponsibility:
    def test_mixing_weight_limits(self):
        # prior log-odds dominate the data term once pi is extreme enough
        s = series([5, 5], [1000, 1000])
        low = prob_dynamic(s, Hyperparams(1.0, 200.0, 1e-9))
        high = prob_dynamic(s, Hyperparams(1.0, 200.0, 1.0 - 1e-9))
        assert low < 1e-6
        assert high > 1.0 - 1e-6

    def test_single_timepoint_returns_pi_exactly(self):
        for pi in (0.037, 0.2, 0.5, 0.75, 0.9999):
            assert prob_dynamic(series([9], [100]), Hyperparams(1.0, 100.0, pi)) == pi

    def test_frozen_quadrature_value(self):
        # 0.2 * exp(ld) / (0.2 * exp(ld) + 0.8 * exp(ls)) at extended precision
        value = prob_dynamic(series([50, 0], [1000, 1000]), Hyperparams(1.0, 200.0, 0.2))
        assert value == pytest.approx(0.9999999999990986, rel=1e-10)

    def test_monotone_in_pi(self):
        s = series([5, 40], [2000, 2000])
        values = [
            prob_dynamic(s, Hyperparams(1.0, 150.0, pi))
            for pi in np.linspace(0.01, 0.99, 25)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extreme_counts_and_offsets_stay_finite(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = int(rng.integers(1, 5))
            counts = rng.integers(0, 10_001, size=t)
            offsets = np.maximum(rng.integers(1, 10_000_001, size=t), counts)
            hp = Hyperparams(
                float(rng.uniform(0.1, 5.0)),
                float(rng.uniform(10.0, 1000.0)),
                float(rng.uniform(0.001, 0.999)),
            )
            value = prob_dynamic(series(counts, offsets), hp)
            assert math.isfinite(value) and 0.0 <= value <= 1.0


class TestConjugacyAgainstQuadrature:
    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(20240817)
        for counts, offsets, alpha, beta in random_series_cases(rng, 150):
            hp = Hyperparams(alpha, beta, 0.5)
            static, dynamic = log_pmfs(series(counts, offsets), hp)
            assert static == pytest.approx(
                log_shared_rate_marginal(counts, offsets, alpha, beta), rel=1e-6
            )
            assert dynamic == pytest.approx(
                log_per_time_marginal(counts, offsets, alpha, beta), rel=1e-6
            )


class TestInvariants:
    def test_normalization_univariate(self):
        # the exp of the dynamic log-density over c = 0..n climbs to 1 from below; the cap
        # comes from the negative binomial tail quantile
        from scipy.stats import nbinom

        alpha, beta, offset = 1.7, 120.0, 900
        hp = Hyperparams(alpha, beta, 0.5)
        p_success = beta / (beta + offset)
        n_cap = int(nbinom.ppf(1.0 - 1e-9, alpha, p_success)) + 5
        total = 0.0
        for c in range(n_cap + 1):
            total += math.exp(log_pmfs(series([c], [max(offset, c)]), hp)[1])
            assert total <= 1.0 + 1e-12
        assert total >= 1.0 - 1e-6

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, size=5)
        offsets = rng.integers(50, 5000, size=5)
        hp = Hyperparams(0.9, 140.0, 0.5)
        base_static, base_dynamic = log_pmfs(series(counts, offsets), hp)
        for _ in range(5):
            perm = rng.permutation(5)
            static, dynamic = log_pmfs(series(counts[perm], offsets[perm]), hp)
            assert static == pytest.approx(base_static, rel=1e-14)
            assert dynamic == pytest.approx(base_dynamic, rel=1e-14)

    def test_repeated_evaluation_is_bit_identical(self):
        s = series([3, 14, 0], [500, 1500, 800])
        hp = Hyperparams(1.3, 333.0, 0.21)
        assert log_pmfs(s, hp) == log_pmfs(s, hp)
        assert prob_dynamic(s, hp) == prob_dynamic(s, hp)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            series([1, 2], [10])

    def test_negative_count(self):
        with pytest.raises(ValidationError):
            series([-1], [10])

    def test_zero_offset(self):
        with pytest.raises(ValidationError):
            series([0], [0])

    def test_count_exceeding_offset(self):
        with pytest.raises(ValidationError):
            series([11], [10])

    def test_empty_series(self):
        with pytest.raises(ValidationError):
            series([], [])

    def test_bad_hyperparams(self):
        for alpha, beta, pi in [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]:
            with pytest.raises(ValidationError):
                Hyperparams(alpha, beta, pi)

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            series([1, 2], [10, 10], times=[1, 1])


class TestPackedCohort:
    def test_rejects_what_a_single_series_rejects_with_the_same_message(self):
        good = dict(counts=[1, 2], offsets=[10, 10], times=[0, 1])
        for change in (
            {"counts": [-1, 2]},
            {"offsets": [0, 10]},
            {"counts": [11, 2]},
            {"times": [1, 1]},
            {"times": [-1, 1]},
        ):
            fields = {**good, **change}
            with pytest.raises(ValidationError) as single:
                series(**fields)
            # clone "a" of person "q" is good, and clone "c" of person "p" has the fields
            observed = [("q", 1, 1), ("q", 2, 2)]
            observed += [("p", t, o) for t, o in zip(fields["times"], fields["offsets"])]
            table = sorted(set(observed))
            obs_pt = [table.index(key) for key in observed]
            with pytest.raises(ValidationError) as packed:
                PackedCohort(["a", "c"], [0, 2], [1, 2] + fields["counts"], obs_pt, *zip(*table))
            assert str(packed.value) == str(single.value)

    def test_times_may_restart_at_each_clone(self):
        cohort = PackedCohort(
            ["a", "b"], [0, 2], [1, 2, 3], [1, 2, 0], ["p"] * 3, [0, 3, 4], [9] * 3
        )
        assert cohort.n_times.tolist() == [2, 1]
        assert [s.times.tolist() for s in cohort] == [[3, 4], [0]]

    def test_sorted_and_take_move_whole_clones(self):
        clones = [
            CloneSeries("b", "p2", [1, 2], [10, 10], times=[0, 2]),
            CloneSeries("a", "p2", [3], [10], times=[1]),
            CloneSeries("z", "p1", [4, 5, 6], [10, 10, 10]),
        ]
        cohort = pack(clones).sorted()
        assert [s.key for s in cohort] == [("p1", "z"), ("p2", "a"), ("p2", "b")]
        assert cohort.counts.tolist() == [4, 5, 6, 3, 1, 2]
        assert cohort.times.tolist() == [0, 1, 2, 1, 0, 2]
        assert cohort.sorted() is cohort
        assert [s.key for s in cohort.take([2, 0])] == [("p2", "b"), ("p1", "z")]


@pytest.mark.parametrize(
    "counts, offsets, times, message",
    [
        ([], [], None, "counts must be a non-empty 1-d sequence"),
        ([[1, 2]], [[5, 5]], None, "counts must be a non-empty 1-d sequence"),
        ([1, 2], [10], None, "counts and offsets lengths differ: 2 vs 1"),
        ([-1], [10], None, "counts must be non-negative"),
        ([0], [0], None, "offsets must be positive"),
        ([11], [10], None, "each offset must be >= the matching count"),
        ([1, 2], [10, 10], [0], "times must align with counts"),
        ([1, 2], [10, 10], [1, 1], "times must be non-negative and strictly increasing"),
        ([1], [10], [-1], "times must be non-negative and strictly increasing"),
    ],
)
def test_series_checks_keep_their_messages(counts, offsets, times, message):
    with pytest.raises(ValidationError) as single:
        series(counts, offsets, times=times)
    assert str(single.value) == message
    times = np.arange(len(counts)) if times is None else times
    # a packed cohort rejects 2-d columns before these checks, and its times,
    # those of the rows its observations sit on, cannot misalign
    if np.ndim(counts) == 1 and len(times) == len(counts):
        observed = list(zip(times, offsets))
        table = sorted(set(observed))
        pt_time, pt_total = [t for t, _ in table], [o for _, o in table]
        obs_pt = [table.index(key) for key in observed]
        with pytest.raises(ValidationError) as packed:
            PackedCohort(["c"], [0], counts, obs_pt, ["p"] * len(table), pt_time, pt_total)
        assert str(packed.value) == message


# a good cohort: clone "a" of person "q" at times 1 and 2, and clone "c" of
# person "p" at times 0 and 1
GOOD_COHORT = dict(
    clone_id=["a", "c"],
    starts=[0, 2],
    counts=[1, 2, 3, 4],
    obs_pt=[2, 3, 0, 1],
    pt_person=["p", "p", "q", "q"],
    pt_time=[0, 1, 1, 2],
    pt_total=[10, 10, 5, 5],
)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"obs_pt": [2, 4, 0, 1]}, "obs_pt must index the 4 rows of the person-time table"),
        ({"obs_pt": [2, 3, -1, 1]}, "obs_pt must index the 4 rows of the person-time table"),
        ({"obs_pt": [2.0, 3, 0, 1]}, "obs_pt must index the 4 rows of the person-time table"),
        ({"obs_pt": [2, 3, 0]}, "counts and offsets lengths differ: 4 vs 3"),
        (
            {"pt_person": ["p", "q", "p", "q"], "pt_time": [0, 1, 1, 2]},
            "person-time rows must increase in (person, time)",
        ),
        (
            {"pt_time": [1, 0, 1, 2]},
            "person-time rows must increase in (person, time)",
        ),
        (
            {"pt_time": [0, 0, 1, 2]},
            "person-time rows must increase in (person, time)",
        ),
        ({"pt_total": [10, 10, 5]}, "the person-time columns must be 1-d and of equal length"),
        ({"obs_pt": [1, 3, 0, 1]}, "a clone's observations must all be of one person"),
        ({"obs_pt": [3, 2, 0, 1]}, "times must be non-negative and strictly increasing"),
        ({"obs_pt": [2, 2, 0, 1]}, "times must be non-negative and strictly increasing"),
        ({"pt_time": [-1, 1, 1, 2]}, "times must be non-negative and strictly increasing"),
        ({"counts": [1, 2, 3, 11]}, "each offset must be >= the matching count"),
        ({"counts": [1, 2, -3, 4]}, "counts must be non-negative"),
        ({"pt_total": [10, 10, 0, 5]}, "offsets must be positive"),
        ({"pt_total": [-10, 10, 5, 5]}, "offsets must be positive"),
        ({"starts": [0, 4]}, "counts must be a non-empty 1-d sequence"),
        ({"starts": [1, 2]}, "counts must be 1-d with the first clone starting at 0"),
        ({"clone_id": ["a"]}, "ids and starts must be 1-d and of equal length"),
        (  # row 1, which no observation sits on, gives person-time ("p", 0) a second total
            {
                "obs_pt": [3, 4, 0, 2],
                "pt_person": ["p", "p", "p", "q", "q"],
                "pt_time": [0, 0, 1, 1, 2],
                "pt_total": [10, 20, 10, 5, 5],
            },
            "person-time rows must increase in (person, time)",
        ),
        (  # row 0 is used by no observation
            {
                "obs_pt": [3, 4, 1, 2],
                "pt_person": ["p", "p", "p", "q", "q"],
                "pt_time": [-1, 0, 1, 1, 2],
                "pt_total": [7, 10, 10, 5, 5],
            },
            "times must be non-negative and strictly increasing",
        ),
    ],
)
def test_packed_cohort_checks_keep_their_messages(change, message):
    PackedCohort(**GOOD_COHORT)
    with pytest.raises(ValidationError) as packed:
        PackedCohort(**{**GOOD_COHORT, **change})
    assert str(packed.value) == message
