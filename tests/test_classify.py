"""Thresholded calls, per-person counts, and the two association tests."""

import math
import re

import numpy as np
import pytest

from clonedyn import (
    Call,
    CallTable,
    CloneSeries,
    Direction,
    FitConfig,
    SimConfig,
    ValidationError,
    chi_square_dichotomized,
    classify,
    dynamic_counts_per_person,
    fit_em,
    loglinear_rate_ratio,
    operating_characteristics,
    simulate,
)
from clonedyn.classify import DIRECTIONS, truth_of
from clonedyn.simulate import TruthLabels

from oracles import pack


def series(counts, offsets, clone="c", person="p", times=None):
    return CloneSeries(
        clone_id=clone, person_id=person, counts=counts, offsets=offsets, times=times
    )


def table(*calls):
    """CallTable of (person_id, clone_id, prob_dynamic, Call, Direction) rows."""
    person, clone, prob, call, direction = zip(*calls)
    dynamic = [c is Call.DYNAMIC for c in call]
    return CallTable(person, clone, prob, dynamic, [DIRECTIONS.index(d) for d in direction])


class TestClassify:
    def test_threshold_is_strict(self):
        s = series([1, 2], [10, 10])
        calls = classify(np.array([0.75]), pack([s]), threshold=0.75)
        assert calls[0].call is Call.STATIC
        assert calls[0].direction is Direction.NOT_APPLICABLE
        calls = classify(np.array([0.7500001]), pack([s]), threshold=0.75)
        assert calls[0].call is Call.DYNAMIC

    def test_rising_proportions_expand(self):
        s = series([1, 4], [1000, 1000])
        calls = classify(np.array([0.9]), pack([s]), threshold=0.75)
        assert calls[0].direction is Direction.EXPANDING

    def test_falling_proportions_contract(self):
        s = series([40, 4], [1000, 1000])
        calls = classify(np.array([0.9]), pack([s]), threshold=0.75)
        assert calls[0].direction is Direction.CONTRACTING

    def test_two_timepoints_use_last_minus_first_even_with_gaps(self):
        s = series([10, 4], [1000, 1000], times=[0, 3])
        calls = classify(np.array([0.9]), pack([s]), threshold=0.75)
        assert calls[0].direction is Direction.CONTRACTING

    def test_flat_slope_counts_as_expanding(self):
        s = series([5, 5], [1000, 1000])
        calls = classify(np.array([0.9]), pack([s]), threshold=0.75)
        assert calls[0].direction is Direction.EXPANDING

    def test_slope_uses_observed_times(self):
        # same counts, different spacing: slope sign is set by the trend
        # across the actual time indices
        s = series([2, 10, 3], [1000, 1000, 1000], times=[0, 1, 5])
        calls = classify(np.array([0.9]), pack([s]), threshold=0.75)
        assert calls[0].direction is Direction.CONTRACTING

    def test_probability_count_mismatch_raises(self):
        s = series([1, 2], [10, 10])
        with pytest.raises(ValidationError):
            classify(np.array([0.5, 0.5]), pack([s]), threshold=0.75)

    def test_unsorted_or_repeated_clones_raise(self):
        # sorting the clones but not their probabilities would pair 0.9 with "a"
        b = series([5, 1], [10, 10], clone="b")
        a = series([1, 5], [10, 10], clone="a")
        with pytest.raises(ValidationError, match="order"):
            classify(np.array([0.9, 0.1]), pack([b, a]), threshold=0.75)
        with pytest.raises(ValidationError, match="duplicates"):
            classify(np.array([0.9, 0.1]), pack([a, a]), threshold=0.75)
        calls = classify(np.array([0.1, 0.9]), pack([a, b]), threshold=0.75)
        assert [(c.clone_id, c.call, c.direction) for c in calls] == [
            ("a", Call.STATIC, Direction.NOT_APPLICABLE),
            ("b", Call.DYNAMIC, Direction.CONTRACTING),
        ]

    def test_threshold_bounds(self):
        s = series([1, 2], [10, 10])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                classify(np.array([0.5]), pack([s]), threshold=bad)

    def test_raising_threshold_never_adds_dynamic_calls(self):
        clones = simulate(SimConfig(n_clones=400, n_persons=4, seed=15))[0]
        result = fit_em(clones, FitConfig(seed=1))
        counts = []
        for threshold in (0.5, 0.65, 0.75, 0.9, 0.95, 0.99):
            calls = classify(result.prob_dynamic, result.cohort, threshold)
            counts.append(sum(1 for c in calls if c.call is Call.DYNAMIC))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestOperatingCharacteristics:
    def test_perfect_calls(self):
        calls = table(
            ("p", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING),
            ("p", "b", 0.1, Call.STATIC, Direction.NOT_APPLICABLE),
        )
        oc = operating_characteristics(calls, np.array([True, False]), 0.75)
        assert (oc.sensitivity, oc.specificity) == (1.0, 1.0)
        assert (oc.tp, oc.fp, oc.tn, oc.fn) == (1, 0, 1, 0)

    def test_matches_direct_recount(self):
        rng = np.random.default_rng(44)
        rows = []
        truth = {}
        for i in range(200):
            key = ("p", f"c{i}")
            predicted = bool(rng.random() < 0.4)
            truth[key] = bool(rng.random() < 0.5)
            rows.append(
                (
                    *key,
                    0.9 if predicted else 0.1,
                    Call.DYNAMIC if predicted else Call.STATIC,
                    Direction.EXPANDING if predicted else Direction.NOT_APPLICABLE,
                )
            )
        calls = table(*rows)
        oc = operating_characteristics(calls, np.array([truth[c.key] for c in calls]), 0.75)
        tp = sum(1 for c in calls if c.call is Call.DYNAMIC and truth[c.key])
        fp = sum(1 for c in calls if c.call is Call.DYNAMIC and not truth[c.key])
        fn = sum(1 for c in calls if c.call is Call.STATIC and truth[c.key])
        tn = sum(1 for c in calls if c.call is Call.STATIC and not truth[c.key])
        assert (oc.tp, oc.fp, oc.tn, oc.fn) == (tp, fp, tn, fn)
        assert oc.sensitivity == pytest.approx(tp / (tp + fn))
        assert oc.specificity == pytest.approx(tn / (tn + fp))

    def test_truth_columns_align_in_any_order_and_with_extra_clones(self):
        rng = np.random.default_rng(45)
        keys = [(f"p{i % 7}", f"c{i:03d}") for i in range(300)]
        labels = {key: bool(rng.random() < 0.3) for key in sorted(keys)}
        kept = sorted(k for k in keys if rng.random() < 0.8)
        calls = table(*((*k, 0.5, Call.STATIC, Direction.NOT_APPLICABLE) for k in kept))
        expected = [labels[k] for k in kept]
        for order in (kept, sorted(keys), list(rng.permutation(np.array(keys, dtype=object)))):
            truth = TruthLabels(
                np.array([p for p, _ in order], dtype=object),
                np.array([c for _, c in order], dtype=object),
                np.array([labels[tuple(k)] for k in order]),
            )
            assert truth_of(calls, truth).tolist() == expected
        missing = kept[len(kept) // 2]
        rest = [k for k in sorted(keys) if k != missing]
        truth = TruthLabels(
            np.array([p for p, _ in rest], dtype=object),
            np.array([c for _, c in rest], dtype=object),
            np.array([labels[k] for k in rest]),
        )
        message = re.escape(f"truth does not cover clone {missing}")
        with pytest.raises(ValidationError, match=message):
            truth_of(calls, truth)

    def test_uncovered_truth_raises(self):
        calls = table(("p", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING))
        empty = np.array([], dtype=object)
        with pytest.raises(ValidationError):
            truth_of(calls, TruthLabels(empty, empty, np.array([], dtype=bool)))

    def test_misaligned_truth_array_raises(self):
        calls = table(("p", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING))
        with pytest.raises(ValidationError):
            operating_characteristics(calls, np.array([True, False]), 0.75)


class TestDynamicCounts:
    def test_no_dynamic_calls(self):
        calls = table(("p", "a", 0.1, Call.STATIC, Direction.NOT_APPLICABLE))
        counts = dynamic_counts_per_person(calls)
        assert counts["p"].n_dynamic == 0
        assert counts["p"].n_expanding == 0
        assert counts["p"].n_contracting == 0

    def test_mixed_calls(self):
        calls = table(
            ("p", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING),
            ("p", "b", 0.8, Call.DYNAMIC, Direction.CONTRACTING),
            ("p", "c", 0.1, Call.STATIC, Direction.NOT_APPLICABLE),
        )
        counts = dynamic_counts_per_person(calls)
        assert (counts["p"].n_dynamic, counts["p"].n_expanding, counts["p"].n_contracting) == (2, 1, 1)

    def test_dynamic_call_without_direction_is_not_contracting(self):
        calls = table(("p", "a", 0.9, Call.DYNAMIC, Direction.NOT_APPLICABLE))
        counts = dynamic_counts_per_person(calls)
        assert (counts["p"].n_dynamic, counts["p"].n_expanding, counts["p"].n_contracting) == (1, 0, 0)

    def test_partition_identity(self):
        clones = simulate(SimConfig(n_clones=500, n_persons=5, seed=16))[0]
        result = fit_em(clones, FitConfig(seed=2))
        calls = classify(result.prob_dynamic, result.cohort, 0.5)
        for person, counts in dynamic_counts_per_person(calls).items():
            assert counts.n_dynamic == counts.n_expanding + counts.n_contracting


class TestChiSquare:
    @staticmethod
    def build(counts0, counts1):
        counts = {}
        strata = {}
        for i, c in enumerate(counts0):
            counts[f"a{i}"] = c
            strata[f"a{i}"] = 0
        for i, c in enumerate(counts1):
            counts[f"b{i}"] = c
            strata[f"b{i}"] = 1
        return counts, strata

    def test_independent_table_gives_zero(self):
        # 10/10 above and below the cutoff in each stratum
        counts, strata = self.build([0] * 10 + [100] * 10, [0] * 10 + [100] * 10)
        result = chi_square_dichotomized(counts, strata, cutoff=50)
        assert result.stat == 0.0
        assert result.pvalue == 1.0
        assert not result.degenerate

    def test_hand_computed_two_by_two(self):
        # table [[10, 20], [20, 10]]: stat = 20/3, p = erfc(sqrt(10/3))
        counts, strata = self.build([0] * 10 + [100] * 20, [0] * 20 + [100] * 10)
        result = chi_square_dichotomized(counts, strata, cutoff=50)
        assert result.table == ((10, 20), (20, 10))
        assert result.stat == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert result.pvalue == pytest.approx(0.00982327450752, rel=1e-9)

    def test_proportional_rows_give_zero(self):
        counts, strata = self.build([0] * 6 + [100] * 3, [0] * 12 + [100] * 6)
        result = chi_square_dichotomized(counts, strata, cutoff=50)
        assert result.stat == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_margin_flagged(self):
        counts, strata = self.build([0, 0, 0], [0, 0, 0])
        result = chi_square_dichotomized(counts, strata, cutoff=50)
        assert result.degenerate
        assert result.stat == 0.0
        assert result.pvalue == 1.0

    def test_too_few_persons_raises(self):
        counts, strata = self.build([1], [2, 3])
        with pytest.raises(ValidationError):
            chi_square_dichotomized(counts, strata, cutoff=0)

    def test_missing_stratum_raises(self):
        with pytest.raises(ValidationError):
            chi_square_dichotomized({"x": 1, "y": 2}, {"x": 0}, cutoff=0)


class TestLogLinear:
    def test_equal_means_give_zero(self):
        counts = {"a0": 4, "a1": 6, "b0": 5, "b1": 5}
        strata = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
        result = loglinear_rate_ratio(counts, strata)
        assert result.coef == pytest.approx(0.0, abs=1e-15)
        assert result.pvalue == pytest.approx(1.0)

    def test_closed_form_log_ratio(self):
        # stratum 0 counts (2, 4), stratum 1 counts (6, 6): log(6 / 3) = log 2
        counts = {"a0": 2, "a1": 4, "b0": 6, "b1": 6}
        strata = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
        result = loglinear_rate_ratio(counts, strata)
        assert result.coef == pytest.approx(math.log(2.0), rel=1e-12)
        se = math.sqrt(1.0 / 12.0 + 1.0 / 6.0)
        assert result.pvalue == pytest.approx(math.erfc(abs(result.coef / se) / math.sqrt(2.0)))

    def test_mean_preserving_padding_keeps_coefficient(self):
        counts = {"a0": 2, "a1": 4, "b0": 6, "b1": 6}
        strata = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
        base = loglinear_rate_ratio(counts, strata)
        counts2 = dict(counts, a2=3, b2=6)
        strata2 = dict(strata, a2=0, b2=1)
        padded = loglinear_rate_ratio(counts2, strata2)
        assert padded.coef == pytest.approx(base.coef, rel=1e-12)

    def test_stratum_relabeling_flips_sign(self):
        counts = {"a0": 2, "a1": 4, "b0": 6, "b1": 6}
        strata = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
        flipped = {p: 1 - s for p, s in strata.items()}
        assert loglinear_rate_ratio(counts, strata).coef == pytest.approx(
            -loglinear_rate_ratio(counts, flipped).coef, rel=1e-12
        )

    def test_zero_total_stratum_is_degenerate(self):
        counts = {"a0": 0, "a1": 0, "b0": 6, "b1": 6}
        strata = {"a0": 0, "a1": 0, "b0": 1, "b1": 1}
        result = loglinear_rate_ratio(counts, strata)
        assert result.degenerate
        assert math.isnan(result.coef)

    def test_empty_stratum_raises(self):
        with pytest.raises(ValidationError):
            loglinear_rate_ratio({"a0": 1}, {"a0": 0})
