"""Thresholded calls, per-person counts, and the two association tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonedyn import (
    Call,
    CallTable,
    CloneSeries,
    Direction,
    FitConfig,
    SimConfig,
    ValidationError,
    associate,
    classify,
    dynamic_counts_per_person,
    fit_em,
    operating_characteristics,
    simulate,
)
from clonedyn.classify import DIRECTIONS, truth_of
from clonedyn.model import match_keys
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


KEY_PARTS = st.sampled_from(["", "a", "b", "ab", "é", "a\x00"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(KEY_PARTS, st.integers(-2, 2)), unique=True, max_size=12),
    st.lists(st.tuples(KEY_PARTS, st.integers(-2, 2)), max_size=12),
    st.booleans(),
)
def test_match_keys_agrees_with_a_dict(table_keys, keys, aligned):
    """Random key sets in any order, with keys the table lacks and table rows
    no key asks for; and the aligned case, keys equal to the table's."""
    if aligned:
        keys = list(table_keys)
    row_of = {key: row for row, key in enumerate(table_keys)}

    def columns(pairs):
        return (
            np.array([p for p, _ in pairs], dtype=object),
            np.array([t for _, t in pairs], dtype=np.int64),
        )

    rows = match_keys(columns(table_keys), columns(keys))
    assert rows.dtype == np.int64
    assert rows.tolist() == [row_of.get(key, -1) for key in keys]


class TestDynamicCounts:
    def test_no_dynamic_calls(self):
        calls = table(("p", "a", 0.1, Call.STATIC, Direction.NOT_APPLICABLE))
        counts = dynamic_counts_per_person(calls)
        assert counts.person_id.tolist() == ["p"]
        assert counts.n_dynamic.tolist() == [0]
        assert counts.n_expanding.tolist() == [0]
        assert counts.n_contracting.tolist() == [0]

    def test_mixed_calls(self):
        calls = table(
            ("p", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING),
            ("p", "b", 0.8, Call.DYNAMIC, Direction.CONTRACTING),
            ("p", "c", 0.1, Call.STATIC, Direction.NOT_APPLICABLE),
        )
        counts = dynamic_counts_per_person(calls)
        assert (counts.n_dynamic[0], counts.n_expanding[0], counts.n_contracting[0]) == (2, 1, 1)

    def test_dynamic_call_without_direction_is_not_contracting(self):
        calls = table(("p", "a", 0.9, Call.DYNAMIC, Direction.NOT_APPLICABLE))
        counts = dynamic_counts_per_person(calls)
        assert (counts.n_dynamic[0], counts.n_expanding[0], counts.n_contracting[0]) == (1, 0, 0)

    def test_partition_identity(self):
        clones = simulate(SimConfig(n_clones=500, n_persons=5, seed=16))[0]
        result = fit_em(clones, FitConfig(seed=2))
        calls = classify(result.prob_dynamic, result.cohort, 0.5)
        counts = dynamic_counts_per_person(calls)
        assert np.array_equal(counts.n_dynamic, counts.n_expanding + counts.n_contracting)

    def test_columns_are_sorted_by_person_and_int64(self):
        calls = table(
            ("p2", "a", 0.9, Call.DYNAMIC, Direction.CONTRACTING),
            ("p1", "a", 0.9, Call.DYNAMIC, Direction.EXPANDING),
            ("p2", "b", 0.1, Call.STATIC, Direction.NOT_APPLICABLE),
        )
        counts = dynamic_counts_per_person(calls)
        assert list(vars(counts)) == ["person_id", "n_dynamic", "n_expanding", "n_contracting"]
        assert counts.person_id.tolist() == ["p1", "p2"]
        columns = (counts.n_dynamic, counts.n_expanding, counts.n_contracting)
        assert [c.tolist() for c in columns] == [[1, 1], [1, 0], [0, 1]]
        assert all(c.dtype == np.int64 for c in columns)


class TestChiSquare:
    @staticmethod
    def build(counts0, counts1):
        """The counts of the persons in stratum 0, then of those in stratum 1,
        and the strata aligned with them."""
        return np.array(counts0 + counts1), np.array([0] * len(counts0) + [1] * len(counts1))

    def test_independent_table_gives_zero(self):
        # 10/10 above and below the cutoff in each stratum
        counts, strata = self.build([0] * 10 + [100] * 10, [0] * 10 + [100] * 10)
        result = associate(counts, strata, cutoff=50)
        assert result.chi_sq_stat == 0.0
        assert result.chi_sq_pvalue == 1.0
        assert not result.chi_sq_degenerate

    def test_hand_computed_two_by_two(self):
        # table [[10, 20], [20, 10]]: stat = 20/3, p = erfc(sqrt(10/3))
        counts, strata = self.build([0] * 10 + [100] * 20, [0] * 20 + [100] * 10)
        result = associate(counts, strata, cutoff=50)
        assert result.chi_sq_table == ((10, 20), (20, 10))
        assert result.chi_sq_stat == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert result.chi_sq_pvalue == pytest.approx(0.00982327450752, rel=1e-9)

    def test_proportional_rows_give_zero(self):
        counts, strata = self.build([0] * 6 + [100] * 3, [0] * 12 + [100] * 6)
        result = associate(counts, strata, cutoff=50)
        assert result.chi_sq_stat == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_margin_flagged(self):
        counts, strata = self.build([0, 0, 0], [0, 0, 0])
        result = associate(counts, strata, cutoff=50)
        assert result.chi_sq_degenerate
        assert result.chi_sq_stat == 0.0
        assert result.chi_sq_pvalue == 1.0

    def test_too_few_persons_raises(self):
        counts, strata = self.build([1], [2, 3])
        with pytest.raises(ValidationError):
            associate(counts, strata, cutoff=0)

    def test_missing_stratum_raises(self):
        # a count without a stratum: strata not aligned with the counts
        with pytest.raises(ValidationError):
            associate(np.array([1, 2]), np.array([0]), cutoff=0)

    def test_stratum_other_than_0_or_1_raises(self):
        counts, strata = self.build([1, 2], [3, 4])
        with pytest.raises(ValidationError):
            associate(counts, strata * 2, cutoff=0)


class TestLogLinear:
    strata = np.array([0, 0, 1, 1])  # persons a0, a1, b0, b1

    def test_equal_means_give_zero(self):
        result = associate(np.array([4, 6, 5, 5]), self.strata, cutoff=0)
        assert result.loglinear_coef == pytest.approx(0.0, abs=1e-15)
        assert result.loglinear_pvalue == pytest.approx(1.0)

    def test_closed_form_log_ratio(self):
        # stratum 0 counts (2, 4), stratum 1 counts (6, 6): log(6 / 3) = log 2
        result = associate(np.array([2, 4, 6, 6]), self.strata, cutoff=0)
        assert result.loglinear_coef == pytest.approx(math.log(2.0), rel=1e-12)
        se = math.sqrt(1.0 / 12.0 + 1.0 / 6.0)
        z = abs(result.loglinear_coef / se)
        assert result.loglinear_pvalue == pytest.approx(math.erfc(z / math.sqrt(2.0)))

    def test_mean_preserving_padding_keeps_coefficient(self):
        base = associate(np.array([2, 4, 6, 6]), self.strata, cutoff=0)
        # a2 = 3 joins stratum 0 and b2 = 6 stratum 1
        padded = associate(np.array([2, 4, 6, 6, 3, 6]), np.array([0, 0, 1, 1, 0, 1]), cutoff=0)
        assert padded.loglinear_coef == pytest.approx(base.loglinear_coef, rel=1e-12)

    def test_stratum_relabeling_flips_sign(self):
        counts = np.array([2, 4, 6, 6])
        assert associate(counts, self.strata, cutoff=0).loglinear_coef == pytest.approx(
            -associate(counts, 1 - self.strata, cutoff=0).loglinear_coef, rel=1e-12
        )

    def test_zero_total_stratum_is_degenerate(self):
        result = associate(np.array([0, 0, 6, 6]), self.strata, cutoff=0)
        assert result.loglinear_degenerate
        assert math.isnan(result.loglinear_coef)

    def test_empty_stratum_raises(self):
        with pytest.raises(ValidationError):
            associate(np.array([1]), np.array([0]), cutoff=0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 1)), min_size=4, max_size=30),
    st.integers(-1, 12),
)
def test_associate_equals_python_int_arithmetic_on_the_persons(persons, cutoff):
    """Every statistic, to the bit, as the 2x2 table and stratum totals give it
    when built person by person in Python ints."""
    groups = ([c for c, s in persons if s == 0], [c for c, s in persons if s == 1])
    counts, strata = (np.array(column) for column in zip(*persons))
    if min(map(len, groups)) < 2:
        with pytest.raises(ValidationError, match="two persons per stratum"):
            associate(counts, strata, cutoff)
        return
    result = associate(counts, strata, cutoff)
    (a, b), (c, d) = [(sum(x <= cutoff for x in g), sum(x > cutoff for x in g)) for g in groups]
    assert result.chi_sq_table == ((a, b), (c, d))
    if min(a + c, b + d) == 0:
        assert (result.chi_sq_stat, result.chi_sq_pvalue, result.chi_sq_degenerate) == (
            0.0, 1.0, True
        )
    else:
        stat = len(persons) * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
        assert (result.chi_sq_stat, result.chi_sq_degenerate) == (stat, False)
        assert result.chi_sq_pvalue == math.erfc(math.sqrt(stat / 2.0))
    total0, total1 = map(sum, groups)
    if min(total0, total1) == 0:
        assert result.loglinear_degenerate and math.isnan(result.loglinear_pvalue)
    else:
        coef = math.log((total1 / len(groups[1])) / (total0 / len(groups[0])))
        z = abs(coef / math.sqrt(1.0 / total1 + 1.0 / total0))
        assert (result.loglinear_coef, result.loglinear_degenerate) == (coef, False)
        assert result.loglinear_pvalue == math.erfc(z / math.sqrt(2.0))
