"""Clone classification and cohort-level association summaries.

Responsibilities become hard dynamic/static calls at a strict threshold;
dynamic calls are split into expanding/contracting by the least-squares
slope of the observed proportions against follow-up time.  Per-person
dynamic-clone counts feed two association tests against a binary
stratum: a Pearson chi-square on dichotomized counts and a closed-form
Poisson log-linear rate ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .model import PackedCohort, segment_rows
from .simulate import TruthLabels


class Call(str, Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


class Direction(str, Enum):
    EXPANDING = "expanding"
    CONTRACTING = "contracting"
    NOT_APPLICABLE = "na"


@dataclass(frozen=True)
class CloneCall:
    person_id: str
    clone_id: str
    prob_dynamic: float
    call: Call
    direction: Direction

    @property
    def key(self) -> tuple[str, str]:
        return (self.person_id, self.clone_id)


@dataclass(frozen=True)
class OperatingCharacteristics:
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float  # nan when no true dynamic clones
    specificity: float  # nan when no true static clones


@dataclass(frozen=True)
class PersonCounts:
    n_dynamic: int
    n_expanding: int
    n_contracting: int


@dataclass(frozen=True)
class ChiSquareResult:
    stat: float
    pvalue: float
    cutoff: int
    table: tuple[tuple[int, int], tuple[int, int]]  # rows: stratum 0/1; cols: <=cutoff / >cutoff
    degenerate: bool


@dataclass(frozen=True)
class LogLinearResult:
    coef: float
    pvalue: float
    degenerate: bool


@dataclass(frozen=True)
class AssociationResult:
    chi_sq_stat: float
    chi_sq_pvalue: float
    loglinear_coef: float
    loglinear_pvalue: float
    dichotomy_cutoff: int
    chi_sq_degenerate: bool
    loglinear_degenerate: bool


# CallTable.direction codes index DIRECTIONS
DIRECTIONS = (Direction.NOT_APPLICABLE, Direction.EXPANDING, Direction.CONTRACTING)
NOT_APPLICABLE, EXPANDING, CONTRACTING = range(3)
_CALL_TEXT = np.array([Call.STATIC.value, Call.DYNAMIC.value], dtype=object)
_DIRECTION_TEXT = np.array([d.value for d in DIRECTIONS], dtype=object)


class CallTable:
    """Clone calls as columns: person_id and clone_id (object arrays of str),
    prob_dynamic (float64), a dynamic mask and a direction code (int8, an
    index into DIRECTIONS).

    len, integer indexing and iteration give CloneCall objects built on
    demand, as PackedCohort gives CloneSeries.
    """

    def __init__(self, person_id, clone_id, prob_dynamic, dynamic, direction):
        self.person_id = np.asarray(person_id, dtype=object)
        self.clone_id = np.asarray(clone_id, dtype=object)
        self.prob_dynamic = np.asarray(prob_dynamic, dtype=np.float64)
        self.dynamic = np.asarray(dynamic, dtype=bool)
        self.direction = np.asarray(direction, dtype=np.int8)

    def __len__(self) -> int:
        return int(self.person_id.size)

    def __getitem__(self, i: int) -> CloneCall:
        i = range(len(self))[i]
        return CloneCall(
            self.person_id[i],
            self.clone_id[i],
            float(self.prob_dynamic[i]),
            Call.DYNAMIC if self.dynamic[i] else Call.STATIC,
            DIRECTIONS[self.direction[i]],
        )

    def __iter__(self) -> Iterator[CloneCall]:
        return (self[i] for i in range(len(self)))

    @property
    def keys(self) -> list[tuple[str, str]]:
        return list(zip(self.person_id.tolist(), self.clone_id.tolist()))

    def call_text(self) -> np.ndarray:
        """Each call's Call value ("dynamic" or "static"), as an object array."""
        return _CALL_TEXT[self.dynamic.astype(np.intp)]

    def direction_text(self) -> np.ndarray:
        """Each call's Direction value, as an object array."""
        return _DIRECTION_TEXT[self.direction]


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        return 0.0
    return float(xc @ (y - y.mean())) / denom


def _contracting(cohort: PackedCohort, index: np.ndarray) -> np.ndarray:
    """Whether _ols_slope of proportion against time is negative, for the
    clones at index.

    All clones are done at once: the numerator of the slope is a segment
    sum of centred time times centred proportion, and the denominator is
    positive.  That sum rounds differently from _ols_slope's means and
    dot products, so a clone whose sum lies within the rounding bound of
    both computations gets its sign from _ols_slope itself.
    """
    if not index.size:
        return np.zeros(0, dtype=bool)
    n = cohort.n_times[index]
    rows = segment_rows(cohort.starts[index], n)
    starts = np.cumsum(n) - n
    x = cohort.times[rows].astype(np.float64)
    y = cohort.counts[rows] / cohort.offsets[rows]
    sum_x, sum_y = np.add.reduceat(x, starts), np.add.reduceat(y, starts)
    products = (x - np.repeat(sum_x / n, n)) * (y - np.repeat(sum_y / n, n))
    numerator = np.add.reduceat(products, starts)
    # this sum and _ols_slope's numerator differ by at most ~2 (n + 3) u sum|products|
    # (rounding of the differences, products and sums) plus ~32 (n + 1) u^2 sum_x
    # sum_y (the errors of both computations' means), u being the unit roundoff;
    # the bound is at least twice that.  A single time point gives an exact zero.
    u = np.finfo(np.float64).eps / 2
    bound = 8 * (n + 2) * u * np.add.reduceat(np.abs(products), starts)
    bound += 64 * (n + 2) ** 2 * u * u * sum_x * sum_y
    contracting = numerator < 0.0
    for i in np.flatnonzero((np.abs(numerator) <= bound) & (n >= 2)).tolist():
        span = slice(int(cohort.starts[index[i]]), int(cohort.starts[index[i]] + n[i]))
        proportions = cohort.counts[span] / cohort.offsets[span]
        contracting[i] = _ols_slope(cohort.times[span].astype(np.float64), proportions) < 0.0
    return contracting


def classify(prob_dynamic: np.ndarray, cohort: PackedCohort, threshold: float) -> CallTable:
    """Hard calls: dynamic iff prob_dynamic > threshold (strictly).

    cohort must be in canonical (person_id, clone_id) order without
    repeated keys, as ingest and fit_em give it, and prob_dynamic holds
    each of its clones' probability in that order; the calls come in the
    same order.  Dynamic calls get a direction from the sign of the
    least-squares slope of count/offset against the observed time index;
    a zero slope (including single-timepoint series) counts as expanding.
    With two time points this is the sign of the follow-up minus baseline
    proportion.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    if cohort.sorted() is not cohort or cohort.has_duplicate_keys():
        raise ValidationError("clones must be in (person_id, clone_id) order without duplicates")
    probs = np.asarray(prob_dynamic, dtype=np.float64)
    if probs.shape != (len(cohort),):
        raise ValidationError(f"expected {len(cohort)} responsibilities, got {probs.shape}")

    dynamic = probs > threshold
    direction = np.full(len(cohort), NOT_APPLICABLE, dtype=np.int8)
    index = np.flatnonzero(dynamic)
    direction[index] = np.where(_contracting(cohort, index), CONTRACTING, EXPANDING)
    return CallTable(cohort.person_id, cohort.clone_id, probs, dynamic, direction)


def truth_of(calls: CallTable, truth: TruthLabels) -> np.ndarray:
    """Each call's true label, in call order; ValidationError when truth
    misses a clone.

    truth.tsv lists its clones in the calls' canonical order, so the key
    columns are compared whole first; otherwise (other order, or clones the
    calls do not have) one lexsort of both key sets puts each call right
    after the truth row with its key.
    """
    if np.array_equal(truth.person_id, calls.person_id) and np.array_equal(
        truth.clone_id, calls.clone_id
    ):
        return truth.dynamic.copy()
    n = len(truth)
    person = np.concatenate([truth.person_id, calls.person_id])
    clone = np.concatenate([truth.clone_id, calls.clone_id])
    order = np.lexsort((np.arange(person.size) >= n, clone, person))
    at = np.flatnonzero(order >= n)  # each call's place in the sorted keys
    call, before = order[at], order[at - 1]
    same_key = (person[before] == person[call]) & (clone[before] == clone[call])
    covered = (at > 0) & (before < n) & same_key
    if not covered.all():
        i = int((call[~covered] - n).min())
        raise ValidationError(f"truth does not cover clone {calls.keys[i]}")
    dynamic = np.empty(len(calls), dtype=bool)
    dynamic[call - n] = truth.dynamic[before]
    return dynamic


def operating_characteristics(
    calls: CallTable, actual: np.ndarray, threshold: float
) -> OperatingCharacteristics:
    """Confusion-matrix rates of the calls against the true labels in call
    order, as truth_of gives them."""
    actual = np.asarray(actual, dtype=bool)
    if actual.shape != (len(calls),):
        raise ValidationError(f"expected {len(calls)} truth labels, got {actual.shape}")
    predicted = calls.dynamic
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    tn = len(calls) - tp - fp - fn
    sensitivity = tp / (tp + fn) if tp + fn > 0 else math.nan
    specificity = tn / (tn + fp) if tn + fp > 0 else math.nan
    return OperatingCharacteristics(threshold, tp, fp, tn, fn, sensitivity, specificity)


def _codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in sorted order and each value's position among them."""
    if values.size and np.all(values[1:] >= values[:-1]):
        new = np.concatenate([[True], values[1:] != values[:-1]])
        return values[new], np.cumsum(new) - 1
    return np.unique(values, return_inverse=True)


def dynamic_counts_per_person(calls: CallTable) -> dict[str, PersonCounts]:
    """Per-person totals of dynamic, expanding and contracting calls."""
    persons, person = _codes(calls.person_id)
    dynamic = calls.dynamic
    tallies = (
        np.bincount(person[mask], minlength=persons.size).tolist()
        for mask in (
            dynamic,
            dynamic & (calls.direction == EXPANDING),
            dynamic & (calls.direction == CONTRACTING),
        )
    )
    return {
        p: PersonCounts(n_dynamic=d, n_expanding=e, n_contracting=c)
        for p, d, e, c in zip(persons.tolist(), *tallies)
    }


def _split_by_stratum(
    counts_by_person: Mapping[str, int], strata: Mapping[str, int]
) -> tuple[list[int], list[int]]:
    groups: tuple[list[int], list[int]] = ([], [])
    for person, count in counts_by_person.items():
        if person not in strata:
            raise ValidationError(f"person {person!r} has no stratum")
        stratum = int(strata[person])
        if stratum not in (0, 1):
            raise ValidationError(f"stratum for {person!r} must be 0 or 1, got {stratum}")
        groups[stratum].append(int(count))
    return groups


def chi_square_dichotomized(
    counts_by_person: Mapping[str, int],
    strata: Mapping[str, int],
    cutoff: int,
) -> ChiSquareResult:
    """Pearson chi-square (no continuity correction) on the 2x2 table of
    stratum against count > cutoff; the p-value is the chi-square(1)
    upper tail erfc(sqrt(stat / 2)).

    A table with an empty margin is reported as degenerate with stat 0
    and p-value 1 rather than dividing by zero.
    """
    group0, group1 = _split_by_stratum(counts_by_person, strata)
    if len(group0) < 2 or len(group1) < 2:
        raise ValidationError("need at least two persons per stratum")
    table = (
        (sum(1 for c in group0 if c <= cutoff), sum(1 for c in group0 if c > cutoff)),
        (sum(1 for c in group1 if c <= cutoff), sum(1 for c in group1 if c > cutoff)),
    )
    (a, b), (c, d) = table
    row0, row1 = a + b, c + d
    col0, col1 = a + c, b + d
    total = row0 + row1
    if min(row0, row1, col0, col1) == 0:
        return ChiSquareResult(0.0, 1.0, cutoff, table, degenerate=True)
    stat = total * (a * d - b * c) ** 2 / (row0 * row1 * col0 * col1)
    pvalue = math.erfc(math.sqrt(stat / 2.0))
    return ChiSquareResult(stat, pvalue, cutoff, table, degenerate=False)


def loglinear_rate_ratio(
    counts_by_person: Mapping[str, int],
    strata: Mapping[str, int],
) -> LogLinearResult:
    """Poisson log-linear model with one binary covariate.

    The MLE coefficient is log(mean count in stratum 1 / mean count in
    stratum 0); the two-sided Wald p-value uses the asymptotic variance
    1/total1 + 1/total0.  A stratum with zero total count leaves the
    coefficient undefined and is reported as a degenerate result.
    """
    group0, group1 = _split_by_stratum(counts_by_person, strata)
    if not group0 or not group1:
        raise ValidationError("both strata must contain at least one person")
    total0, total1 = sum(group0), sum(group1)
    if total0 == 0 or total1 == 0:
        return LogLinearResult(math.nan, math.nan, degenerate=True)
    coef = math.log((total1 / len(group1)) / (total0 / len(group0)))
    se = math.sqrt(1.0 / total1 + 1.0 / total0)
    pvalue = math.erfc(abs(coef / se) / math.sqrt(2.0))
    return LogLinearResult(coef, pvalue, degenerate=False)


def associate(
    counts_by_person: Mapping[str, int],
    strata: Mapping[str, int],
    cutoff: int,
) -> AssociationResult:
    """Both association tests on one per-person count metric."""
    chi = chi_square_dichotomized(counts_by_person, strata, cutoff)
    log_linear = loglinear_rate_ratio(counts_by_person, strata)
    return AssociationResult(
        chi_sq_stat=chi.stat,
        chi_sq_pvalue=chi.pvalue,
        loglinear_coef=log_linear.coef,
        loglinear_pvalue=log_linear.pvalue,
        dichotomy_cutoff=cutoff,
        chi_sq_degenerate=chi.degenerate,
        loglinear_degenerate=log_linear.degenerate,
    )
