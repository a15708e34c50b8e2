"""Clone classification and cohort-level association summaries.

Responsibilities become hard dynamic/static calls at a strict threshold;
dynamic calls are split into expanding/contracting by the least-squares
slope of the observed proportions against follow-up time.  Per-person
dynamic-clone counts, as columns, feed two association tests against a
binary stratum aligned with them: a Pearson chi-square on dichotomized
counts and a closed-form Poisson log-linear rate ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .model import PackedCohort, match_keys, segment_rows, strictly_increasing
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


@dataclass(frozen=True, eq=False)
class PersonCounts:
    """Per-person call totals as columns: person_id (an object array of str,
    sorted) and the int64 columns n_dynamic, n_expanding and n_contracting.
    vars() of it is the mapping of columns write_table takes."""

    person_id: np.ndarray
    n_dynamic: np.ndarray
    n_expanding: np.ndarray
    n_contracting: np.ndarray


@dataclass(frozen=True)
class AssociationResult:
    """One metric's row of association.tsv: its columns after metric, in
    order, then chi_sq_table, which is not written."""

    cutoff: int
    chi_sq_stat: float
    chi_sq_pvalue: float
    chi_sq_degenerate: bool
    loglinear_coef: float
    loglinear_pvalue: float
    loglinear_degenerate: bool
    chi_sq_table: tuple[tuple[int, int], tuple[int, int]]  # rows: stratum 0/1; cols: <=, > cutoff


# the (call, direction) of each CallTable.direction code, as calls.tsv spells them
KINDS = (
    (Call.STATIC, Direction.NOT_APPLICABLE),
    (Call.DYNAMIC, Direction.EXPANDING),
    (Call.DYNAMIC, Direction.CONTRACTING),
)
NOT_APPLICABLE, EXPANDING, CONTRACTING = range(3)


class CallTable:
    """Clone calls as the columns of calls.tsv: person_id and clone_id (object
    arrays of str), prob_dynamic (float64) and a direction code (int8, an
    index into KINDS), which gives both the call and its direction, so a
    dynamic call always has one.

    len, integer indexing and iteration give CloneCall objects built on
    demand, as PackedCohort gives CloneSeries.
    """

    def __init__(self, person_id, clone_id, prob_dynamic, direction):
        self.person_id = np.asarray(person_id, dtype=object)
        self.clone_id = np.asarray(clone_id, dtype=object)
        self.prob_dynamic = np.asarray(prob_dynamic, dtype=np.float64)
        self.direction = np.asarray(direction, dtype=np.int8)

    @property
    def dynamic(self) -> np.ndarray:
        """Whether each call is dynamic: whether it has a direction."""
        return self.direction != NOT_APPLICABLE

    def __len__(self) -> int:
        return int(self.person_id.size)

    def __getitem__(self, i: int) -> CloneCall:
        i = range(len(self))[i]
        call, direction = KINDS[self.direction[i]]
        return CloneCall(
            self.person_id[i], self.clone_id[i], float(self.prob_dynamic[i]), call, direction
        )

    def __iter__(self) -> Iterator[CloneCall]:
        return (self[i] for i in range(len(self)))

    def call_text(self) -> np.ndarray:
        """Each call's Call value ("dynamic" or "static"), as an object array."""
        return np.array([call.value for call, _ in KINDS], dtype=object)[self.direction]

    def direction_text(self) -> np.ndarray:
        """Each call's Direction value, as an object array."""
        return np.array([direction.value for _, direction in KINDS], dtype=object)[self.direction]


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
    pt = cohort.obs_pt[rows]
    x = cohort.pt_time[pt].astype(np.float64)
    y = cohort.counts[rows] / cohort.pt_total[pt]
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
        span = slice(starts[i], starts[i] + n[i])
        contracting[i] = _ols_slope(x[span], y[span]) < 0.0
    return contracting


def check_threshold(threshold: float) -> None:
    """ValidationError unless 0 < threshold < 1."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")


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
    check_threshold(threshold)
    if not strictly_increasing(cohort.person_id, cohort.clone_id):
        raise ValidationError("clones must be in (person_id, clone_id) order without duplicates")
    probs = np.asarray(prob_dynamic, dtype=np.float64)
    if probs.shape != (len(cohort),):
        raise ValidationError(f"expected {len(cohort)} responsibilities, got {probs.shape}")

    direction = np.full(len(cohort), NOT_APPLICABLE, dtype=np.int8)
    index = np.flatnonzero(probs > threshold)
    direction[index] = np.where(_contracting(cohort, index), CONTRACTING, EXPANDING)
    return CallTable(cohort.person_id, cohort.clone_id, probs, direction)


def truth_of(calls: CallTable, truth: TruthLabels) -> np.ndarray:
    """Each call's true label, in call order, joined on (person_id,
    clone_id) by match_keys; ValidationError when truth misses a clone."""
    rows = match_keys((truth.person_id, truth.clone_id), (calls.person_id, calls.clone_id))
    if (rows < 0).any():
        i = int(np.argmax(rows < 0))
        key = (calls.person_id[i], calls.clone_id[i])
        raise ValidationError(f"truth does not cover clone {key}")
    return truth.dynamic[rows]


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


def dynamic_counts_per_person(calls: CallTable) -> PersonCounts:
    """Per-person totals of dynamic, expanding and contracting calls."""
    persons, person = _codes(calls.person_id)
    tallies = (
        np.bincount(person[mask], minlength=persons.size).astype(np.int64, copy=False)
        for mask in (calls.dynamic, calls.direction == EXPANDING, calls.direction == CONTRACTING)
    )
    return PersonCounts(persons, *tallies)


def associate(counts: np.ndarray, stratum: np.ndarray, cutoff: int) -> AssociationResult:
    """Both association tests of one per-person count metric against a 0/1
    stratum aligned with it, on the 2x2 cells and stratum totals as Python ints.

    Pearson's chi-square (no continuity correction) on the table of stratum
    against count > cutoff has the chi-square(1) p-value erfc(sqrt(stat / 2));
    an empty margin makes it degenerate, stat 0 and p-value 1.  The Poisson
    log-linear coefficient is log(mean count in stratum 1 / mean count in
    stratum 0), with a two-sided Wald p-value from the asymptotic variance
    1/total1 + 1/total0; a stratum of zero total makes it degenerate (nan).
    """
    counts, stratum = np.asarray(counts, dtype=np.int64), np.asarray(stratum)
    if counts.ndim != 1 or stratum.shape != counts.shape:
        raise ValidationError(f"expected one stratum per count, got {stratum.shape}")
    if not np.isin(stratum, (0, 1)).all():
        raise ValidationError("strata must be 0 or 1")
    group1 = stratum == 1
    n1 = int(np.count_nonzero(group1))
    n0 = counts.size - n1
    if n0 < 2 or n1 < 2:
        raise ValidationError("need at least two persons per stratum")
    above = counts > cutoff
    b, d = int(np.count_nonzero(above & ~group1)), int(np.count_nonzero(above & group1))
    a, c = n0 - b, n1 - d
    chi_sq_degenerate = a + c == 0 or b + d == 0
    stat, chi_sq_pvalue = 0.0, 1.0
    if not chi_sq_degenerate:
        stat = (n0 + n1) * (a * d - b * c) ** 2 / (n0 * n1 * (a + c) * (b + d))
        chi_sq_pvalue = math.erfc(math.sqrt(stat / 2.0))
    total0, total1 = sum(counts[~group1].tolist()), sum(counts[group1].tolist())
    loglinear_degenerate = total0 == 0 or total1 == 0
    coef = loglinear_pvalue = math.nan
    if not loglinear_degenerate:
        coef = math.log((total1 / n1) / (total0 / n0))
        se = math.sqrt(1.0 / total1 + 1.0 / total0)
        loglinear_pvalue = math.erfc(abs(coef / se) / math.sqrt(2.0))
    return AssociationResult(
        cutoff, stat, chi_sq_pvalue, chi_sq_degenerate, coef, loglinear_pvalue,
        loglinear_degenerate, chi_sq_table=((a, b), (c, d)),
    )  # fmt: skip
