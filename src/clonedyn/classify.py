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
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .model import CloneSeries, PackedCohort, as_packed
from .simulate import SimTruth


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


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        return 0.0
    return float(xc @ (y - y.mean())) / denom


def classify(
    responsibilities: Mapping[tuple[str, str], float] | np.ndarray,
    series_by_clone: Iterable[CloneSeries] | PackedCohort,
    threshold: float,
) -> list[CloneCall]:
    """Hard calls: dynamic iff prob_dynamic > threshold (strictly).

    Calls come in canonical (person_id, clone_id) order.  responsibilities
    maps each clone's key to its prob_dynamic, or is an array of them in
    that order.  Dynamic calls get a direction from the sign of the
    least-squares slope of count/offset against the observed time index;
    a zero slope (including single-timepoint series) counts as expanding.
    With two time points this is the sign of the follow-up minus baseline
    proportion.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    cohort = as_packed(series_by_clone).sorted()
    if cohort.has_duplicate_keys():
        raise ValidationError("duplicate (person_id, clone_id) keys in input")
    if isinstance(responsibilities, Mapping):
        keys = cohort.keys
        if set(keys) != set(responsibilities):
            missing = set(responsibilities) ^ set(keys)
            raise ValidationError(
                f"responsibilities and series keys do not align ({len(missing)} mismatched)"
            )
        probs = np.array([float(responsibilities[key]) for key in keys], dtype=np.float64)
    else:
        probs = np.asarray(responsibilities, dtype=np.float64)
        if probs.shape != (len(cohort),):
            raise ValidationError(f"expected {len(cohort)} responsibilities, got {probs.shape}")

    directions = [Direction.NOT_APPLICABLE] * len(cohort)
    for i in np.flatnonzero(probs > threshold).tolist():
        span = slice(int(cohort.starts[i]), int(cohort.starts[i] + cohort.n_times[i]))
        proportions = cohort.counts[span] / cohort.offsets[span]
        slope = _ols_slope(cohort.times[span].astype(np.float64), proportions)
        directions[i] = Direction.CONTRACTING if slope < 0.0 else Direction.EXPANDING
    return [
        CloneCall(
            person,
            clone,
            prob,
            Call.STATIC if direction is Direction.NOT_APPLICABLE else Call.DYNAMIC,
            direction,
        )
        for person, clone, prob, direction in zip(
            cohort.person_id.tolist(), cohort.clone_id.tolist(), probs.tolist(), directions
        )
    ]


def operating_characteristics(
    calls: Iterable[CloneCall],
    truth: SimTruth | Mapping[tuple[str, str], bool],
    threshold: float,
) -> OperatingCharacteristics:
    """Confusion-matrix rates of the calls against ground-truth labels."""
    labels = truth.labels if isinstance(truth, SimTruth) else truth
    tp = fp = tn = fn = 0
    for call in calls:
        if call.key not in labels:
            raise ValidationError(f"truth does not cover clone {call.key}")
        actual = bool(labels[call.key])
        predicted = call.call is Call.DYNAMIC
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and actual:
            fn += 1
        else:
            tn += 1
    sensitivity = tp / (tp + fn) if tp + fn > 0 else math.nan
    specificity = tn / (tn + fp) if tn + fp > 0 else math.nan
    return OperatingCharacteristics(threshold, tp, fp, tn, fn, sensitivity, specificity)


def dynamic_counts_per_person(calls: Iterable[CloneCall]) -> dict[str, PersonCounts]:
    """Per-person totals of dynamic, expanding and contracting calls."""
    tallies: dict[str, list[int]] = {}
    for call in calls:
        row = tallies.setdefault(call.person_id, [0, 0, 0])
        if call.call is Call.DYNAMIC:
            row[0] += 1
            if call.direction is Direction.EXPANDING:
                row[1] += 1
            elif call.direction is Direction.CONTRACTING:
                row[2] += 1
    return {
        person: PersonCounts(n_dynamic=row[0], n_expanding=row[1], n_contracting=row[2])
        for person, row in sorted(tallies.items())
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
