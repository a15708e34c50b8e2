"""Correctness gate: checks every stage's outputs against the generated inputs.

Each check returns a list of problems; an empty list means the stage
passed.  The expectations are computed from the generator's own arrays,
never from clonedyn, so the gate does not trust the code it measures.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from perfbench.generate import Inputs

THRESHOLD = 0.75  # classify --threshold
# fitted alpha, beta and pi must lie within this share of the generating values
FIT_TOLERANCE = 0.10
SPECIFICITY_FLOOR = 0.98
STAT_TOLERANCE = 1e-6  # relative, for association statistics recomputed here

RESPONSIBILITIES_HEADER = ["person_id", "clone_id", "n_times", "prob_dynamic"]
CALLS_HEADER = ["person_id", "clone_id", "prob_dynamic", "call", "direction"]
CLASSIFY_PER_PERSON_HEADER = ["person_id", "n_dynamic", "n_expanding", "n_contracting"]
SUMMARIZE_PER_PERSON_HEADER = ["person_id", "stratum", "n_dynamic", "n_expanding", "n_contracting"]
POINTS_HEADER = ["person_id", "clone_id", "mean_proportion", "prob_dynamic", "truth_dynamic"]
TRAJECTORIES_HEADER = ["person_id", "clone_id", "time_index", "proportion", "call"]
ASSOCIATION_HEADER = [
    "metric",
    "cutoff",
    "chi_sq_stat",
    "chi_sq_pvalue",
    "chi_sq_degenerate",
    "loglinear_coef",
    "loglinear_pvalue",
    "loglinear_degenerate",
]
DIRECTIONS = {"dynamic": ("expanding", "contracting"), "static": ("na",)}

STAGE_OUTPUTS = {
    "simulate": ("cohort.tsv", "offsets.tsv", "truth.tsv"),
    "fit": ("hyperparams.txt", "responsibilities.tsv", "fit_trace.tsv"),
    "classify": (
        "calls.tsv",
        "per_person.tsv",
        "membership_points.tsv",
        "trajectories.tsv",
        "operating_characteristics.txt",
    ),
    "summarize": ("per_person.tsv", "association.tsv"),
}


class Malformed(Exception):
    """An output file does not have the expected shape."""


@dataclass
class Clone:
    n_times: int
    times: list[int]
    counts: list[int]
    offsets: list[int]
    dynamic: bool


@dataclass
class Expected:
    """What a correct pipeline must produce for one generated cohort."""

    kept: dict[tuple[str, str], Clone]
    strata: dict[str, int]


def expected_from(inputs: Inputs, cli: dict) -> Expected:
    """The kept clones with the series `fit` must see, from the workload's filter settings."""
    n_persons, n_times = inputs.depth.shape
    if inputs.rare and cli["min_total_reads"] <= 2:
        raise ValueError("rare clones of up to 2 reads must fall below min_total_reads")
    sampled = np.zeros((n_persons, n_times), dtype=bool)
    if cli["offsets"]:
        sampled[:] = True
    else:
        np.logical_or.at(sampled, inputs.person_of, inputs.recorded)
        for p, t, _clone, _count in inputs.rare:
            sampled[p, t] = True
    persons = inputs.person_ids
    depth = inputs.depth.tolist()
    kept: dict[tuple[str, str], Clone] = {}
    for i, clone_id in enumerate(inputs.clone_ids):
        recorded = inputs.recorded[i]
        counts = inputs.counts[i]
        if not recorded.any() or int(counts[recorded].sum()) < cli["min_total_reads"]:
            continue
        p = int(inputs.person_of[i])
        mask = sampled[p] if cli["absent_as_zero"] else recorded
        times = np.flatnonzero(mask).tolist()
        kept[(persons[p], clone_id)] = Clone(
            n_times=len(times),
            times=times,
            counts=counts[times].tolist(),
            offsets=[depth[p][t] for t in times],
            dynamic=bool(inputs.dynamic[i]),
        )
    return Expected(kept=kept, strata=dict(zip(persons, inputs.strata.tolist())))


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path, stage: str) -> dict[str, str]:
    return {name: sha256_of(out_dir / name) for name in STAGE_OUTPUTS[stage]}


def read_table(path: Path, header: list[str]) -> list[list[str]]:
    if not path.is_file():
        raise Malformed(f"{path.name}: missing")
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise Malformed(f"{path.name}: truncated (no final newline)")
    lines = text[:-1].split("\n")
    if lines[0].split("\t") != header:
        raise Malformed(f"{path.name}: header {lines[0]!r}")
    rows = [line.split("\t") for line in lines[1:]]
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise Malformed(f"{path.name}: line {lineno} has {len(row)} fields")
    return rows


def read_keyvalues(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise Malformed(f"{path.name}: missing")
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise Malformed(f"{path.name}: line {line!r}")
        values[key] = value
    return values


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise Malformed(f"{what}: not a number: {text!r}") from None


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise Malformed(f"{what}: not an integer: {text!r}") from None


def _keys(rows: list[list[str]], name: str) -> list[tuple[str, str]]:
    keys = [(row[0], row[1]) for row in rows]
    if len(set(keys)) != len(keys):
        raise Malformed(f"{name}: duplicate clones")
    return keys


def _same_clones(keys, expect: Expected, name: str) -> list[str]:
    got = set(keys)
    want = expect.kept.keys()
    if got == want:
        return []
    return [f"{name}: {len(got - want)} unexpected and {len(want - got)} missing clones"]


def check_simulate(out_dir: Path, gen: dict) -> list[str]:
    problems = []
    n_clones, n_times = gen["n_persons"] * gen["clones_per_person"], gen["n_times"]
    cohort = read_table(out_dir / "cohort.tsv", ["person_id", "time_index", "clone_id", "count"])
    offsets = read_table(out_dir / "offsets.tsv", ["person_id", "time_index", "total_reads"])
    truth = read_table(out_dir / "truth.tsv", ["person_id", "clone_id", "dynamic"])
    if len(truth) != n_clones:
        problems.append(f"truth.tsv: {len(truth)} clones, expected {n_clones}")
    if len(offsets) != gen["n_persons"] * n_times:
        problems.append(f"offsets.tsv: {len(offsets)} person-times")
    low = n_clones * n_times if gen["missing_rate"] == 0 else n_clones
    if not low <= len(cohort) <= n_clones * n_times:
        problems.append(f"cohort.tsv: {len(cohort)} rows")
    depth = {(p, t): _integer(total, "total_reads") for p, t, total in offsets}
    over = sum(1 for p, t, _c, n in cohort if _integer(n, "count") > depth.get((p, t), -1))
    if over:
        problems.append(f"cohort.tsv: {over} counts exceed their offset or have none")
    return problems


def check_fit(out_dir: Path, expect: Expected, gen: dict) -> list[str]:
    problems = []
    doc = read_keyvalues(out_dir / "hyperparams.txt")
    for name in ("alpha", "beta", "pi"):
        value = _number(doc.get(name, ""), name)
        lo, hi = gen[name] * (1 - FIT_TOLERANCE), gen[name] * (1 + FIT_TOLERANCE)
        if not lo <= value <= hi:
            problems.append(f"fitted {name} = {value} outside [{lo}, {hi}]")
    if doc.get("converged") != "true":
        problems.append("EM did not converge")
    if _integer(doc.get("n_clones", ""), "n_clones") != len(expect.kept):
        problems.append(f"hyperparams n_clones {doc.get('n_clones')} != {len(expect.kept)} kept")
    iterations = _integer(doc.get("iterations", ""), "iterations")
    trace = read_table(out_dir / "fit_trace.tsv", ["iteration", "loglik", "msq_change"])
    if len(trace) != iterations:
        problems.append(f"fit_trace.tsv: {len(trace)} rows for {iterations} iterations")

    rows = read_table(out_dir / "responsibilities.tsv", RESPONSIBILITIES_HEADER)
    keys = _keys(rows, "responsibilities.tsv")
    problems += _same_clones(keys, expect, "responsibilities.tsv")
    bad_times = bad_prob = 0
    for (key, row) in zip(keys, rows):
        clone = expect.kept.get(key)
        if clone is not None and _integer(row[2], "n_times") != clone.n_times:
            bad_times += 1
        prob = _number(row[3], "prob_dynamic")
        if not 0.0 <= prob <= 1.0:
            bad_prob += 1
    if bad_times:
        problems.append(f"responsibilities.tsv: {bad_times} clones with the wrong n_times")
    if bad_prob:
        problems.append(f"responsibilities.tsv: {bad_prob} probabilities outside [0, 1]")
    return problems


def slope_direction(clone: Clone) -> str:
    """Direction of a dynamic clone: the sign of the least-squares slope of
    count/offset against time; a zero slope counts as expanding."""
    x = np.asarray(clone.times, dtype=np.float64)
    y = np.asarray(clone.counts, dtype=np.float64) / np.asarray(clone.offsets, dtype=np.float64)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean())) / float(xc @ xc) if x.size > 1 and xc.any() else 0.0
    return "contracting" if slope < 0.0 else "expanding"


def check_classify(
    out_dir: Path, fit_dir: Path, expect: Expected, sensitivity_floor: float
) -> list[str]:
    problems = []
    probs = {
        (row[0], row[1]): row[3]
        for row in read_table(fit_dir / "responsibilities.tsv", RESPONSIBILITIES_HEADER)
    }
    calls = read_table(out_dir / "calls.tsv", CALLS_HEADER)
    keys = _keys(calls, "calls.tsv")
    problems += _same_clones(keys, expect, "calls.tsv")
    call_of = {}
    tallies: dict[str, list[int]] = {}
    tp = fp = tn = fn = 0
    wrong = wrong_direction = 0
    for key, (person, _clone, prob, call, direction) in zip(keys, calls):
        if prob != probs.get(key) or direction not in DIRECTIONS.get(call, ()):
            wrong += 1
            continue
        if (call == "dynamic") != (_number(prob, "prob_dynamic") > THRESHOLD):
            wrong += 1
        call_of[key] = call
        row = tallies.setdefault(person, [0, 0, 0])
        if call == "dynamic":
            row[0] += 1
            row[1 if direction == "expanding" else 2] += 1
        clone = expect.kept.get(key)
        if clone is not None:
            wrong_direction += call == "dynamic" and direction != slope_direction(clone)
            predicted = call == "dynamic"
            tp += predicted and clone.dynamic
            fp += predicted and not clone.dynamic
            fn += clone.dynamic and not predicted
            tn += not clone.dynamic and not predicted
    if wrong:
        problems.append(f"calls.tsv: {wrong} calls disagree with responsibilities.tsv")
    if wrong_direction:
        problems.append(f"calls.tsv: {wrong_direction} directions disagree with the counts")

    per_person = read_table(out_dir / "per_person.tsv", CLASSIFY_PER_PERSON_HEADER)
    if {row[0]: [_integer(v, "per_person") for v in row[1:]] for row in per_person} != tallies:
        problems.append("per_person.tsv does not match the calls")

    points = read_table(out_dir / "membership_points.tsv", POINTS_HEADER)
    problems += _same_clones(_keys(points, "membership_points.tsv"), expect, "membership_points.tsv")
    wrong = 0
    for person, clone_id, mean_prop, prob, truth in points:
        clone = expect.kept.get((person, clone_id))
        if clone is None:
            continue
        if (
            _number(mean_prop, "mean_proportion") != sum(clone.counts) / sum(clone.offsets)
            or prob != probs.get((person, clone_id))
            or truth != str(int(clone.dynamic))
        ):
            wrong += 1
    if wrong:
        problems.append(f"membership_points.tsv: {wrong} wrong rows")

    trajectories = read_table(out_dir / "trajectories.tsv", TRAJECTORIES_HEADER)
    n_points = sum(clone.n_times for clone in expect.kept.values())
    if len(trajectories) != n_points:
        problems.append(f"trajectories.tsv: {len(trajectories)} rows, expected {n_points}")
    wrong = 0
    position: dict[tuple[str, str], int] = {}
    for person, clone_id, time, proportion, call in trajectories:
        key = (person, clone_id)
        clone = expect.kept.get(key)
        k = position.get(key, 0)
        position[key] = k + 1
        if (
            clone is None
            or k >= clone.n_times
            or _integer(time, "time_index") != clone.times[k]
            or _number(proportion, "proportion") != clone.counts[k] / clone.offsets[k]
            or call != call_of.get(key)
        ):
            wrong += 1
    if wrong:
        problems.append(f"trajectories.tsv: {wrong} rows disagree with the generated counts")

    oc = read_keyvalues(out_dir / "operating_characteristics.txt")
    if [_integer(oc.get(k, ""), k) for k in ("tp", "fp", "tn", "fn")] != [tp, fp, tn, fn]:
        problems.append("operating_characteristics.txt: confusion matrix does not match the calls")
    for name, floor in (("sensitivity", sensitivity_floor), ("specificity", SPECIFICITY_FLOOR)):
        value = _number(oc.get(name, ""), name)
        if not value >= floor:
            problems.append(f"{name} {value} below the floor {floor}")
    return problems


def expected_association(counts: dict[str, int], strata: dict[str, int], cutoff: int) -> list:
    """Chi-square on stratum x (count > cutoff) without continuity correction,
    then the Poisson log-linear rate ratio of stratum 1 to 0 with its Wald
    p-value: association.tsv's columns from chi_sq_stat on."""
    groups: tuple[list[int], list[int]] = ([], [])
    for person, count in counts.items():
        groups[strata[person]].append(count)
    table = np.array([[sum(c <= cutoff for c in g), sum(c > cutoff for c in g)] for g in groups])
    if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
        chi = [0.0, 1.0, True]
    else:
        found = stats.chi2_contingency(table, correction=False)
        chi = [float(found[0]), float(found[1]), False]
    totals = [sum(g) for g in groups]
    if 0 in totals:
        return chi + [math.nan, math.nan, True]
    coef = math.log((totals[1] / len(groups[1])) / (totals[0] / len(groups[0])))
    z = coef / math.sqrt(1 / totals[0] + 1 / totals[1])
    return chi + [coef, float(2 * stats.norm.sf(abs(z))), False]


def _same_number(text: str, want: float) -> bool:
    got = _number(text, "association.tsv")
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=STAT_TOLERANCE)


def check_summarize(out_dir: Path, classify_dir: Path, expect: Expected, cli: dict) -> list[str]:
    problems = []
    counts = {
        row[0]: row[1:]
        for row in read_table(classify_dir / "per_person.tsv", CLASSIFY_PER_PERSON_HEADER)
    }
    rows = read_table(out_dir / "per_person.tsv", SUMMARIZE_PER_PERSON_HEADER)
    got = {row[0]: row[1:] for row in rows}
    want = {p: [str(expect.strata.get(p)), *c] for p, c in counts.items()}
    if got != want:
        return ["per_person.tsv does not match the classify counts and strata"]
    association = read_table(out_dir / "association.tsv", ASSOCIATION_HEADER)
    cutoffs = {
        "dynamic": cli["cutoff_dynamic"],
        "expanding": cli["cutoff_direction"],
        "contracting": cli["cutoff_direction"],
    }
    if [row[0] for row in association] != list(cutoffs):
        problems.append("association.tsv: wrong metrics")
        return problems
    for metric, cutoff, *values in association:
        if _integer(cutoff, "cutoff") != cutoffs[metric]:
            problems.append(f"association.tsv: {metric} cutoff {cutoff}")
            continue
        column = SUMMARIZE_PER_PERSON_HEADER.index(f"n_{metric}")
        counts = {row[0]: _integer(row[column], "per_person") for row in rows}
        want = expected_association(counts, expect.strata, cutoffs[metric])
        if not all(
            text == str(value).lower() if isinstance(value, bool) else _same_number(text, value)
            for text, value in zip(values, want)
        ):
            problems.append(f"association.tsv: {metric} statistics do not follow from the counts")
    return problems


def check_stage(stage: str, out_dir: Path, dirs: dict[str, Path], expect: Expected, workload: dict):
    """Problems with one stage's outputs; malformed files are problems, not crashes."""
    try:
        if stage == "simulate":
            return check_simulate(out_dir, workload["generator"])
        if stage == "fit":
            return check_fit(out_dir, expect, workload["generator"])
        if stage == "classify":
            return check_classify(out_dir, dirs["fit"], expect, workload["sensitivity_floor"])
        return check_summarize(out_dir, dirs["classify"], expect, workload["cli"])
    except Malformed as exc:
        return [str(exc)]
