"""Command-line pipeline: simulate, fit, classify, summarize.

Each subcommand reads a flat key = value config file (optional) with
command-line flags taking precedence, writes tab-delimited tables plus
key-value documents into --output-dir, and exits with a distinct code
per failure class:

    0  success, all requested outputs written
    2  parse or validation failure
    3  unidentifiable design (every clone observed once)
    4  optimizer failure
    5  I/O failure
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classify import (
    Call,
    CloneCall,
    Direction,
    associate,
    classify,
    dynamic_counts_per_person,
    operating_characteristics,
)
from .cohort import (
    _parse_int,
    _read_rows,
    atomic_write_text,
    filter_clones,
    format_float,
    ingest,
    offsets_from_series,
    read_strata,
    read_truth_labels,
    write_cohort,
    write_offsets,
    write_table,
    write_truth,
)
from .em import FitConfig, FitResult, fit_em
from .errors import (
    IdentifiabilityError,
    OptimizerError,
    ParseError,
    ValidationError,
)
from .model import PackedCohort
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTIFIABILITY = 3
EXIT_OPTIMIZER = 4
EXIT_IO = 5

RESPONSIBILITIES_COLUMNS = ("person_id", "clone_id", "n_times", "prob_dynamic")
CALLS_COLUMNS = ("person_id", "clone_id", "prob_dynamic", "call", "direction")


def read_keyvalues(path: str | Path) -> dict[str, str]:
    """Flat `key = value` document; # comments and blank lines allowed."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: expected 'key = value'", lineno)
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def write_keyvalues(path: str | Path, values: Mapping[str, object]) -> None:
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = format_float(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


class _Options:
    """Resolved option lookup: CLI flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = read_keyvalues(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, cast, default=None, required: bool = False):
        flag_value = getattr(self._args, name, None)
        if flag_value is not None:
            return flag_value
        if name in self._config:
            raw = self._config[name]
            try:
                return _parse_bool(raw) if cast is bool else cast(raw)
            except ValueError:
                raise ValidationError(f"config key {name!r}: cannot parse {raw!r}") from None
        if required:
            raise ValidationError(f"missing required option {name!r} (flag or config)")
        return default


def _ensure_output_dir(opts: _Options) -> Path:
    out = Path(opts.get("output_dir", str, required=True))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_outputs(paths: Iterable[Path]) -> None:
    for path in paths:
        if not path.is_file() or path.stat().st_size == 0:
            raise OSError(f"output {path} was not written")


def _load_series(opts: _Options) -> PackedCohort:
    table = ingest(
        opts.get("input", str, required=True),
        offsets_path=opts.get("offsets", str),
    )
    return filter_clones(
        table,
        min_total_reads=opts.get("min_total_reads", int, 8),
        absent_as_zero=opts.get("absent_as_zero", bool, True),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    cfg = SimConfig(
        n_clones=opts.get("n_clones", int, 60_000),
        alpha=opts.get("alpha", float, 1.0),
        beta=opts.get("beta", float, 100.0),
        pi=opts.get("pi", float, 0.2),
        n_followups=opts.get("n_followups", int, 3),
        offset_mean=opts.get("offset_mean", float, SimConfig.offset_mean),
        missing_rate=opts.get("missing_rate", float, 0.0),
        n_persons=opts.get("n_persons", int, 100),
        seed=opts.get("seed", int, 0),
    )
    cohort, truth = simulate(cfg)
    cohort_path = out / "cohort.tsv"
    offsets_path = out / "offsets.tsv"
    truth_path = out / "truth.tsv"
    write_cohort(cohort_path, cohort)
    write_offsets(offsets_path, offsets_from_series(cohort))
    write_truth(truth_path, truth)
    _check_outputs([cohort_path, offsets_path, truth_path])
    return EXIT_OK


def write_responsibilities(path: str | Path, result: FitResult) -> None:
    cohort = result.cohort
    write_table(
        path,
        RESPONSIBILITIES_COLUMNS,
        zip(
            cohort.person_id.tolist(),
            cohort.clone_id.tolist(),
            map(str, cohort.n_times.tolist()),
            map(format_float, result.prob_dynamic.tolist()),
        ),
    )


@dataclass(frozen=True, eq=False)
class Responsibilities:
    """The columns of responsibilities.tsv, in file order."""

    person_id: np.ndarray
    clone_id: np.ndarray
    n_times: np.ndarray
    prob_dynamic: np.ndarray

    def __len__(self) -> int:
        return int(self.person_id.size)


def read_responsibilities(path: str | Path) -> Responsibilities:
    keys: dict[tuple[str, str], None] = {}
    n_times: list[int] = []
    prob: list[float] = []
    for (person, clone, n, value), lineno in _read_rows(path, RESPONSIBILITIES_COLUMNS):
        if (person, clone) in keys:
            raise ParseError(f"duplicate clone {(person, clone)}", lineno)
        keys[(person, clone)] = None
        try:
            prob.append(float(value))
        except ValueError:
            raise ParseError(f"prob_dynamic is not a number: {value!r}", lineno) from None
        n_times.append(_parse_int(n, "n_times", lineno, minimum=1))
        if not (math.isfinite(prob[-1]) and 0.0 <= prob[-1] <= 1.0):
            raise ParseError(f"prob_dynamic must lie in [0, 1], got {value!r}", lineno)
    return Responsibilities(
        np.array([p for p, _ in keys], dtype=object),
        np.array([c for _, c in keys], dtype=object),
        np.array(n_times, dtype=np.int64),
        np.array(prob, dtype=np.float64),
    )


def align_responsibilities(table: Responsibilities, cohort: PackedCohort) -> np.ndarray:
    """prob_dynamic of each clone of a canonical cohort, after checking that the
    table has exactly the cohort's clones with the cohort's n_times."""
    order = np.lexsort((table.clone_id, table.person_id))
    person, clone = table.person_id[order], table.clone_id[order]
    if not (np.array_equal(person, cohort.person_id) and np.array_equal(clone, cohort.clone_id)):
        mismatched = set(zip(person.tolist(), clone.tolist())) ^ set(cohort.keys)
        raise ValidationError(
            f"responsibilities and series keys do not align ({len(mismatched)} mismatched)"
        )
    n_times = table.n_times[order]
    differ = np.flatnonzero(n_times != cohort.n_times)
    if differ.size:
        i = differ[0]
        raise ValidationError(
            f"{differ.size} clones have another n_times in the responsibilities than in "
            f"the cohort, e.g. {cohort.keys[i]}: {n_times[i]} vs {cohort.n_times[i]}; "
            "fit and classify must read the same cohort with the same filter settings"
        )
    return table.prob_dynamic[order]


def cmd_fit(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    series = _load_series(opts)
    cfg = FitConfig(
        epsilon=opts.get("epsilon", float, 1e-8),
        max_em_iters=opts.get("max_em_iters", int, 500),
        inner_opt_tol=opts.get("inner_opt_tol", float, 1e-8),
        inner_opt_max_iters=opts.get("inner_opt_max_iters", int, 200),
        seed=opts.get("seed", int, 0),
    )
    result = fit_em(series, cfg)
    if not result.converged:
        msq = float(result.msq_change_trace[-1])
        print(
            f"warning: EM stopped at max_em_iters = {cfg.max_em_iters} without converging "
            f"(mean squared change {msq:.3g} >= epsilon {cfg.epsilon:.3g})",
            file=sys.stderr,
        )

    hp_path = out / "hyperparams.txt"
    write_keyvalues(
        hp_path,
        {
            "alpha": result.hyperparams.alpha,
            "beta": result.hyperparams.beta,
            "pi": result.hyperparams.pi,
            "iterations": result.iterations,
            "converged": result.converged,
            "n_clones": len(result.cohort),
            "n_single_timepoint": result.n_single_timepoint,
            "final_loglik": float(result.loglik_trace[-1]),
            "final_msq_change": float(result.msq_change_trace[-1]),
            "epsilon": cfg.epsilon,
            "seed": cfg.seed,
        },
    )
    resp_path = out / "responsibilities.tsv"
    write_responsibilities(resp_path, result)
    trace_path = out / "fit_trace.tsv"
    write_table(
        trace_path,
        ("iteration", "loglik", "msq_change"),
        (
            (str(i + 1), format_float(ll), format_float(ms))
            for i, (ll, ms) in enumerate(zip(result.loglik_trace, result.msq_change_trace))
        ),
    )
    _check_outputs([hp_path, resp_path, trace_path])
    return EXIT_OK


def write_calls(path: str | Path, calls: Sequence[CloneCall]) -> None:
    write_table(
        path,
        CALLS_COLUMNS,
        (
            (c.person_id, c.clone_id, format_float(c.prob_dynamic), c.call.value, c.direction.value)
            for c in calls
        ),
    )


# the (call, direction) pairs classify writes
CALL_KINDS = {
    (call.value, direction.value): (call, direction)
    for call, direction in (
        (Call.DYNAMIC, Direction.EXPANDING),
        (Call.DYNAMIC, Direction.CONTRACTING),
        (Call.STATIC, Direction.NOT_APPLICABLE),
    )
}


def read_calls(path: str | Path) -> list[CloneCall]:
    """calls.tsv as classify writes it: one row per clone, a prob_dynamic in
    [0, 1], a direction on every dynamic call and none on a static one."""
    calls = []
    keys = set()
    for (person, clone, prob, call, direction), lineno in _read_rows(path, CALLS_COLUMNS):
        if (person, clone) in keys:
            raise ParseError(f"duplicate clone {(person, clone)}", lineno)
        keys.add((person, clone))
        kind = CALL_KINDS.get((call, direction))
        if kind is None:
            raise ParseError(
                f"call {call!r} with direction {direction!r}: expected dynamic with "
                "expanding or contracting, or static with na",
                lineno,
            )
        try:
            value = float(prob)
        except ValueError:
            raise ParseError(f"prob_dynamic is not a number: {prob!r}", lineno) from None
        if not 0.0 <= value <= 1.0:  # also false for nan
            raise ParseError(f"prob_dynamic must lie in [0, 1], got {prob!r}", lineno)
        calls.append(CloneCall(person, clone, value, *kind))
    return calls


def _proportions(counts: np.ndarray, offsets: np.ndarray) -> list[float]:
    """counts / offsets as Python's int division would round them."""
    values = (counts / offsets).tolist()
    # int64 -> float64 is exact below 2**53, so only larger offsets need int division
    for i in np.flatnonzero(offsets > 2**53).tolist():
        values[i] = int(counts[i]) / int(offsets[i])
    return values


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    cohort = _load_series(opts)
    responsibilities = read_responsibilities(opts.get("responsibilities", str, required=True))
    threshold = opts.get("threshold", float, 0.75)
    calls = classify(align_responsibilities(responsibilities, cohort), cohort, threshold)

    calls_path = out / "calls.tsv"
    write_calls(calls_path, calls)

    counts = dynamic_counts_per_person(calls)
    person_path = out / "per_person.tsv"
    write_table(
        person_path,
        ("person_id", "n_dynamic", "n_expanding", "n_contracting"),
        (
            (p, str(c.n_dynamic), str(c.n_expanding), str(c.n_contracting))
            for p, c in counts.items()
        ),
    )

    truth_path_in = opts.get("truth", str)
    truth_labels = read_truth_labels(truth_path_in) if truth_path_in else None
    if truth_labels is None:
        truth_column = ["NA"] * len(calls)
    else:
        uncovered = [c.key for c in calls if c.key not in truth_labels]
        if uncovered:
            raise ValidationError(f"truth does not cover clone {uncovered[0]}")
        truth_column = [str(int(truth_labels[c.key])) for c in calls]

    persons, clones = cohort.person_id.tolist(), cohort.clone_id.tolist()
    csum = cohort.segment_sums(cohort.counts).tolist()
    osum = cohort.segment_sums(cohort.offsets).tolist()
    points_path = out / "membership_points.tsv"
    write_table(
        points_path,
        ("person_id", "clone_id", "mean_proportion", "prob_dynamic", "truth_dynamic"),
        zip(
            persons,
            clones,
            (format_float(float(c) / float(o)) for c, o in zip(csum, osum)),
            (format_float(c.prob_dynamic) for c in calls),
            truth_column,
        ),
    )

    traj_path = out / "trajectories.tsv"
    call_values = np.array([c.call.value for c in calls])
    write_table(
        traj_path,
        ("person_id", "clone_id", "time_index", "proportion", "call"),
        zip(
            np.repeat(cohort.person_id, cohort.n_times).tolist(),
            np.repeat(cohort.clone_id, cohort.n_times).tolist(),
            map(str, cohort.times.tolist()),
            map(format_float, _proportions(cohort.counts, cohort.offsets)),
            np.repeat(call_values, cohort.n_times).tolist(),
        ),
    )

    outputs = [calls_path, person_path, points_path, traj_path]
    if truth_labels is not None:
        oc = operating_characteristics(calls, truth_labels, threshold)
        oc_path = out / "operating_characteristics.txt"
        write_keyvalues(
            oc_path,
            {
                "threshold": oc.threshold,
                "tp": oc.tp,
                "fp": oc.fp,
                "tn": oc.tn,
                "fn": oc.fn,
                "sensitivity": oc.sensitivity,
                "specificity": oc.specificity,
            },
        )
        outputs.append(oc_path)
    _check_outputs(outputs)
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    calls = read_calls(opts.get("input", str, required=True))
    strata = read_strata(opts.get("strata", str, required=True))
    cutoff_dynamic = opts.get("cutoff_dynamic", int, 50)
    cutoff_direction = opts.get("cutoff_direction", int, 25)

    counts = dynamic_counts_per_person(calls)
    uncovered = sorted(p for p in counts if p not in strata)
    if uncovered:
        raise ValidationError(f"persons without a stratum: {uncovered[:5]} ...")
    without_calls = sorted(p for p in strata if p not in counts)
    if without_calls:
        print(
            f"warning: {len(without_calls)} persons in the strata file have no calls and are "
            f"left out of per_person.tsv and both tests: {without_calls[:5]}",
            file=sys.stderr,
        )
    person_path = out / "per_person.tsv"
    write_table(
        person_path,
        ("person_id", "stratum", "n_dynamic", "n_expanding", "n_contracting"),
        (
            (p, str(strata[p]), str(c.n_dynamic), str(c.n_expanding), str(c.n_contracting))
            for p, c in counts.items()
        ),
    )

    metrics = (
        ("dynamic", {p: c.n_dynamic for p, c in counts.items()}, cutoff_dynamic),
        ("expanding", {p: c.n_expanding for p, c in counts.items()}, cutoff_direction),
        ("contracting", {p: c.n_contracting for p, c in counts.items()}, cutoff_direction),
    )
    rows = []
    for name, per_person, cutoff in metrics:
        result = associate(per_person, strata, cutoff)
        rows.append(
            (
                name,
                str(result.dichotomy_cutoff),
                format_float(result.chi_sq_stat),
                format_float(result.chi_sq_pvalue),
                "true" if result.chi_sq_degenerate else "false",
                format_float(result.loglinear_coef),
                format_float(result.loglinear_pvalue),
                "true" if result.loglinear_degenerate else "false",
            )
        )
    association_path = out / "association.tsv"
    write_table(
        association_path,
        (
            "metric",
            "cutoff",
            "chi_sq_stat",
            "chi_sq_pvalue",
            "chi_sq_degenerate",
            "loglinear_coef",
            "loglinear_pvalue",
            "loglinear_degenerate",
        ),
        rows,
    )
    _check_outputs([person_path, association_path])
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--output-dir", dest="output_dir", help="directory for output files")
    sub.add_argument("--seed", type=int, dest="seed", help="random seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonedyn",
        description="Dynamic/static partitioning of longitudinal clone count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort with ground truth")
    _add_common(p_sim)
    p_sim.add_argument("--n-clones", type=int, dest="n_clones")
    p_sim.add_argument("--alpha", type=float, dest="alpha")
    p_sim.add_argument("--beta", type=float, dest="beta")
    p_sim.add_argument("--pi", type=float, dest="pi")
    p_sim.add_argument("--n-followups", type=int, dest="n_followups")
    p_sim.add_argument("--offset-mean", type=float, dest="offset_mean")
    p_sim.add_argument("--missing-rate", type=float, dest="missing_rate")
    p_sim.add_argument("--n-persons", type=int, dest="n_persons")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit hyperparameters and responsibilities by EM")
    _add_common(p_fit)
    p_fit.add_argument("--input", dest="input", help="cohort table (TSV)")
    p_fit.add_argument("--offsets", dest="offsets", help="explicit per-person-time totals (TSV)")
    p_fit.add_argument("--min-total-reads", type=int, dest="min_total_reads")
    p_fit.add_argument(
        "--absent-as-zero",
        action=argparse.BooleanOptionalAction,
        dest="absent_as_zero",
        default=None,
        help="treat a sampled person-time without a clone row as a zero count (default on)",
    )
    p_fit.add_argument("--epsilon", type=float, dest="epsilon")
    p_fit.add_argument("--max-em-iters", type=int, dest="max_em_iters")
    p_fit.add_argument("--inner-opt-tol", type=float, dest="inner_opt_tol")
    p_fit.add_argument("--inner-opt-max-iters", type=int, dest="inner_opt_max_iters")
    p_fit.set_defaults(func=cmd_fit)

    p_cls = sub.add_parser("classify", help="threshold responsibilities into clone calls")
    _add_common(p_cls)
    p_cls.add_argument("--input", dest="input", help="cohort table (TSV)")
    p_cls.add_argument("--offsets", dest="offsets")
    p_cls.add_argument("--responsibilities", dest="responsibilities")
    p_cls.add_argument("--truth", dest="truth", help="truth labels for operating characteristics")
    p_cls.add_argument("--threshold", type=float, dest="threshold")
    p_cls.add_argument("--min-total-reads", type=int, dest="min_total_reads")
    p_cls.add_argument(
        "--absent-as-zero",
        action=argparse.BooleanOptionalAction,
        dest="absent_as_zero",
        default=None,
    )
    p_cls.set_defaults(func=cmd_classify)

    p_sum = sub.add_parser("summarize", help="per-person counts and association tests")
    _add_common(p_sum)
    p_sum.add_argument("--input", dest="input", help="calls table from classify")
    p_sum.add_argument("--strata", dest="strata", help="person_id -> 0/1 stratum table")
    p_sum.add_argument("--cutoff-dynamic", type=int, dest="cutoff_dynamic")
    p_sum.add_argument("--cutoff-direction", type=int, dest="cutoff_direction")
    p_sum.set_defaults(func=cmd_summarize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IdentifiabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTIFIABILITY
    except OptimizerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
