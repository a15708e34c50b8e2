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
import itertools
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .classify import (
    CONTRACTING,
    EXPANDING,
    NOT_APPLICABLE,
    Call,
    CallTable,
    Direction,
    associate,
    classify,
    dynamic_counts_per_person,
    operating_characteristics,
    truth_of,
)
from .cohort import (
    _float_values,
    _int_values,
    _key_columns,
    _parse_int,
    _read_columns,
    _repeats,
    atomic_write_text,
    filter_clones,
    format_float,
    format_floats,
    format_ints,
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


def read_keyvalues(path: str | Path, keys: Collection[str] | None = None) -> dict[str, str]:
    """Flat `key = value` document; # comments and blank lines allowed.

    A repeated key is a ParseError, and so is, when keys are given, a key
    outside them.
    """
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}: expected 'key = value'", lineno)
                key, _, value = line.partition("=")
                key = key.strip()
                if key in values:
                    raise ParseError(f"{path}: key {key!r} repeats an earlier line", lineno)
                if keys is not None and key not in keys:
                    raise ParseError(f"{path}: no subcommand takes the key {key!r}", lineno)
                values[key] = value.strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
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
        self._config = read_keyvalues(args.config, args.config_keys) if args.config else {}

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

    def build(self, cls):
        """The dataclass cls with each field a flag or the config sets; every
        other field keeps the default cls declares."""
        given = {f.name: self.get(f.name, type(f.default)) for f in fields(cls)}
        return cls(**{name: value for name, value in given.items() if value is not None})


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
    cfg = opts.build(SimConfig)
    cohort, truth, _ = simulate(cfg)
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
            format_ints(cohort.n_times),
            format_floats(result.prob_dynamic),
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
    """responsibilities.tsv: one row per clone, n_times an integer >= 1 and
    prob_dynamic in [0, 1]."""
    cols, lines = _read_columns(path, RESPONSIBILITIES_COLUMNS)
    person, clone = _key_columns(cols)
    n_times, bad_n = _int_values(cols[2], minimum=1)
    prob = _float_values(cols[3])
    repeated = _repeats(person, clone)
    failing = np.flatnonzero(repeated | bad_n | ~((prob >= 0.0) & (prob <= 1.0)))
    if failing.size:
        i = failing[0]
        line, value = int(lines[i]), cols[3][i]
        if repeated[i]:
            raise ParseError(f"duplicate clone {(person[i], clone[i])}", line)
        try:
            float(value)
        except ValueError:
            raise ParseError(f"prob_dynamic is not a number: {value!r}", line) from None
        _parse_int(cols[2][i], "n_times", line, minimum=1)
        raise ParseError(f"prob_dynamic must lie in [0, 1], got {value!r}", line)
    return Responsibilities(person, clone, n_times, prob)


def align_responsibilities(table: Responsibilities, cohort: PackedCohort) -> np.ndarray:
    """prob_dynamic of each clone of a canonical cohort, after checking that the
    table has exactly the cohort's clones with the cohort's n_times."""

    def aligned(person, clone):
        return np.array_equal(person, cohort.person_id) and np.array_equal(clone, cohort.clone_id)

    order = slice(None)  # fit writes the clones in canonical order
    if not aligned(table.person_id, table.clone_id):
        order = np.lexsort((table.clone_id, table.person_id))
        person, clone = table.person_id[order], table.clone_id[order]
        if not aligned(person, clone):
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
    cfg = opts.build(FitConfig)
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


def write_calls(path: str | Path, calls: CallTable, prob_text: list[str]) -> None:
    """calls.tsv, with prob_text the format_floats of calls.prob_dynamic."""
    write_table(
        path,
        CALLS_COLUMNS,
        zip(
            calls.person_id.tolist(),
            calls.clone_id.tolist(),
            prob_text,
            calls.call_text().tolist(),
            calls.direction_text().tolist(),
        ),
    )


# the (call, direction) pairs classify writes, each with its direction code
CALL_KINDS = {
    (Call.DYNAMIC.value, Direction.EXPANDING.value): EXPANDING,
    (Call.DYNAMIC.value, Direction.CONTRACTING.value): CONTRACTING,
    (Call.STATIC.value, Direction.NOT_APPLICABLE.value): NOT_APPLICABLE,
}


def read_calls(path: str | Path) -> CallTable:
    """calls.tsv as classify writes it: one row per clone, a prob_dynamic in
    [0, 1], a direction on every dynamic call and none on a static one."""
    cols, lines = _read_columns(path, CALLS_COLUMNS)
    person, clone = _key_columns(cols)
    prob = _float_values(cols[2])
    kinds = map(CALL_KINDS.get, zip(cols[3], cols[4]), itertools.repeat(-1))
    direction = np.fromiter(kinds, np.int8, lines.size)
    repeated = _repeats(person, clone)
    failing = np.flatnonzero(repeated | (direction < 0) | ~((prob >= 0.0) & (prob <= 1.0)))
    if failing.size:
        i = failing[0]
        line, value = int(lines[i]), cols[2][i]
        if repeated[i]:
            raise ParseError(f"duplicate clone {(person[i], clone[i])}", line)
        if direction[i] < 0:
            raise ParseError(
                f"call {cols[3][i]!r} with direction {cols[4][i]!r}: expected dynamic with "
                "expanding or contracting, or static with na",
                line,
            )
        try:
            float(value)
        except ValueError:
            raise ParseError(f"prob_dynamic is not a number: {value!r}", line) from None
        raise ParseError(f"prob_dynamic must lie in [0, 1], got {value!r}", line)
    return CallTable(person, clone, prob, direction != NOT_APPLICABLE, direction)


def _proportions(counts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """counts / offsets as Python's int division would round them."""
    values = counts / offsets
    # int64 -> float64 is exact below 2**53, so only larger offsets need int division
    for i in np.flatnonzero(offsets > 2**53).tolist():
        values[i] = int(counts[i]) / int(offsets[i])
    return values


def _mean_proportions(cohort: PackedCohort) -> np.ndarray:
    """Per clone, sum(counts) / sum(offsets) as Python's int division would round it."""
    with np.errstate(divide="ignore", invalid="ignore"):  # wrapped int64 sums are redone below
        values = cohort.segment_sums(cohort.counts) / cohort.segment_sums(cohort.offsets)
    # the int64 sums are exact, and exact in float64, below 2**53 (counts <= offsets);
    # float sums flag the clones whose offsets may sum to more
    large = cohort.segment_sums(cohort.offsets.astype(np.float64)) >= 2.0**52
    for i in np.flatnonzero(large).tolist():
        span = slice(int(cohort.starts[i]), int(cohort.starts[i] + cohort.n_times[i]))
        values[i] = sum(cohort.counts[span].tolist()) / sum(cohort.offsets[span].tolist())
    return values


_TRUTH_TEXT = np.array(["0", "1"], dtype=object)


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    cohort = _load_series(opts)
    responsibilities = opts.get("responsibilities", str, required=True)
    prob_dynamic = align_responsibilities(read_responsibilities(responsibilities), cohort)
    threshold = opts.get("threshold", float, 0.75)
    calls = classify(prob_dynamic, cohort, threshold)

    prob_text = format_floats(calls.prob_dynamic)  # written to calls.tsv and membership_points.tsv
    calls_path = out / "calls.tsv"
    write_calls(calls_path, calls, prob_text)

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
    truth = truth_of(calls, read_truth_labels(truth_path_in)) if truth_path_in else None
    if truth is None:
        truth_column = ["NA"] * len(calls)
    else:
        truth_column = _TRUTH_TEXT[truth.astype(np.intp)].tolist()

    points_path = out / "membership_points.tsv"
    write_table(
        points_path,
        ("person_id", "clone_id", "mean_proportion", "prob_dynamic", "truth_dynamic"),
        zip(
            cohort.person_id.tolist(),
            cohort.clone_id.tolist(),
            format_floats(_mean_proportions(cohort)),
            prob_text,
            truth_column,
        ),
    )

    traj_path = out / "trajectories.tsv"
    write_table(
        traj_path,
        ("person_id", "clone_id", "time_index", "proportion", "call"),
        zip(
            np.repeat(cohort.person_id, cohort.n_times).tolist(),
            np.repeat(cohort.clone_id, cohort.n_times).tolist(),
            format_ints(cohort.times),
            format_floats(_proportions(cohort.counts, cohort.offsets)),
            np.repeat(calls.call_text(), cohort.n_times).tolist(),
        ),
    )

    outputs = [calls_path, person_path, points_path, traj_path]
    if truth is not None:
        oc = operating_characteristics(calls, truth, threshold)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonedyn",
        description="Dynamic/static partitioning of longitudinal clone count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort with ground truth")
    _add_common(p_sim)
    p_sim.add_argument("--seed", type=int, dest="seed", help="random seed of the draws")
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
    p_fit.add_argument("--seed", type=int, dest="seed", help="random seed of the EM start")
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

    # a config file may hold any subcommand's options, so fit and classify can share one
    subcommands = (p_sim, p_fit, p_cls, p_sum)
    keys = set().union(*(vars(p.parse_args([])) for p in subcommands)) - {"config", "func"}
    parser.set_defaults(config_keys=frozenset(keys))
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
