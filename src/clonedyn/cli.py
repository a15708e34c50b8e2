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
import sys
from dataclasses import fields
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .classify import (
    PersonCounts,
    associate,
    classify,
    dynamic_counts_per_person,
    operating_characteristics,
    truth_of,
)
from .cohort import (
    INT64_MAX,
    Responsibilities,
    atomic_write_text,
    filter_clones,
    format_column,
    ingest,
    offsets_from_series,
    read_calls,
    read_responsibilities,
    read_strata,
    read_truth_labels,
    write_calls,
    write_cohort,
    write_offsets,
    write_responsibilities,
    write_table,
    write_truth,
)
from .em import FitConfig, fit_em
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
    """`key = value` lines, each value formatted as a table column's would be."""
    lines = [f"{key} = {format_column(np.array([value]))[0]}" for key, value in values.items()]
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
        {
            "iteration": np.arange(1, result.loglik_trace.size + 1),
            "loglik": result.loglik_trace,
            "msq_change": result.msq_change_trace,
        },
    )
    _check_outputs([hp_path, resp_path, trace_path])
    return EXIT_OK


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


def _count_columns(counts: Mapping[str, PersonCounts]) -> dict[str, np.ndarray]:
    """Per-person counts as one int64 column per PersonCounts field, in field order."""
    return {
        f.name: np.array([getattr(c, f.name) for c in counts.values()], dtype=np.int64)
        for f in fields(PersonCounts)
    }


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    cohort = _load_series(opts)
    responsibilities = opts.get("responsibilities", str, required=True)
    prob_dynamic = align_responsibilities(read_responsibilities(responsibilities), cohort)
    threshold = opts.get("threshold", float, 0.75)
    calls = classify(prob_dynamic, cohort, threshold)

    prob_text = format_column(calls.prob_dynamic)  # written to calls.tsv and membership_points.tsv
    calls_path = out / "calls.tsv"
    write_calls(calls_path, calls, prob_text)

    counts = dynamic_counts_per_person(calls)
    person_path = out / "per_person.tsv"
    write_table(person_path, {"person_id": list(counts), **_count_columns(counts)})

    truth_path_in = opts.get("truth", str)
    truth = truth_of(calls, read_truth_labels(truth_path_in)) if truth_path_in else None
    points_path = out / "membership_points.tsv"
    write_table(
        points_path,
        {
            "person_id": cohort.person_id,
            "clone_id": cohort.clone_id,
            "mean_proportion": _mean_proportions(cohort),
            "prob_dynamic": prob_text,
            "truth_dynamic": (
                np.full(len(calls), "NA", dtype=object) if truth is None else truth.astype(np.int8)
            ),
        },
    )

    traj_path = out / "trajectories.tsv"
    write_table(
        traj_path,
        {
            "person_id": np.repeat(cohort.person_id, cohort.n_times),
            "clone_id": np.repeat(cohort.clone_id, cohort.n_times),
            "time_index": cohort.times,
            "proportion": _proportions(cohort.counts, cohort.offsets),
            "call": np.repeat(calls.call_text(), cohort.n_times),
        },
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
    if not all(-INT64_MAX - 1 <= c <= INT64_MAX for c in (cutoff_dynamic, cutoff_direction)):
        raise ValidationError("cutoff_dynamic and cutoff_direction must fit in a 64-bit integer")

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
    strata_column = np.array([strata[p] for p in counts], dtype=np.int64)
    write_table(
        person_path, {"person_id": list(counts), "stratum": strata_column, **_count_columns(counts)}
    )

    metrics = (
        ("dynamic", {p: c.n_dynamic for p, c in counts.items()}, cutoff_dynamic),
        ("expanding", {p: c.n_expanding for p, c in counts.items()}, cutoff_direction),
        ("contracting", {p: c.n_contracting for p, c in counts.items()}, cutoff_direction),
    )
    results = {name: associate(per_person, strata, cutoff) for name, per_person, cutoff in metrics}

    def column(field: str, dtype) -> np.ndarray:
        return np.array([getattr(r, field) for r in results.values()], dtype=dtype)

    association_path = out / "association.tsv"
    write_table(
        association_path,
        {
            "metric": list(results),
            "cutoff": column("dichotomy_cutoff", np.int64),
            "chi_sq_stat": column("chi_sq_stat", np.float64),
            "chi_sq_pvalue": column("chi_sq_pvalue", np.float64),
            "chi_sq_degenerate": column("chi_sq_degenerate", bool),
            "loglinear_coef": column("loglinear_coef", np.float64),
            "loglinear_pvalue": column("loglinear_pvalue", np.float64),
            "loglinear_degenerate": column("loglinear_degenerate", bool),
        },
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
