"""Command-line pipeline: simulate, fit, classify, summarize.

Each subcommand reads a flat key = value config file (optional) with
command-line flags taking precedence, writes tab-delimited tables,
key-value documents and (fit and classify) a pack for the next stage
into --output-dir, and exits with a distinct code per failure class:

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
    AssociationResult,
    associate,
    check_threshold,
    classify,
    dynamic_counts_per_person,
    operating_characteristics,
    truth_of,
)
from .cohort import (
    INT64_MAX,
    Responsibilities,
    atomic_write_text,
    cohort_key,
    file_digest,
    file_digests,
    filter_clones,
    format_column,
    ingest,
    offsets_from_series,
    read_calls,
    read_calls_pack,
    read_cohort_pack,
    read_responsibilities,
    read_strata,
    read_truth_labels,
    write_calls,
    write_calls_pack,
    write_cohort,
    write_cohort_pack,
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
from .model import PackedCohort, match_keys
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTIFIABILITY = 3
EXIT_OPTIMIZER = 4
EXIT_IO = 5

PACK_NAME = "cohort.pack"  # fit's cohort and prob_dynamic, beside its responsibilities.tsv
CALLS_PACK_NAME = "calls.pack"  # classify's per-person counts, beside its calls.tsv


def read_keyvalues(path: str | Path, keys: Collection[str] | None = None) -> dict[str, str]:
    """Flat `key = value` document; # comments and blank lines allowed.

    A repeated key is a ParseError, and so is, when keys are given, a key
    outside them.
    """
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
    raise ValueError(text)


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
                raise ValidationError(
                    f"{self._args.config}: config key {name!r}: cannot parse {raw!r}"
                ) from None
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


def _cohort_inputs(opts: _Options) -> tuple[str, str | None, int, bool]:
    """The cohort options of fit and classify: input, offsets,
    min_total_reads and absent_as_zero."""
    return (
        opts.get("input", str, required=True),
        opts.get("offsets", str),
        opts.get("min_total_reads", int, 8),
        opts.get("absent_as_zero", bool, True),
    )


def _load_series(
    inputs: tuple[str, str | None, int, bool], digests: dict[str, str | None] | None = None
) -> PackedCohort:
    path, offsets, min_total_reads, absent_as_zero = inputs
    table = ingest(path, offsets_path=offsets, digests=digests)
    return filter_clones(table, min_total_reads=min_total_reads, absent_as_zero=absent_as_zero)


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
    rows = match_keys((table.person_id, table.clone_id), (cohort.person_id, cohort.clone_id))
    # the readers reject repeated keys, so this is the size of the symmetric difference
    mismatched = len(table) + len(cohort) - 2 * int(np.count_nonzero(rows >= 0))
    if mismatched:
        raise ValidationError(
            f"responsibilities and series keys do not align ({mismatched} mismatched)"
        )
    n_times = table.n_times[rows]
    differ = np.flatnonzero(n_times != cohort.n_times)
    if differ.size:
        i = differ[0]
        raise ValidationError(
            f"{differ.size} clones have another n_times in the responsibilities than in "
            f"the cohort, e.g. {(cohort.person_id[i], cohort.clone_id[i])}: {n_times[i]} vs "
            f"{cohort.n_times[i]}; fit and classify must read the same cohort with the same "
            "filter settings"
        )
    return table.prob_dynamic[rows]


def cmd_fit(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    inputs = _cohort_inputs(opts)
    digests: dict[str, str | None] = {}
    series = _load_series(inputs, digests)  # hashes the bytes it parses: a pipe is read once
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
            **vars(result.hyperparams),
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
    cohort = result.cohort
    resp_digest = write_responsibilities(
        resp_path,
        Responsibilities(cohort.person_id, cohort.clone_id, cohort.n_times, result.prob_dynamic),
    )
    pack_path = out / PACK_NAME
    key = cohort_key(digests, *inputs[2:], resp_digest)
    write_cohort_pack(pack_path, cohort, result.prob_dynamic, key)
    trace_path = out / "fit_trace.tsv"
    write_table(
        trace_path,
        {
            "iteration": np.arange(1, result.loglik_trace.size + 1),
            "loglik": result.loglik_trace,
            "msq_change": result.msq_change_trace,
        },
    )
    _check_outputs([hp_path, resp_path, pack_path, trace_path])
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
    offsets = cohort.offsets
    with np.errstate(divide="ignore", invalid="ignore"):  # wrapped int64 sums are redone below
        values = cohort.segment_sums(cohort.counts) / cohort.segment_sums(offsets)
    # the int64 sums are exact, and exact in float64, below 2**53 (counts <= offsets);
    # float sums flag the clones whose offsets may sum to more
    large = cohort.segment_sums(offsets.astype(np.float64)) >= 2.0**52
    for i in np.flatnonzero(large).tolist():
        span = slice(cohort.starts[i], cohort.starts[i] + cohort.n_times[i])
        values[i] = sum(cohort.counts[span].tolist()) / sum(offsets[span].tolist())
    return values


def cmd_classify(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    threshold = opts.get("threshold", float, 0.75)
    check_threshold(threshold)
    responsibilities = Path(opts.get("responsibilities", str, required=True))
    inputs = _cohort_inputs(opts)
    pack_path = responsibilities.with_name(PACK_NAME)
    if pack_path.is_file():
        key = cohort_key(file_digests(*inputs[:2]), *inputs[2:], file_digest(responsibilities))
        cohort, prob_dynamic = read_cohort_pack(pack_path, key)
    else:
        cohort = _load_series(inputs)
        prob_dynamic = align_responsibilities(read_responsibilities(responsibilities), cohort)
    calls = classify(prob_dynamic, cohort, threshold)
    truth_path_in = opts.get("truth", str)
    truth = truth_of(calls, read_truth_labels(truth_path_in)) if truth_path_in else None
    oc = None if truth is None else operating_characteristics(calls, truth, threshold)

    # every check has passed: write
    prob_text = format_column(calls.prob_dynamic)  # written to calls.tsv and membership_points.tsv
    calls_path = out / "calls.tsv"
    calls_digest = write_calls(calls_path, calls, prob_text)

    counts = dynamic_counts_per_person(calls)
    person_path = out / "per_person.tsv"
    write_table(person_path, vars(counts))
    calls_pack_path = out / CALLS_PACK_NAME
    write_calls_pack(calls_pack_path, counts, calls_digest)

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

    outputs = [calls_path, person_path, calls_pack_path, points_path, traj_path]
    if oc is not None:
        oc_path = out / "operating_characteristics.txt"
        write_keyvalues(oc_path, vars(oc))
        outputs.append(oc_path)
    _check_outputs(outputs)
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    opts = _Options(args)
    out = _ensure_output_dir(opts)
    calls_path = Path(opts.get("input", str, required=True))
    pack_path = calls_path.with_name(CALLS_PACK_NAME)
    if pack_path.is_file():
        counts = read_calls_pack(pack_path, file_digest(calls_path))
    else:
        counts = dynamic_counts_per_person(read_calls(calls_path))
    strata_person, strata = read_strata(opts.get("strata", str, required=True))
    cutoff_dynamic = opts.get("cutoff_dynamic", int, 50)
    cutoff_direction = opts.get("cutoff_direction", int, 25)
    if not all(-INT64_MAX - 1 <= c <= INT64_MAX for c in (cutoff_dynamic, cutoff_direction)):
        raise ValidationError("cutoff_dynamic and cutoff_direction must fit in a 64-bit integer")

    rows = match_keys((strata_person,), (counts.person_id,))
    if (rows < 0).any():
        uncovered = counts.person_id[rows < 0].tolist()  # sorted, as counts' persons are
        raise ValidationError(f"persons without a stratum: {uncovered[:5]} ...")
    without_calls = np.sort(strata_person[match_keys((counts.person_id,), (strata_person,)) < 0])
    if without_calls.size:
        print(
            f"warning: {without_calls.size} persons in the strata file have no calls and are "
            f"left out of per_person.tsv and both tests: {without_calls[:5].tolist()}",
            file=sys.stderr,
        )
    stratum = strata[rows]
    metrics = (
        ("dynamic", counts.n_dynamic, cutoff_dynamic),
        ("expanding", counts.n_expanding, cutoff_direction),
        ("contracting", counts.n_contracting, cutoff_direction),
    )
    results = [associate(column, stratum, cutoff) for _, column, cutoff in metrics]

    # every check has passed: write
    person_path = out / "per_person.tsv"
    # person_id keeps the first place, and stratum comes right after it
    write_table(person_path, {"person_id": counts.person_id, "stratum": stratum, **vars(counts)})
    association_path = out / "association.tsv"
    columns = {"metric": [name for name, _, _ in metrics]}
    for f in fields(AssociationResult):
        if f.name != "chi_sq_table":
            columns[f.name] = np.array([getattr(r, f.name) for r in results])
    write_table(association_path, columns)
    _check_outputs([person_path, association_path])
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--output-dir", dest="output_dir", help="directory for output files")


def _add_fields(sub: argparse.ArgumentParser, cls, **helps: str) -> None:
    """A --field-name flag for each field of the dataclass cls, of its default's type."""
    for f in fields(cls):
        flag = "--" + f.name.replace("_", "-")
        sub.add_argument(flag, type=type(f.default), dest=f.name, help=helps.get(f.name))


def _add_cohort_inputs(sub: argparse.ArgumentParser) -> None:
    """The cohort and filter flags of fit and classify, which must agree for
    classify to accept fit's responsibilities."""
    sub.add_argument("--input", dest="input", help="cohort table (TSV)")
    sub.add_argument("--offsets", dest="offsets", help="explicit per-person-time totals (TSV)")
    sub.add_argument("--min-total-reads", type=int, dest="min_total_reads")
    sub.add_argument(
        "--absent-as-zero",
        action=argparse.BooleanOptionalAction,
        dest="absent_as_zero",
        default=None,
        help="treat a sampled person-time without a clone row as a zero count (default on)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonedyn",
        description="Dynamic/static partitioning of longitudinal clone count series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort with ground truth")
    _add_common(p_sim)
    _add_fields(p_sim, SimConfig, seed="random seed of the draws")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit hyperparameters and responsibilities by EM")
    _add_common(p_fit)
    _add_cohort_inputs(p_fit)
    _add_fields(p_fit, FitConfig, seed="random seed of the EM start")
    p_fit.set_defaults(func=cmd_fit)

    p_cls = sub.add_parser("classify", help="threshold responsibilities into clone calls")
    _add_common(p_cls)
    _add_cohort_inputs(p_cls)
    p_cls.add_argument("--responsibilities", dest="responsibilities")
    p_cls.add_argument("--truth", dest="truth", help="truth labels for operating characteristics")
    p_cls.add_argument("--threshold", type=float, dest="threshold")
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
