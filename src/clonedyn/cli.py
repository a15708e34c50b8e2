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

main is the one control path of every run: it parses the arguments,
resolves the options (_Options reads the config file), creates the
output directory, calls the subcommand's cmd_* with both, and maps an
error to its exit code through EXIT_CODES.  A cmd_* runs its stage's
checks and orders its reads and writes.  clonedyn.cohort reads and
writes every file, and each of its writers either replaces its target
with the whole, synced file or raises, which exits 5.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

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
    read_keyvalues,
    read_responsibilities,
    read_strata,
    read_truth_labels,
    write_calls,
    write_calls_pack,
    write_cohort,
    write_cohort_pack,
    write_keyvalues,
    write_offsets,
    write_responsibilities,
    write_table,
    write_truth,
)
from .em import FitConfig, fit_em
from .errors import IdentifiabilityError, OptimizerError, ValidationError
from .model import PackedCohort, match_keys
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IDENTIFIABILITY = 3
EXIT_OPTIMIZER = 4
EXIT_IO = 5
# the exit code of each failure class, the first class an error is an instance of
EXIT_CODES = {
    IdentifiabilityError: EXIT_IDENTIFIABILITY,
    OptimizerError: EXIT_OPTIMIZER,
    ValidationError: EXIT_VALIDATION,  # and so ParseError
    OSError: EXIT_IO,
}

PACK_NAME = "cohort.pack"  # fit's cohort and prob_dynamic, beside its responsibilities.tsv
CALLS_PACK_NAME = "calls.pack"  # classify's per-person counts, beside its calls.tsv


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


class _Options:
    """Resolved option lookup: CLI flag, then config file, then default.
    An empty value, which names no file, is a ValidationError."""

    def __init__(self, args: argparse.Namespace):
        self._args, self._config = args, {}
        path = self.get("config", str)  # a flag only: no config key names it
        if path is not None:
            self._config = read_keyvalues(path, args.config_keys)

    def get(self, name: str, cast, default=None, required: bool = False):
        value = getattr(self._args, name, None)
        if value is None and name in self._config:
            raw = self._config[name]
            try:
                value = _parse_bool(raw) if cast is bool else cast(raw)
            except ValueError:
                raise ValidationError(
                    f"{self._args.config}: config key {name!r}: cannot parse {raw!r}"
                ) from None
        if value == "":
            raise ValidationError(f"option {name!r} is empty")
        if value is None and required:
            raise ValidationError(f"missing required option {name!r} (flag or config)")
        return default if value is None else value

    def build(self, cls):
        """The dataclass cls with each field a flag or the config sets; every
        other field keeps the default cls declares."""
        given = {f.name: self.get(f.name, type(f.default)) for f in fields(cls)}
        return cls(**{name: value for name, value in given.items() if value is not None})


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


def cmd_simulate(opts: _Options, out: Path) -> None:
    cfg = opts.build(SimConfig)
    cohort, truth, _ = simulate(cfg)
    write_cohort(out / "cohort.tsv", cohort)
    write_offsets(out / "offsets.tsv", offsets_from_series(cohort))
    write_truth(out / "truth.tsv", truth)


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


def cmd_fit(opts: _Options, out: Path) -> None:
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

    write_keyvalues(
        out / "hyperparams.txt",
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
    cohort = result.cohort
    resp_digest = write_responsibilities(
        out / "responsibilities.tsv",
        Responsibilities(cohort.person_id, cohort.clone_id, cohort.n_times, result.prob_dynamic),
    )
    key = cohort_key(digests, *inputs[2:], resp_digest)
    write_cohort_pack(out / PACK_NAME, cohort, result.prob_dynamic, key)
    write_table(
        out / "fit_trace.tsv",
        {
            "iteration": np.arange(1, result.loglik_trace.size + 1),
            "loglik": result.loglik_trace,
            "msq_change": result.msq_change_trace,
        },
    )


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


def cmd_classify(opts: _Options, out: Path) -> None:
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
    calls_digest = write_calls(out / "calls.tsv", calls, prob_text)

    counts = dynamic_counts_per_person(calls)
    write_table(out / "per_person.tsv", vars(counts))
    write_calls_pack(out / CALLS_PACK_NAME, counts, calls_digest)

    write_table(
        out / "membership_points.tsv",
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

    write_table(
        out / "trajectories.tsv",
        {
            "person_id": np.repeat(cohort.person_id, cohort.n_times),
            "clone_id": np.repeat(cohort.clone_id, cohort.n_times),
            "time_index": cohort.times,
            "proportion": _proportions(cohort.counts, cohort.offsets),
            "call": np.repeat(calls.call_text(), cohort.n_times),
        },
    )

    if oc is not None:
        write_keyvalues(out / "operating_characteristics.txt", vars(oc))


def cmd_summarize(opts: _Options, out: Path) -> None:
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
    # person_id keeps the first place, and stratum comes right after it
    write_table(
        out / "per_person.tsv", {"person_id": counts.person_id, "stratum": stratum, **vars(counts)}
    )
    columns = {"metric": [name for name, _, _ in metrics]}
    for f in fields(AssociationResult):
        if f.name != "chi_sq_table":
            columns[f.name] = np.array([getattr(r, f.name) for r in results])
    write_table(out / "association.tsv", columns)


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
        opts = _Options(args)
        out = Path(opts.get("output_dir", str, required=True))
        out.mkdir(parents=True, exist_ok=True)
        args.func(opts, out)
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    sys.exit(main())
