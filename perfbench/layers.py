"""Per-layer metrics of the traced in-process run.

Layers are named after clonedyn's modules: cli, cohort, simulate, model,
optim, em and classify.  Time metrics (`_s`) sum every call in the traced
pipeline; counts that describe the data (rows, clones, observations) are
taken from the fit stage, so classify's second pass over the same inputs
does not double them.
"""

from __future__ import annotations

import os
import statistics

from perfbench.tracing import Span, Tracer, self_times

PIPELINE = ("fit", "classify", "summarize")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.fit_rss_mb": "MB",
    "cli.classify_rss_mb": "MB",
    "cohort.ingest_s": "s",
    "cohort.ingest_rows": "count",
    "cohort.ingest_bytes": "bytes",
    "cohort.filter_clones_s": "s",
    "cohort.clones_kept": "count",
    "cohort.clones_dropped": "count",
    "cohort.zeros_filled": "count",
    "cohort.write_s": "s",
    "cohort.write_bytes": "bytes",
    "cohort.read_sidecar_s": "s",
    "simulate.simulate_s": "s",
    "simulate.write_s": "s",
    "model.batch_build_s": "s",
    "model.observations": "count",
    "model.log_pmfs_calls": "count",
    "model.log_pmfs_s": "s",
    "model.log_pmf_grads_calls": "count",
    "model.log_pmf_grads_s": "s",
    "model.obs_evals": "count",
    "optim.bfgs_calls": "count",
    "optim.bfgs_iterations": "count",
    "optim.bfgs_self_s": "s",
    "em.fit_em_s": "s",
    "em.fit_em_self_s": "s",
    "em.iterations": "count",
    "em.m_step_s": "s",
    "em.e_step_s": "s",
    "em.evals_per_m_step": "ratio",
    "em.incumbent_kept": "count",
    "classify.classify_s": "s",
    "classify.calls": "count",
    "classify.dynamic_calls": "count",
    "classify.operating_characteristics_s": "s",
    "classify.dynamic_counts_s": "s",
    "classify.associate_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.fit_attributed_frac": "ratio",
}

WRITERS = {
    "cohort.write_table",
    "cohort.write_keyvalues",
    "cohort.write_responsibilities",
    "cohort.write_calls",
    "simulate.write_cohort",
    "simulate.write_offsets",
    "simulate.write_truth",
}
SIMULATE_WRITERS = (
    "simulate.write_cohort",
    "simulate.write_offsets",
    "simulate.write_truth",
    "simulate.offsets_from_series",
)
SIDECAR_READERS = (
    "cohort.read_offsets",
    "cohort.read_truth",
    "cohort.read_strata",
    "cohort.read_responsibilities",
    "cohort.read_calls",
)
E_STEP = {"model.log_pmfs", "em.stable_responsibility", "em.convergence_stat"}


def _observers(tracer: Tracer, stash: dict) -> dict:
    counts = tracer.counts
    batch_obs: dict[int, int] = {}

    def in_fit() -> bool:
        return tracer.root == "cli.fit"

    def ingest(_t, args, _kw, table):
        if in_fit():
            counts["cohort.ingest_rows"] = len(table.rows)
            counts["cohort.ingest_bytes"] = os.path.getsize(args[0])
            stash["table"] = table

    def filter_clones(_t, _args, _kw, series):
        if in_fit():
            counts["cohort.clones_kept"] = len(series)
            stash["series"] = series

    def batch(_t, args, _kw, _result):
        n = int(args[0].t.sum())
        batch_obs[id(args[0])] = n
        counts["model.observations"] += n

    def evaluate(_t, args, _kw, _result):
        counts["model.obs_evals"] += batch_obs.get(id(args[0]), 0)

    def m_step(_t, args, kwargs, result):
        incumbent = args[2] if len(args) > 2 else kwargs.get("hp_current")
        counts["em.incumbent_kept"] += result is incumbent

    def bfgs(_t, _args, _kw, result):
        counts["optim.bfgs_iterations"] += result.iterations

    def fit_em(_t, _args, _kw, result):
        counts["em.iterations"] += result.iterations

    def classify(_t, _args, _kw, calls):
        counts["classify.calls"] += len(calls)
        counts["classify.dynamic_calls"] += sum(1 for c in calls if c.call.value == "dynamic")

    return {
        "ingest": ingest,
        "filter_clones": filter_clones,
        "batch": batch,
        "evaluate": evaluate,
        "m_step": m_step,
        "bfgs": bfgs,
        "fit_em": fit_em,
        "classify": classify,
    }


def trace_targets(tracer: Tracer, stash: dict) -> list:
    """(module, attribute path, span name, observer) for every traced call site."""
    import clonedyn.cli as cli
    import clonedyn.cohort as cohort
    import clonedyn.em as em
    import clonedyn.model as model

    obs = _observers(tracer, stash)
    return [
        (cli, "ingest", "cohort.ingest", obs["ingest"]),
        (cli, "filter_clones", "cohort.filter_clones", obs["filter_clones"]),
        (cohort, "read_offsets", "cohort.read_offsets", None),
        (cli, "read_truth_labels", "cohort.read_truth", None),
        (cli, "read_strata", "cohort.read_strata", None),
        (cli, "read_responsibilities", "cohort.read_responsibilities", None),
        (cli, "read_calls", "cohort.read_calls", None),
        (cli, "write_table", "cohort.write_table", None),
        (cohort, "write_table", "cohort.write_table", None),
        (cli, "write_keyvalues", "cohort.write_keyvalues", None),
        (cli, "write_responsibilities", "cohort.write_responsibilities", None),
        (cli, "write_calls", "cohort.write_calls", None),
        (cli, "simulate", "simulate.simulate", None),
        (cli, "write_cohort", "simulate.write_cohort", None),
        (cli, "write_offsets", "simulate.write_offsets", None),
        (cli, "write_truth", "simulate.write_truth", None),
        (cli, "offsets_from_series", "simulate.offsets_from_series", None),
        (cli, "fit_em", "em.fit_em", obs["fit_em"]),
        (em, "m_step", "em.m_step", obs["m_step"]),
        (em, "maximize_bfgs", "optim.maximize_bfgs", obs["bfgs"]),
        (em, "stable_responsibility", "em.stable_responsibility", None),
        (em, "convergence_stat", "em.convergence_stat", None),
        (model, "SeriesBatch.__init__", "model.SeriesBatch.__init__", obs["batch"]),
        (model, "SeriesBatch.log_pmfs", "model.log_pmfs", obs["evaluate"]),
        (model, "SeriesBatch.log_pmf_grads", "model.log_pmf_grads", obs["evaluate"]),
        (cli, "classify", "classify.classify", obs["classify"]),
        (cli, "operating_characteristics", "classify.operating_characteristics", None),
        (cli, "dynamic_counts_per_person", "classify.dynamic_counts_per_person", None),
        (cli, "associate", "classify.associate", None),
    ]


def count_filtering(tracer: Tracer, stash: dict) -> None:
    """Clones dropped and zeros filled by the fit stage's filter, counted after the stage."""
    table, series = stash.pop("table", None), stash.pop("series", None)
    if table is None or series is None:
        return
    try:
        kept = {s.key for s in series}
        clones = {(p, c) for p, _t, c, _n in table.rows}
        kept_rows = sum(1 for p, _t, c, _n in table.rows if (p, c) in kept)
        zeros = sum(s.n_times for s in series) - kept_rows
    except (AttributeError, TypeError, ValueError) as exc:
        tracer.errors.append(f"count_filtering: {exc!r}")
        return
    tracer.counts["cohort.clones_dropped"] = len(clones) - len(kept)
    tracer.counts["cohort.zeros_filled"] = zeros


def self_time_table(spans: list[Span]) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    return table


def layer_metrics(
    tracer: Tracer,
    import_times: list[float],
    untraced_walls: dict[str, float],
    untraced_rss: dict[str, float],
    write_bytes: int,
) -> dict[str, float]:
    """Every PER_LAYER value from the spans and counts of one traced pipeline."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def has_ancestor(span, names):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name in names:
                return True
        return False

    import_s = statistics.median(import_times)
    # each untraced stage pays a cold interpreter start and import that the
    # in-process traced stages do not
    untraced_pipeline = sum(untraced_walls[s] - import_s for s in PIPELINE)
    traced_pipeline = total(*(f"cli.{s}" for s in PIPELINE))
    fit_roots = by_name.get("cli.fit", [])
    inner_evals = sum(
        1 for s in by_name.get("model.log_pmfs", ()) if has_ancestor(s, {"optim.maximize_bfgs"})
    )
    values = {
        "cli.import_s": import_s,
        "cli.fit_rss_mb": untraced_rss["fit"],
        "cli.classify_rss_mb": untraced_rss["classify"],
        "cohort.ingest_s": total("cohort.ingest"),
        "cohort.filter_clones_s": total("cohort.filter_clones"),
        "cohort.write_s": sum(
            s.duration for s in spans if s.name in WRITERS and not has_ancestor(s, WRITERS)
        ),
        "cohort.write_bytes": write_bytes,
        "cohort.read_sidecar_s": total(*SIDECAR_READERS),
        "simulate.simulate_s": total("simulate.simulate"),
        "simulate.write_s": total(*SIMULATE_WRITERS),
        "model.batch_build_s": total("model.SeriesBatch.__init__"),
        "model.log_pmfs_calls": calls("model.log_pmfs"),
        "model.log_pmfs_s": total("model.log_pmfs"),
        "model.log_pmf_grads_calls": calls("model.log_pmf_grads"),
        "model.log_pmf_grads_s": total("model.log_pmf_grads"),
        "optim.bfgs_calls": calls("optim.maximize_bfgs"),
        "optim.bfgs_self_s": self_total("optim.maximize_bfgs"),
        "em.fit_em_s": total("em.fit_em"),
        "em.fit_em_self_s": self_total("em.fit_em"),
        "em.m_step_s": total("em.m_step"),
        "em.e_step_s": sum(
            s.duration
            for s in spans
            if s.name in E_STEP and s.parent is not None and spans[s.parent].name == "em.fit_em"
        ),
        "em.evals_per_m_step": inner_evals / max(calls("em.m_step"), 1),
        "classify.classify_s": total("classify.classify"),
        "classify.operating_characteristics_s": total("classify.operating_characteristics"),
        "classify.dynamic_counts_s": total("classify.dynamic_counts_per_person"),
        "classify.associate_s": total("classify.associate"),
        "trace.overhead_frac": traced_pipeline / untraced_pipeline - 1.0,
        "trace.fit_attributed_frac": (
            1.0 - self_total("cli.fit") / total("cli.fit") if fit_roots else 0.0
        ),
    }
    for name in PER_LAYER:
        values.setdefault(name, tracer.counts.get(name, 0))
    return values
