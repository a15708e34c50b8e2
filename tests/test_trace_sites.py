"""Every call site the benchmark traces resolves in the package, and its
observers can read what the package hands them.

perfbench/layers.py names each function it wraps by module and dotted
attribute path, and its observers read fields of the arguments and results.
A site renamed or deleted, or a field reshaped, in the package would
otherwise show up only as a failed traced benchmark run.
"""

import pytest

import clonedyn.cli as cli
from perfbench.layers import count_filtering, trace_targets
from perfbench.tracing import Tracer, patched

from oracles import write_strata

SITES = [(module, path) for module, path, _name, _observe in trace_targets(Tracer("t"), {})]


@pytest.mark.parametrize(
    "module, path", SITES, ids=[f"{module.__name__}.{path}" for module, path in SITES]
)
def test_traced_call_site_resolves(module, path):
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# the filters the benchmark's repertoire and longitudinal workloads run
FILTERS = {
    "zero-filled": ["--min-total-reads", 8, "--absent-as-zero"],
    "as-recorded": ["--min-total-reads", 0, "--no-absent-as-zero"],
}


@pytest.mark.parametrize("filtering", FILTERS)
def test_observers_count_a_traced_pipeline(tmp_path, filtering):
    """The four stages in-process under the benchmark's wrappers, as its traced
    run calls them: every observer must read the values it is handed."""
    sim, fit, cls, summ = (tmp_path / name for name in ("sim", "fit", "cls", "summ"))
    write_strata(tmp_path / "strata.tsv", {f"p{j:03d}": j % 2 for j in range(6)})
    cohort = ["--input", sim / "cohort.tsv", "--offsets", sim / "offsets.tsv", *FILTERS[filtering]]
    stages = {
        "simulate": [
            "--n-clones", 600, "--n-persons", 6, "--missing-rate", 0.5, "--seed", 3,
            "--output-dir", sim,
        ],
        "fit": [*cohort, "--seed", 7, "--output-dir", fit],
        "classify": [
            *cohort, "--responsibilities", fit / "responsibilities.tsv",
            "--truth", sim / "truth.tsv", "--output-dir", cls,
        ],
        "summarize": [
            "--input", cls / "calls.tsv", "--strata", tmp_path / "strata.tsv",
            "--cutoff-dynamic", 10, "--cutoff-direction", 5, "--output-dir", summ,
        ],
    }  # fmt: skip
    tracer, stash = Tracer("test"), {}
    with patched(tracer, trace_targets(tracer, stash)) as missing:
        for stage, argv in stages.items():
            with tracer.span(f"cli.{stage}"):
                assert cli.main([stage, *map(str, argv)]) == 0, stage
            if stage == "fit":
                count_filtering(tracer, stash)
    assert missing == []
    assert tracer.errors == []
    for name in ("cohort.clones_kept", "classify.calls", "em.iterations", "optim.bfgs_iterations"):
        assert tracer.counts[name] > 0, name
    if filtering == "zero-filled":
        # --min-total-reads 8 drops a few of the 600, and half the person-times are missing
        assert tracer.counts["cohort.clones_dropped"] > 0
        assert tracer.counts["cohort.zeros_filled"] > 0
    else:
        assert tracer.counts["cohort.clones_dropped"] == 0
        assert tracer.counts["cohort.zeros_filled"] == 0
    # a site the stages call around its traced binding would read zero
    # without failing anything above
    traced = {name for _module, _path, name, _observe in trace_targets(Tracer("t"), {})}
    assert traced - {span.name for span in tracer.spans} == {"model.log_pmf_grads"}
