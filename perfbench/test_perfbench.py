"""Self-tests of the benchmark: generator determinism, the gate, self-time arithmetic."""

import json
import types
from pathlib import Path

import pytest

from perfbench import gate, layers
from perfbench import run as bench
from perfbench.generate import WORKLOADS_PATH, generate, load_workload, write_inputs
from perfbench.tracing import Span, Tracer, patched, self_times

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "name": "tiny",
    "generator": {
        "n_persons": 6, "clones_per_person": 150, "n_times": 3, "missing_rate": 0.0,
        "alpha": 1.0, "beta": 100.0, "pi": 0.2,
        "depth": {"kind": "exponential", "mean": 40000},
        "rare_reads": False,
    },
    "cli": {
        "offsets": True, "min_total_reads": 0, "absent_as_zero": True,
        "cutoff_dynamic": 20, "cutoff_direction": 10,
    },
    "sensitivity_floor": 0.0,
}  # fmt: skip


def _bytes(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("workload", ["longitudinal", "repertoire"])
def test_generator_repeats_for_a_seed_and_differs_across_seeds(workload, tmp_path):
    params = load_workload(workload)["generator"]
    write_inputs(generate(params, 3), tmp_path / "a")
    write_inputs(generate(params, 3), tmp_path / "b")
    write_inputs(generate(params, 4), tmp_path / "c")
    write_inputs(generate(params, 3, dataset=1), tmp_path / "d")
    first = _bytes(tmp_path / "a")
    assert first == _bytes(tmp_path / "b")
    assert first["cohort.tsv"] != _bytes(tmp_path / "c")["cohort.tsv"]
    assert first["cohort.tsv"] != _bytes(tmp_path / "d")["cohort.tsv"]


def test_repertoire_counts_partition_each_depth(tmp_path):
    paths = write_inputs(generate(load_workload("repertoire")["generator"], 5), tmp_path)
    derived: dict[tuple[str, str], int] = {}
    for line in paths["cohort.tsv"].read_text().splitlines()[1:]:
        person, time, _clone, count = line.split("\t")
        derived[(person, time)] = derived.get((person, time), 0) + int(count)
    depths = {}
    for line in paths["offsets.tsv"].read_text().splitlines()[1:]:
        person, time, total = line.split("\t")
        depths[(person, time)] = int(total)
    assert derived == depths


@pytest.fixture
def tiny_bench(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    ledger = bench.Ledger(tmp_path / "digests.json", "tiny")
    with bench.Launcher(work / "stderr.log") as launcher:
        yield bench.Bench(TINY, 1, work, ledger, launcher)


def test_gate_accepts_good_outputs_and_rejects_truncated_responsibilities(tiny_bench):
    data, _seconds = tiny_bench.dataset(0)
    dirs = {stage: tiny_bench.work / stage for stage in bench.STAGES}
    for stage in bench.PIPELINE:
        assert tiny_bench.stage(stage, data, dirs).problems == []

    resp = dirs["fit"] / "responsibilities.tsv"
    text = resp.read_text()
    resp.write_text(text[: len(text) // 2])
    problems = gate.check_stage("fit", dirs["fit"], dirs, data.expect, TINY)
    assert any("truncated" in p for p in problems)

    resp.write_text(text.rsplit("\n", 2)[0] + "\n")  # whole rows, one clone short
    problems = gate.check_stage("fit", dirs["fit"], dirs, data.expect, TINY)
    assert any("missing clones" in p for p in problems)


def test_gate_rejects_a_wrong_direction_and_a_wrong_association(tiny_bench):
    data, _seconds = tiny_bench.dataset(0)
    dirs = {stage: tiny_bench.work / stage for stage in bench.STAGES}
    for stage in bench.PIPELINE:
        assert tiny_bench.stage(stage, data, dirs).problems == []

    calls = dirs["classify"] / "calls.tsv"
    flip = {"expanding": "contracting", "contracting": "expanding"}
    lines = calls.read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if "\tdynamic\t" in line)
    person, clone, prob, call, direction = lines[k].rstrip("\n").split("\t")
    lines[k] = "\t".join([person, clone, prob, call, flip[direction]]) + "\n"
    calls.write_text("".join(lines))
    problems = gate.check_stage("classify", dirs["classify"], dirs, data.expect, TINY)
    assert any("directions disagree" in p for p in problems)

    association = dirs["summarize"] / "association.tsv"
    header, dynamic, *rest = association.read_text().splitlines(keepends=True)
    fields = dynamic.rstrip("\n").split("\t")
    fields[5] = repr(float(fields[5]) + 0.01)  # loglinear_coef
    association.write_text("".join([header, "\t".join(fields) + "\n", *rest]))
    problems = gate.check_stage("summarize", dirs["summarize"], dirs, data.expect, TINY)
    assert any("dynamic statistics do not follow" in p for p in problems)


def test_traced_run_fails_when_a_call_site_is_gone(tiny_bench, monkeypatch):
    targets = layers.trace_targets
    monkeypatch.setattr(
        layers,
        "trace_targets",
        lambda tracer, stash: targets(tracer, stash) + [(gate, "no_such_function", "gone", None)],
    )
    _metrics, runs, _extra = tiny_bench.traced()
    assert all(r.problems == [] for r in runs)
    assert any("no_such_function not found" in p for p in tiny_bench.problems)


def test_gate_rejects_a_nonzero_exit(tiny_bench):
    data, _seconds = tiny_bench.dataset(0)
    data.paths = dict(data.paths, **{"cohort.tsv": tiny_bench.work / "absent.tsv"})
    dirs = {stage: tiny_bench.work / stage for stage in bench.STAGES}
    run = tiny_bench.stage("fit", data, dirs)
    assert run.rc != 0
    assert any("exited with" in p for p in run.problems)


def test_gate_rejects_an_output_that_changes_between_runs(tmp_path):
    ledger = bench.Ledger(tmp_path / "digests.json", "key")
    assert ledger.check("0/fit", {"hyperparams.txt": "aa"}) == []
    ledger.save()
    again = bench.Ledger(tmp_path / "digests.json", "key")
    assert again.check("0/fit", {"hyperparams.txt": "aa"}) == []
    assert again.check("0/fit", {"hyperparams.txt": "bb"})


def test_self_time_is_duration_minus_child_covered_interval():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a: [1, 6] is covered once
        Span(3, "a.child", 2.0, 3.0, 1, "r"),
        Span(4, "late", 9.0, 12.0, 0, "r"),  # only [9, 10] lies inside root
    ]
    assert self_times(spans) == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_patched_records_nested_spans_and_restores_the_original():
    module = types.SimpleNamespace(__name__="m")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    tracer = Tracer("t")
    targets = [
        (module, "outer", "outer", None),
        (module, "inner", "inner", None),
        (module, "Gone.attr", "gone", None),
    ]
    with patched(tracer, targets) as missing:
        assert module.outer() == 2
    assert missing == ["m.Gone.attr"]
    assert module.inner is inner and module.outer is outer
    first, second = tracer.spans
    assert (first.name, first.parent, second.name, second.parent) == ("outer", None, "inner", 0)


def test_benchmark_json_matches_the_metrics_and_workloads_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    workloads = json.loads(WORKLOADS_PATH.read_text())["workloads"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads)
