"""End-to-end command-line pipeline and exit-code mapping."""

import math

import pytest

from clonedyn import CloneSeries
from clonedyn.cli import (
    EXIT_IDENTIFIABILITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_OPTIMIZER,
    EXIT_VALIDATION,
    build_parser,
    main,
    read_calls,
    read_keyvalues,
    read_responsibilities,
    write_keyvalues,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> fit -> classify on a small cohort, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    sim_dir = root / "sim"
    fit_dir = root / "fit"
    cls_dir = root / "cls"
    assert (
        run(
            "simulate",
            "--n-clones", 1500,
            "--n-persons", 6,
            "--alpha", 1.0,
            "--beta", 150.0,
            "--pi", 0.25,
            "--seed", 42,
            "--output-dir", sim_dir,
        )
        == EXIT_OK
    )
    assert (
        run(
            "fit",
            "--input", sim_dir / "cohort.tsv",
            "--offsets", sim_dir / "offsets.tsv",
            "--min-total-reads", 0,
            "--seed", 7,
            "--output-dir", fit_dir,
        )
        == EXIT_OK
    )
    assert (
        run(
            "classify",
            "--input", sim_dir / "cohort.tsv",
            "--offsets", sim_dir / "offsets.tsv",
            "--responsibilities", fit_dir / "responsibilities.tsv",
            "--truth", sim_dir / "truth.tsv",
            "--min-total-reads", 0,
            "--threshold", 0.75,
            "--output-dir", cls_dir,
        )
        == EXIT_OK
    )
    return root


class TestPipeline:
    def test_simulate_outputs(self, pipeline):
        sim_dir = pipeline / "sim"
        for name in ("cohort.tsv", "offsets.tsv", "truth.tsv"):
            assert (sim_dir / name).stat().st_size > 0

    def test_fit_outputs(self, pipeline):
        fit_dir = pipeline / "fit"
        doc = read_keyvalues(fit_dir / "hyperparams.txt")
        assert 0.5 < float(doc["alpha"]) < 2.0
        assert 75.0 < float(doc["beta"]) < 300.0
        assert 0.1 < float(doc["pi"]) < 0.45
        assert doc["converged"] == "true"
        responsibilities = read_responsibilities(fit_dir / "responsibilities.tsv")
        assert len(responsibilities) == int(doc["n_clones"]) == 1500
        trace = (fit_dir / "fit_trace.tsv").read_text().strip().splitlines()
        assert len(trace) == int(doc["iterations"]) + 1
        logliks = [float(line.split("\t")[1]) for line in trace[1:]]
        assert all(b - a >= -1e-6 for a, b in zip(logliks, logliks[1:]))

    def test_classify_outputs(self, pipeline):
        cls_dir = pipeline / "cls"
        calls = read_calls(cls_dir / "calls.tsv")
        assert len(calls) == 1500
        oc = read_keyvalues(cls_dir / "operating_characteristics.txt")
        assert 0.0 <= float(oc["sensitivity"]) <= 1.0
        assert float(oc["specificity"]) > 0.9
        assert int(oc["tp"]) + int(oc["fp"]) + int(oc["tn"]) + int(oc["fn"]) == 1500

        per_person = (cls_dir / "per_person.tsv").read_text().strip().splitlines()
        assert per_person[0] == "person_id\tn_dynamic\tn_expanding\tn_contracting"
        assert len(per_person) == 1 + 6

        points = (cls_dir / "membership_points.tsv").read_text().strip().splitlines()
        assert len(points) == 1 + 1500
        assert points[0].endswith("truth_dynamic")

        trajectories = (cls_dir / "trajectories.tsv").read_text().strip().splitlines()
        assert len(trajectories) == 1 + sum(1 for _ in calls) * 3  # 3 follow-ups each

    def test_summarize_outputs(self, pipeline, tmp_path):
        cls_dir = pipeline / "cls"
        strata_path = tmp_path / "strata.tsv"
        lines = ["person_id\tstratum"] + [
            f"p{i:03d}\t{i % 2}" for i in range(6)
        ]
        strata_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sum"
        assert (
            run(
                "summarize",
                "--input", cls_dir / "calls.tsv",
                "--strata", strata_path,
                "--cutoff-dynamic", 50,
                "--cutoff-direction", 25,
                "--output-dir", out,
            )
            == EXIT_OK
        )
        rows = (out / "association.tsv").read_text().strip().splitlines()
        assert rows[0].startswith("metric\tcutoff")
        metrics = {line.split("\t")[0] for line in rows[1:]}
        assert metrics == {"dynamic", "expanding", "contracting"}
        per_person = (out / "per_person.tsv").read_text().strip().splitlines()
        assert len(per_person) == 1 + 6

    def test_determinism_across_reruns(self, pipeline, tmp_path):
        sim_dir = pipeline / "sim"
        fit_dir = pipeline / "fit"
        out = tmp_path / "refit"
        assert (
            run(
                "fit",
                "--input", sim_dir / "cohort.tsv",
                "--offsets", sim_dir / "offsets.tsv",
                "--min-total-reads", 0,
                "--seed", 7,
                "--output-dir", out,
            )
            == EXIT_OK
        )
        for name in ("hyperparams.txt", "responsibilities.tsv", "fit_trace.tsv"):
            assert (out / name).read_bytes() == (fit_dir / name).read_bytes()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "# simulation settings\n"
            "n_clones = 300\n"
            "n_persons = 3\n"
            "alpha = 1.0\n"
            "beta = 120.0\n"
            "pi = 0.2\n"
            "seed = 5\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run("simulate", "--config", config, "--output-dir", out_a) == EXIT_OK
        # flag overrides the config seed; different draw
        assert run("simulate", "--config", config, "--seed", 6, "--output-dir", out_b) == EXIT_OK
        assert (out_a / "cohort.tsv").read_bytes() != (out_b / "cohort.tsv").read_bytes()

    def test_missing_required_option(self, tmp_path):
        assert run("fit", "--output-dir", tmp_path / "x") == EXIT_VALIDATION

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value line\n")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "y") == EXIT_VALIDATION

    def test_key_no_subcommand_takes_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("n_clones = 300\nmin_total_read = 0\n")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "y") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line 2: {config}: no subcommand takes the key 'min_total_read'" in err

    def test_repeated_key_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("n_clones = 300\n# again\nn_clones = 400\n")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "y") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"line 3: {config}: key 'n_clones' repeats an earlier line" in err

    def test_another_subcommands_key_is_allowed(self, tmp_path):
        # fit and classify share one config: each ignores what only the other takes
        config = tmp_path / "shared.cfg"
        config.write_text("n_clones = 300\nn_persons = 3\nthreshold = 0.9\nmin_total_reads = 5\n")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "y") == EXIT_OK

    @pytest.mark.parametrize("command", ["classify", "summarize"])
    def test_seed_is_rejected_where_no_draw_reads_it(self, tmp_path, command, capsys):
        with pytest.raises(SystemExit) as exited:
            run(command, "--seed", 1, "--output-dir", tmp_path / "y")
        assert exited.value.code == EXIT_VALIDATION
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        # a config file shared with fit may still hold the seed
        assert "seed" in build_parser().parse_args([command]).config_keys

    @pytest.mark.parametrize(
        "key, value", [("absent_as_zero", "maybe"), ("min_total_reads", "8.5")]
    )
    def test_value_that_does_not_parse_names_its_key_and_file(self, tmp_path, key, value, capsys):
        cohort = tmp_path / "cohort.tsv"
        cohort.write_text("person_id\ttime_index\tclone_id\tcount\np1\t0\ta\t10\np1\t1\ta\t5\n")
        config = tmp_path / "fit.cfg"
        config.write_text(f"{key} = {value}\n")
        argv = ("fit", "--config", config, "--input", cohort, "--output-dir", tmp_path / "y")
        assert run(*argv) == EXIT_VALIDATION
        assert f"{config}: config key {key!r}: cannot parse {value!r}" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"n_clones = 300\n# caf\xe9\n")
        assert run("simulate", "--config", config, "--output-dir", tmp_path / "y") == EXIT_VALIDATION
        assert f"{config}: not UTF-8 text" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("person_id\ttime_index\tclone_id\tcount\np1\t0\ta\tnotanumber\n")
        assert (
            run("fit", "--input", bad, "--output-dir", tmp_path / "out") == EXIT_VALIDATION
        )

    def test_identifiability_failure(self, tmp_path):
        single = tmp_path / "single.tsv"
        single.write_text(
            "person_id\ttime_index\tclone_id\tcount\n"
            "p1\t0\ta\t10\n"
            "p1\t0\tb\t20\n"
            "p1\t0\tc\t30\n"
        )
        assert (
            run(
                "fit",
                "--input", single,
                "--min-total-reads", 0,
                "--output-dir", tmp_path / "out",
            )
            == EXIT_IDENTIFIABILITY
        )

    def test_cohort_that_is_not_utf8_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"person_id\ttime_index\tclone_id\tcount\np1\t0\tcaf\xe9\t3\n")
        assert run("fit", "--input", bad, "--output-dir", tmp_path / "out") == EXIT_VALIDATION
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        assert (
            run("fit", "--input", tmp_path / "nope.tsv", "--output-dir", tmp_path / "out")
            == EXIT_IO
        )

    def test_optimizer_failure(self, tmp_path, monkeypatch):
        import clonedyn.cli
        from clonedyn import OptimizerError

        def explode(*args, **kwargs):
            raise OptimizerError("no ascent step and no evaluable incumbent")

        monkeypatch.setattr(clonedyn.cli, "fit_em", explode)
        cohort = tmp_path / "cohort.tsv"
        cohort.write_text(
            "person_id\ttime_index\tclone_id\tcount\n"
            "p1\t0\ta\t10\np1\t1\ta\t20\np1\t0\tb\t5\np1\t1\tb\t6\n"
        )
        assert (
            run(
                "fit",
                "--input", cohort,
                "--min-total-reads", 0,
                "--output-dir", tmp_path / "out",
            )
            == EXIT_OPTIMIZER
        )

    def test_objective_not_finite_at_the_incumbent_exits_4(self, tmp_path, monkeypatch, capsys):
        from clonedyn.model import ExpectedLoglik

        def nan_everywhere(self, alpha, beta):
            return math.nan, math.nan, math.nan

        monkeypatch.setattr(ExpectedLoglik, "value_and_grad", nan_everywhere)
        cohort = tmp_path / "cohort.tsv"
        cohort.write_text(
            "person_id\ttime_index\tclone_id\tcount\n"
            "p1\t0\ta\t10\np1\t1\ta\t20\np1\t0\tb\t5\np1\t1\tb\t6\n"
        )
        argv = ("fit", "--input", cohort, "--min-total-reads", 0, "--output-dir", tmp_path / "out")
        assert run(*argv) == EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert err.startswith("error: the incumbent hyperparameters have no finite")
        assert "Traceback" not in err


def test_keyvalue_round_trip(tmp_path):
    path = tmp_path / "doc.txt"
    write_keyvalues(path, {"alpha": 1.25, "converged": True, "iterations": 12, "name": "x"})
    values = read_keyvalues(path)
    assert values == {"alpha": "1.25", "converged": "true", "iterations": "12", "name": "x"}


COHORT = (
    "person_id\ttime_index\tclone_id\tcount\n"
    "p1\t0\ta\t10\np1\t1\ta\t20\np1\t0\tb\t5\np1\t1\tb\t6\np1\t0\tc\t7\n"
)


def responsibilities_file(path, rows):
    lines = ["person_id\tclone_id\tn_times\tprob_dynamic"]
    lines += ["\t".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRejectedInputs:
    """Input that cannot be right exits with EXIT_VALIDATION, not a traceback or 0."""

    def fit(self, tmp_path, cohort_text, *extra):
        cohort = tmp_path / "cohort.tsv"
        cohort.write_text(cohort_text)
        return run(
            "fit", "--input", cohort, "--min-total-reads", 0, *extra,
            "--output-dir", tmp_path / "fit",
        )

    def classify(self, tmp_path, responsibilities, *extra):
        cohort = tmp_path / "cohort.tsv"
        cohort.write_text(COHORT)
        return run(
            "classify", "--input", cohort, "--responsibilities", responsibilities,
            "--min-total-reads", 0, *extra, "--output-dir", tmp_path / "cls",
        )

    @pytest.mark.parametrize(
        "row",
        ["p1\t0\td\t99999999999999999999", "p1\t99999999999999999999\td\t1"],
    )
    def test_integer_beyond_int64(self, tmp_path, row):
        text = COHORT + row + "\n"
        assert self.fit(tmp_path, text) == EXIT_VALIDATION

    def test_total_reads_beyond_int64(self, tmp_path):
        offsets = tmp_path / "offsets.tsv"
        offsets.write_text(
            "person_id\ttime_index\ttotal_reads\np1\t0\t99999999999999999999\np1\t1\t100\n"
        )
        assert self.fit(tmp_path, COHORT, "--offsets", offsets) == EXIT_VALIDATION

    def test_derived_person_time_total_beyond_int64(self, tmp_path):
        big = 2**62
        text = COHORT + f"p1\t1\td\t{big}\np1\t1\te\t{big}\n"
        assert self.fit(tmp_path, text) == EXIT_VALIDATION

    @pytest.mark.parametrize("prob", ["nan", "1.5", "-0.25", "inf"])
    def test_prob_dynamic_outside_the_unit_interval(self, tmp_path, prob):
        path = responsibilities_file(
            tmp_path / "resp.tsv",
            [("p1", "a", 2, prob), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.5)],
        )
        assert self.classify(tmp_path, path, "--no-absent-as-zero") == EXIT_VALIDATION

    def test_n_times_that_differ_from_the_cohort(self, tmp_path):
        path = responsibilities_file(
            tmp_path / "resp.tsv",
            [("p1", "a", 7, 0.9), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.5)],
        )
        assert self.classify(tmp_path, path, "--no-absent-as-zero") == EXIT_VALIDATION
        good = responsibilities_file(
            tmp_path / "good.tsv",
            [("p1", "a", 2, 0.9), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.5)],
        )
        assert self.classify(tmp_path, good, "--no-absent-as-zero") == EXIT_OK

    def test_classify_with_other_filter_settings_than_the_fit(self, tmp_path):
        assert self.fit(tmp_path, COHORT, "--no-absent-as-zero") == EXIT_OK
        resp = tmp_path / "fit" / "responsibilities.tsv"
        # absent_as_zero gives clone c a zero at time 1: two points, fitted on one
        assert self.classify(tmp_path, resp, "--absent-as-zero") == EXIT_VALIDATION
        assert self.classify(tmp_path, resp, "--no-absent-as-zero") == EXIT_OK

    @pytest.mark.parametrize("value", ["7", "2"])
    def test_truth_dynamic_other_than_0_or_1(self, tmp_path, value, capsys):
        path = responsibilities_file(
            tmp_path / "resp.tsv",
            [("p1", "a", 2, 0.9), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.5)],
        )
        truth = tmp_path / "truth.tsv"
        truth.write_text(f"person_id\tclone_id\tdynamic\np1\ta\t1\np1\tb\t{value}\np1\tc\t0\n")
        code = self.classify(tmp_path, path, "--no-absent-as-zero", "--truth", truth)
        assert code == EXIT_VALIDATION
        assert f"line 3: dynamic must be 0 or 1, got {value}" in capsys.readouterr().err

    def test_truth_that_misses_a_clone(self, tmp_path, capsys):
        path = responsibilities_file(
            tmp_path / "resp.tsv",
            [("p1", "a", 2, 0.9), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.5)],
        )
        truth = tmp_path / "truth.tsv"
        truth.write_text("person_id\tclone_id\tdynamic\np1\ta\t1\np1\tb\t0\n")
        code = self.classify(tmp_path, path, "--no-absent-as-zero", "--truth", truth)
        assert code == EXIT_VALIDATION
        assert "truth does not cover clone ('p1', 'c')" in capsys.readouterr().err

    def test_responsibilities_with_a_missing_and_an_extra_clone(self, tmp_path, capsys):
        path = responsibilities_file(
            tmp_path / "resp.tsv",
            [("p1", "a", 2, 0.9), ("p1", "c", 1, 0.5), ("p1", "d", 2, 0.5)],
        )
        assert self.classify(tmp_path, path, "--no-absent-as-zero") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "responsibilities and series keys do not align (2 mismatched)" in err

    @pytest.mark.parametrize(
        "clone", ['"c3\tx"', '"c3\rx"', '"c3\nx"', '"""c3"'], ids=["tab", "cr", "lf", "quote"]
    )
    def test_id_that_no_table_can_hold_is_rejected(self, tmp_path, clone, capsys):
        text = COHORT + f"p1\t0\t{clone}\t3\np1\t1\t{clone}\t4\n"
        assert self.fit(tmp_path, text) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line 7: " in err and "cannot be written back" in err
        assert not (tmp_path / "fit").exists() or not any((tmp_path / "fit").iterdir())


def test_classify_accepts_responsibilities_in_any_order(tmp_path):
    cohort = tmp_path / "cohort.tsv"
    cohort.write_text(COHORT)
    rows = [("p1", "a", 2, 0.9), ("p1", "b", 2, 0.5), ("p1", "c", 1, 0.8)]
    outputs = []
    for name, order in (("sorted", rows), ("shuffled", [rows[2], rows[0], rows[1]])):
        resp = responsibilities_file(tmp_path / f"{name}.tsv", order)
        assert run("classify", "--input", cohort, "--responsibilities", resp,
                   "--min-total-reads", 0, "--no-absent-as-zero",
                   "--output-dir", tmp_path / name) == EXIT_OK
        outputs.append(sorted((f.name, f.read_bytes()) for f in (tmp_path / name).iterdir()))
    assert outputs[0] == outputs[1]


CALLS_HEADER = "person_id\tclone_id\tprob_dynamic\tcall\tdirection\n"
GOOD_CALLS = (
    "p1\ta\t0.9\tdynamic\tcontracting\n"
    "p1\tb\t0.1\tstatic\tna\n"
    "p2\ta\t0.8\tdynamic\texpanding\n"
    "p3\ta\t0.2\tstatic\tna\n"
    "p4\ta\t0.95\tdynamic\tcontracting\n"
)


class TestSummarizeRejectsBadCalls:
    """summarize checks calls.tsv rather than trusting it."""

    def summarize(self, tmp_path, rows):
        calls = tmp_path / "calls.tsv"
        calls.write_text(CALLS_HEADER + rows)
        strata = tmp_path / "strata.tsv"
        strata.write_text("person_id\tstratum\np1\t0\np2\t0\np3\t1\np4\t1\n")
        return run(
            "summarize", "--input", calls, "--strata", strata, "--cutoff-dynamic", 0,
            "--cutoff-direction", 0, "--output-dir", tmp_path / "sum",
        )

    def test_consistent_calls_pass(self, tmp_path):
        assert self.summarize(tmp_path, GOOD_CALLS) == EXIT_OK
        per_person = (tmp_path / "sum" / "per_person.tsv").read_text().splitlines()
        assert per_person[1:] == [
            "p1\t0\t1\t0\t1", "p2\t0\t1\t1\t0", "p3\t1\t0\t0\t0", "p4\t1\t1\t0\t1"
        ]

    @pytest.mark.parametrize(
        "row",
        [
            "p3\tb\t0.9\tdynamic\tna",
            "p3\tb\t0.1\tstatic\texpanding",
            "p3\tb\t0.1\tstatic\tcontracting",
            "p3\tb\tnan\tstatic\tna",
            "p3\tb\tinf\tdynamic\texpanding",
            "p3\tb\t1.5\tdynamic\texpanding",
            "p3\tb\t-0.1\tstatic\tna",
            "p1\ta\t0.9\tdynamic\tcontracting",
        ],
        ids=["dynamic-na", "static-expanding", "static-contracting", "nan", "inf", "above-1",
             "below-0", "duplicate"],
    )
    def test_inconsistent_row_exits_2_with_its_line(self, tmp_path, row, capsys):
        assert self.summarize(tmp_path, GOOD_CALLS + row + "\n") == EXIT_VALIDATION
        assert "line 7" in capsys.readouterr().err


@pytest.mark.parametrize("table", ["cohort", "strata"])
def test_field_beyond_the_csv_field_limit_exits_2_naming_file_and_line(tmp_path, table, capsys):
    long_id = "c" * 200_000  # csv.field_size_limit() is 131072 characters
    cohort, calls, strata = (tmp_path / f"{name}.tsv" for name in ("cohort", "calls", "strata"))
    cohort.write_text(COHORT + (f"p1\t0\t{long_id}\t3\n" if table == "cohort" else ""))
    calls.write_text(CALLS_HEADER + GOOD_CALLS)
    strata.write_text("person_id\tstratum\np1\t0\np2\t0\np3\t1\np4\t1\n" + (
        f"{long_id}\t0\n" if table == "strata" else ""
    ))
    if table == "cohort":
        code = run("fit", "--input", cohort, "--min-total-reads", 0, "--output-dir", tmp_path)
        where = f"line 7: {cohort}"
    else:
        code = run("summarize", "--input", calls, "--strata", strata, "--output-dir", tmp_path)
        where = f"line 6: {strata}"
    assert code == EXIT_VALIDATION
    assert f"{where}: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--alpha", "inf"),
        ("--alpha", "1e300"),
        ("--beta", "1e-300"),
        ("--offset-mean", "inf"),
        ("--offset-mean", "1e30"),
    ],
)
def test_simulate_rejects_parameters_it_cannot_draw_from(tmp_path, flag, value, capsys):
    code = run("simulate", "--n-clones", 20, "--n-persons", 2, flag, value,
               "--output-dir", tmp_path)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_summarize_cutoff_beyond_int64_exits_2(tmp_path, capsys):
    calls, strata = tmp_path / "calls.tsv", tmp_path / "strata.tsv"
    calls.write_text(CALLS_HEADER + GOOD_CALLS)
    strata.write_text("person_id\tstratum\np1\t0\np2\t0\np3\t1\np4\t1\n")
    code = run("summarize", "--input", calls, "--strata", strata, "--cutoff-dynamic",
               2**63, "--output-dir", tmp_path / "sum")
    assert code == EXIT_VALIDATION
    assert "64-bit integer" in capsys.readouterr().err


def test_unconverged_fit_warns_and_still_succeeds(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run("simulate", "--n-clones", 300, "--n-persons", 3, "--seed", 3,
               "--output-dir", sim) == EXIT_OK
    fit = ("fit", "--input", sim / "cohort.tsv", "--offsets", sim / "offsets.tsv",
           "--min-total-reads", 0)
    capsys.readouterr()
    assert run(*fit, "--output-dir", tmp_path / "done") == EXIT_OK
    assert capsys.readouterr().err == ""
    assert run(*fit, "--max-em-iters", 1, "--output-dir", tmp_path / "cut") == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning:") and "max_em_iters = 1" in err[0]
    assert read_keyvalues(tmp_path / "cut" / "hyperparams.txt")["converged"] == "false"


def test_simulate_builds_no_clone_series(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"simulate built a CloneSeries for {self.key}")

    monkeypatch.setattr(CloneSeries, "__post_init__", refuse)
    assert run("simulate", "--n-clones", 300, "--n-persons", 4, "--missing-rate", 0.2,
               "--seed", 3, "--output-dir", tmp_path) == EXIT_OK
    assert len((tmp_path / "truth.tsv").read_text().splitlines()) == 1 + 300


def test_summarize_warns_about_persons_without_calls(tmp_path, capsys):
    calls = tmp_path / "calls.tsv"
    calls.write_text(CALLS_HEADER + GOOD_CALLS)
    strata = tmp_path / "strata.tsv"
    strata.write_text("person_id\tstratum\np1\t0\np2\t0\np3\t1\np4\t1\np5\t0\np6\t1\n")
    capsys.readouterr()
    assert run(
        "summarize", "--input", calls, "--strata", strata, "--cutoff-dynamic", 0,
        "--cutoff-direction", 0, "--output-dir", tmp_path / "sum",
    ) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: 2 persons") and "['p5', 'p6']" in err[0]
    per_person = (tmp_path / "sum" / "per_person.tsv").read_text().splitlines()
    assert [row.split("\t")[0] for row in per_person[1:]] == ["p1", "p2", "p3", "p4"]


def test_summarize_rejects_calls_of_persons_without_a_stratum(tmp_path, capsys):
    calls = tmp_path / "calls.tsv"
    calls.write_text(CALLS_HEADER + GOOD_CALLS)
    strata = tmp_path / "strata.tsv"
    strata.write_text("person_id\tstratum\np3\t1\np1\t0\np2\t0\n")
    code = run("summarize", "--input", calls, "--strata", strata, "--cutoff-dynamic", 0,
               "--cutoff-direction", 0, "--output-dir", tmp_path / "sum")
    assert code == EXIT_VALIDATION
    assert "error: persons without a stratum: ['p4'] ...\n" == capsys.readouterr().err


def test_mean_proportion_is_exact_beyond_2_to_the_53(tmp_path):
    """Offsets of 4e18 overflow int64 when summed over three times; every
    mean_proportion must still be sum(counts) / sum(offsets), correctly rounded."""
    big = 4 * 10**18
    cohort = ["person_id\ttime_index\tclone_id\tcount"]
    offsets = ["person_id\ttime_index\ttotal_reads"]
    counts = {}
    for p in range(4):
        for t in range(3):
            offsets.append(f"p{p}\t{t}\t{big}")
            for c in range(30):
                n = 1 + (7 * p + 3 * c + 5 * t * (c % 4)) % 40
                cohort.append(f"p{p}\t{t}\tc{c:02d}\t{n}")
                counts.setdefault((f"p{p}", f"c{c:02d}"), []).append(n)
    (tmp_path / "cohort.tsv").write_text("\n".join(cohort) + "\n")
    (tmp_path / "offsets.tsv").write_text("\n".join(offsets) + "\n")
    inputs = ("--input", tmp_path / "cohort.tsv", "--offsets", tmp_path / "offsets.tsv",
              "--min-total-reads", 0)
    assert run("fit", *inputs, "--output-dir", tmp_path / "fit") == EXIT_OK
    assert run("classify", *inputs, "--responsibilities", tmp_path / "fit" / "responsibilities.tsv",
               "--output-dir", tmp_path / "cls") == EXIT_OK
    rows = (tmp_path / "cls" / "membership_points.tsv").read_text().splitlines()[1:]
    assert len(rows) == 120
    for row in rows:
        person, clone, mean, *_ = row.split("\t")
        assert float(mean) == sum(counts[(person, clone)]) / (3 * big), row


STAGE_IMPORTS = """
import sys
from clonedyn.cli import main
loaded = ["scipy" in sys.modules]
for argv in sys.argv[1:]:
    assert main(argv.split("|")) == 0, argv
    loaded.append("scipy" in sys.modules)
print(loaded)
"""


def scipy_loaded(*stages):
    """Whether scipy is in sys.modules after importing clonedyn.cli in a fresh
    interpreter, and after each stage (argv joined by |) run in it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import clonedyn

    env = dict(os.environ, PYTHONPATH=str(Path(clonedyn.__file__).parent.parent))
    argv = [sys.executable, "-c", STAGE_IMPORTS, *("|".join(map(str, s)) for s in stages)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy 2 imports np.random on first use; loading it at import would add
    its import time and ~6 MB of RSS to every stage."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import clonedyn

    probe = "import sys, clonedyn.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(clonedyn.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "False", done.stderr


def test_no_stage_imports_scipy(tmp_path):
    sim, fit, cls = tmp_path / "sim", tmp_path / "fit", tmp_path / "cls"
    inputs = ("--input", sim / "cohort.tsv", "--offsets", sim / "offsets.tsv",
              "--min-total-reads", 0)
    strata = tmp_path / "strata.tsv"
    strata.write_text("person_id\tstratum\n" + "".join(f"p{i:03d}\t{i % 2}\n" for i in range(4)))
    simulate = ("simulate", "--n-clones", 400, "--n-persons", 4, "--seed", 3, "--output-dir", sim)
    assert scipy_loaded(simulate) == "[False, False]"
    assert scipy_loaded(("fit", *inputs, "--output-dir", fit)) == "[False, False]"
    classify_ = ("classify", *inputs, "--responsibilities", fit / "responsibilities.tsv",
                 "--truth", sim / "truth.tsv", "--output-dir", cls)
    summarize = ("summarize", "--input", cls / "calls.tsv", "--strata", strata,
                 "--output-dir", tmp_path / "sum")
    assert scipy_loaded(classify_, summarize) == "[False, False, False]"


def test_offsets_list_only_the_person_times_the_cohort_names(tmp_path):
    """A person-time that every clone of its person missed is not written to
    offsets.tsv."""
    assert (
        run(
            "simulate",
            "--n-clones", 6,
            "--n-persons", 3,
            "--n-followups", 8,
            "--missing-rate", 0.9,
            "--seed", 5,
            "--output-dir", tmp_path,
        )
        == EXIT_OK
    )  # fmt: skip

    def person_times(name):
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()[1:]
        return [(person, int(time)) for person, time, *_ in (line.split("\t") for line in lines)]

    named = set(person_times("cohort.tsv"))
    assert len(named) < 3 * 8  # some person-time no clone of its person was seen at
    assert person_times("offsets.tsv") == sorted(named)
