"""Cohort ingestion, offset derivation, filtering, and file round trips."""

import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from clonedyn import CloneSeries, ParseError, SimConfig, ValidationError, filter_clones, ingest, simulate
from clonedyn import cohort as cohort_module
from clonedyn.cohort import (
    offsets_from_series,
    read_offsets,
    read_strata,
    read_truth_labels,
    write_cohort,
    write_offsets,
    write_table,
    write_truth,
)

from oracles import pack, row_filter, row_ingest, write_strata


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "person_id\ttime_index\tclone_id\tcount\n"


class TestIngest:
    def test_offsets_are_per_person_time_sums(self, tmp_path):
        path = write(
            tmp_path / "cohort.tsv",
            HEADER + "p1\t0\ta\t3\np1\t0\tb\t7\np1\t1\ta\t5\n",
        )
        table = ingest(path)
        assert (table.pt_person.tolist(), table.pt_time.tolist()) == (["p1", "p1"], [0, 1])
        assert table.pt_total.tolist() == [10, 5]

    def test_empty_file_is_an_error(self, tmp_path):
        with pytest.raises(ValidationError):
            ingest(write(tmp_path / "empty.tsv", ""))
        with pytest.raises(ValidationError):
            ingest(write(tmp_path / "header_only.tsv", HEADER))

    def test_duplicate_key_reports_line(self, tmp_path):
        path = write(
            tmp_path / "dup.tsv", HEADER + "p1\t0\ta\t3\np1\t0\ta\t4\n"
        )
        with pytest.raises(ParseError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 3

    def test_first_repeat_in_file_order_is_reported(self, tmp_path):
        path = write(
            tmp_path / "dup.tsv",
            HEADER + "p1\t0\tb\t1\np1\t0\ta\t1\np1\t0\tb\t2\np1\t0\ta\t3\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 4
        assert "('p1', 0, 'b')" in str(excinfo.value)

    def test_repeat_before_an_unparsable_record_is_reported_first(self, tmp_path):
        path = write(
            tmp_path / "dup.tsv",
            HEADER + "p1\t0\ta\t1\np1\t0\ta\t2\np1\t1\ta\tx\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 3

    def test_wrong_field_count_anywhere_is_reported_before_values(self, tmp_path):
        path = write(
            tmp_path / "fields.tsv",
            HEADER + "p1\t0\ta\tx\np1\t0\ta\t1\np1\t1\n",
        )
        with pytest.raises(ParseError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 4

    def test_ids_take_their_own_length_not_the_longest(self, tmp_path):
        # CDR3-like 90-character clone ids and one 20k-character outlier:
        # an id padded to the longest one would need ~240 MB here
        clones = [f"{i:06d}" + "ACGT" * 21 for i in range(1500)] + ["C" * 20_000]
        rows = [f"p{i % 3}\t{t}\t{c}\t{i % 7 + t}" for i, c in enumerate(clones) for t in (0, 1)]
        path = write(tmp_path / "long.tsv", HEADER + "\n".join(reversed(rows)) + "\n")
        tracemalloc.start()
        try:
            kept = filter_clones(ingest(path), min_total_reads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6
        expected = sorted((f"p{i % 3}", c) for i, c in enumerate(clones))
        assert [s.key for s in kept] == expected
        outlier = kept[[s.clone_id for s in kept].index("C" * 20_000)]
        assert outlier.counts.tolist() == [1500 % 7, 1500 % 7 + 1]

    def test_ingest_holds_a_bounded_number_of_bytes_per_record(self, tmp_path):
        # shaped like a sequenced repertoire: per person-time, 250 tracked
        # clones among 8000 one-record 8-byte ids that the filter drops.
        # Small blocks keep the per-block working set out of the figure.
        # Ingest and filter peak at ~76 bytes per record; holding int64
        # temporaries over all records, as a reader can, reaches ~157.
        rows = []
        for p in range(4):
            for t in range(3):
                rows += [f"p{p}\t{t}\tc{p}{i:06d}\t{50 + i}" for i in range(250)]
                rows += [f"p{p}\t{t}\tr{p}{t}{i:05d}\t{1 + i % 2}" for i in range(8000)]
        path = write(tmp_path / "cohort.tsv", HEADER + "\n".join(rows) + "\n")
        with mock.patch.object(cohort_module, "BLOCK_CHARS", 1 << 16):
            tracemalloc.start()
            try:
                kept = filter_clones(ingest(path), min_total_reads=8)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 100 * len(rows)
        assert len(kept) == 4 * 250 and all(s.times.tolist() == [0, 1, 2] for s in kept)

    @pytest.mark.parametrize("block_chars", [4096, cohort_module.BLOCK_CHARS])
    def test_plain_ascii_cohort_needs_neither_csv_reader_nor_int(self, tmp_path, block_chars):
        # shaped like a sequenced repertoire: per person and time, tracked
        # clones with many reads among rare one- or two-read ones
        rng = np.random.default_rng(3)
        rows = []
        for p in range(4):
            for t in range(3):
                reads = rng.integers(5, 900, 40).tolist()
                tracked = [(f"c{p:03d}{i:03d}", n) for i, n in enumerate(reads)]
                rare = [(f"r{p:03d}{t}{i:04d}", int(rng.integers(1, 3))) for i in range(300)]
                rows += [f"p{p:03d}\t{t}\t{c}\t{n}" for c, n in sorted(tracked + rare)]
        path = write(tmp_path / "cohort.tsv", HEADER + "\n".join(rows) + "\n")
        expected = row_filter(*row_ingest(path), 8, True)
        with (
            mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars),
            mock.patch.object(cohort_module, "_columns", side_effect=AssertionError("csv ran")),
            mock.patch.object(cohort_module, "_csv_blocks", side_effect=AssertionError("csv ran")),
            mock.patch.object(cohort_module, "_int_values", side_effect=AssertionError("int ran")),
        ):
            kept = filter_clones(ingest(path), min_total_reads=8)
        actual = [
            (s.person_id, s.clone_id, s.times.tolist(), s.counts.tolist(), s.offsets.tolist())
            for s in kept
        ]
        assert actual == expected

    def test_negative_count_reports_line(self, tmp_path):
        path = write(tmp_path / "neg.tsv", HEADER + "p1\t0\ta\t-3\n")
        with pytest.raises(ParseError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 2

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "bad.tsv", "a\tb\tc\td\np1\t0\ta\t3\n")
        with pytest.raises(ParseError):
            ingest(path)

    def test_explicit_offsets_override_sums(self, tmp_path):
        cohort = write(tmp_path / "cohort.tsv", HEADER + "p1\t0\ta\t3\n")
        offsets = write(
            tmp_path / "offsets.tsv", "person_id\ttime_index\ttotal_reads\np1\t0\t5000\n"
        )
        table = ingest(cohort, offsets_path=offsets)
        assert (table.pt_person.tolist(), table.pt_time.tolist()) == (["p1"], [0])
        assert table.pt_total.tolist() == [5000]

    def test_explicit_offsets_must_cover_and_dominate(self, tmp_path):
        cohort = write(tmp_path / "cohort.tsv", HEADER + "p1\t0\ta\t3\np1\t1\ta\t9\n")
        missing = write(
            tmp_path / "missing.tsv", "person_id\ttime_index\ttotal_reads\np1\t0\t100\n"
        )
        with pytest.raises(ValidationError):
            ingest(cohort, offsets_path=missing)
        too_small = write(
            tmp_path / "small.tsv",
            "person_id\ttime_index\ttotal_reads\np1\t0\t100\np1\t1\t5\n",
        )
        with pytest.raises(ValidationError):
            ingest(cohort, offsets_path=too_small)


class TestFilterClones:
    def build(self, tmp_path):
        return ingest(
            write(
                tmp_path / "cohort.tsv",
                HEADER
                + "p1\t0\ta\t3\n"
                + "p1\t1\ta\t4\n"
                + "p1\t0\tb\t8\n"
                + "p1\t1\tc\t20\n",
            )
        )

    def test_total_below_minimum_excluded(self, tmp_path):
        series = filter_clones(self.build(tmp_path), min_total_reads=8)
        kept = {s.clone_id for s in series}
        assert kept == {"b", "c"}  # clone a totals 7

    def test_total_at_minimum_included(self, tmp_path):
        series = filter_clones(self.build(tmp_path), min_total_reads=7)
        assert {s.clone_id for s in series} == {"a", "b", "c"}

    def test_offsets_unaffected_by_filtering(self, tmp_path):
        series = filter_clones(self.build(tmp_path), min_total_reads=20)
        (c,) = series
        assert c.clone_id == "c"
        # offsets still include the filtered clones' reads
        assert c.offsets.tolist() == [11, 24]

    def test_absent_as_zero_fills_sampled_times(self, tmp_path):
        series = filter_clones(self.build(tmp_path), min_total_reads=8, absent_as_zero=True)
        by_id = {s.clone_id: s for s in series}
        assert by_id["b"].times.tolist() == [0, 1]
        assert by_id["b"].counts.tolist() == [8, 0]
        assert by_id["c"].counts.tolist() == [0, 20]

    def test_absent_stays_missing_when_disabled(self, tmp_path):
        series = filter_clones(self.build(tmp_path), min_total_reads=8, absent_as_zero=False)
        by_id = {s.clone_id: s for s in series}
        assert by_id["b"].times.tolist() == [0]
        assert by_id["c"].times.tolist() == [1]

    def test_filtered_count_matches_recount(self, tmp_path):
        clones = simulate(SimConfig(n_clones=2000, n_persons=5, seed=33))[0]
        path = tmp_path / "sim.tsv"
        offsets_path = tmp_path / "offsets.tsv"
        write_cohort(path, clones)
        write_offsets(offsets_path, offsets_from_series(clones))
        table = ingest(path, offsets_path=offsets_path)
        kept = filter_clones(table, min_total_reads=8, absent_as_zero=False)
        expected = sum(1 for s in clones if int(s.counts.sum()) >= 8)
        assert len(kept) == expected


class TestRoundTrips:
    def test_emit_ingest_emit_is_byte_identical(self, tmp_path):
        clones = simulate(SimConfig(n_clones=500, n_persons=4, missing_rate=0.2, seed=12))[0]
        first = tmp_path / "first.tsv"
        write_cohort(first, clones)
        table = ingest(first)
        second = tmp_path / "second.tsv"
        write_cohort(second, filter_clones(table, 0, absent_as_zero=False))
        assert first.read_bytes() == second.read_bytes()

    def test_simulate_emit_ingest_reproduces_series(self, tmp_path):
        clones, truth, _ = simulate(
            SimConfig(n_clones=800, n_persons=5, missing_rate=0.25, seed=13)
        )
        cohort_path = tmp_path / "cohort.tsv"
        offsets_path = tmp_path / "offsets.tsv"
        truth_path = tmp_path / "truth.tsv"
        write_cohort(cohort_path, clones)
        write_offsets(offsets_path, offsets_from_series(clones))
        write_truth(truth_path, truth)

        table = ingest(cohort_path, offsets_path=offsets_path)
        rebuilt = filter_clones(table, min_total_reads=0, absent_as_zero=False)
        original = sorted(clones, key=lambda s: s.key)
        assert len(rebuilt) == len(original)
        for a, b in zip(original, rebuilt):
            assert a.key == b.key
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.times, b.times)

        labels = read_truth_labels(truth_path)
        for column in ("person_id", "clone_id", "dynamic"):
            assert np.array_equal(getattr(labels, column), getattr(truth, column)), column
        for read, derived in zip(read_offsets(offsets_path), offsets_from_series(clones)):
            assert read.dtype == derived.dtype
            assert np.array_equal(read, derived)

    def test_offsets_and_strata_round_trip(self, tmp_path):
        offsets = (
            np.array(["p1", "p1", "p2"], dtype=object),
            np.array([0, 1, 0]),
            np.array([100, 250, 70]),
        )
        opath = tmp_path / "offsets.tsv"
        write_offsets(opath, offsets)
        for read, written in zip(read_offsets(opath), offsets):
            assert np.array_equal(read, written)

        strata = {"p1": 0, "p2": 1}
        spath = tmp_path / "strata.tsv"
        write_strata(spath, strata)
        person, stratum = read_strata(spath)
        assert dict(zip(person.tolist(), stratum.tolist())) == strata
        assert stratum.dtype == np.int64


def test_conflicting_offsets_in_series_rejected():
    a = CloneSeries(clone_id="a", person_id="p", counts=[1], offsets=[10])
    b = CloneSeries(clone_id="b", person_id="p", counts=[1], offsets=[20])
    with pytest.raises(ValidationError):
        offsets_from_series(pack([a, b]))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_outputs_are_created_with_the_umask_mode(tmp_path, umask):
    previous = os.umask(umask)
    try:
        path = tmp_path / "table.tsv"
        write_table(path, {"a": ["1"], "b": ["2"]})
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert path.read_text() == "a\tb\n1\t2\n"


def test_outputs_are_synced_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", info.st_ino, info.st_size if stat.S_ISREG(info.st_mode) else None))
        fsync(fd)

    def recording_replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    path = tmp_path / "table.tsv"
    write_table(path, {"a": ["1"], "b": ["2"]})
    written = path.stat()
    assert events == [
        ("fsync", written.st_ino, written.st_size),  # the whole temp file, before the rename
        ("replace", written.st_ino, written.st_size),
        ("fsync", tmp_path.stat().st_ino, None),  # then the directory holding the new name
    ]
