"""Property tests of the packed cohort reader against a row-by-row reference.

Random cohorts have persons sampled at different times, clones missing
at some of their person's times, zero counts, and (optionally) an offsets
sidecar with person-times and persons that have no rows.  Block sizes
down to a few characters make records straddle the reader's blocks.
The columnar cohort and offsets writers are held to per-row references
on the same cohorts, shuffled.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clonedyn import CloneSeries, ParseError, ValidationError, filter_clones, ingest
from clonedyn import cohort as cohort_module
from clonedyn.cli import main
from clonedyn.cohort import offsets_from_series, write_cohort, write_offsets

from oracles import (
    RowParseError,
    RowValidationError,
    cohort_text_by_sort,
    offset_columns,
    offsets_by_walk,
    pack,
    row_filter,
    row_ingest,
)

HEADER = "person_id\ttime_index\tclone_id\tcount\n"
# short ids, and ids of more than one and more than two 8-byte words that
# share their first words, so that ranking compares later words
IDS = st.one_of(
    st.text(alphabet="abAB_1é", min_size=1, max_size=4),
    st.tuples(
        st.sampled_from(["abcdefgh", "abcdefghijklmnop"]), st.text(alphabet="abAB_1é", max_size=4)
    ).map("".join),
)
BLOCK_SIZES = [8, 64, 1 << 20]
BLOCK_CHARS = st.sampled_from(BLOCK_SIZES)
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def cohorts(draw):
    """(rows in file order, sampled times per person, offsets sidecar or None)."""
    persons = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    rows = []
    sampled = {}
    for person in persons:
        times = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)))
        sampled[person] = times
        for clone in draw(st.lists(IDS, min_size=1, max_size=5, unique=True)):
            observed = draw(st.lists(st.sampled_from(times), min_size=1, unique=True))
            rows.extend((person, t, clone, draw(st.integers(0, 40))) for t in observed)
    rows = draw(st.permutations(rows))
    sidecar = None
    if draw(st.booleans()):
        sidecar = {}
        for person, times in sampled.items():
            for t in times:
                recorded = sum(n for p, tt, _c, n in rows if (p, tt) == (person, t))
                sidecar[(person, t)] = recorded + draw(st.integers(0 if recorded else 1, 50))
        if draw(st.booleans()):
            sidecar[("zz-no-rows", 0)] = 10
    return rows, sampled, sidecar


def cohort_text(rows) -> str:
    return HEADER + "".join(f"{p}\t{t}\t{c}\t{n}\n" for p, t, c, n in rows)


def outcome(fn):
    """The result of fn, or the kind, text and line of the error it raised."""
    try:
        return ("ok", fn())
    except (ParseError, RowParseError) as exc:
        return ("parse", str(exc), exc.line)
    except (ValidationError, RowValidationError) as exc:
        return ("invalid", str(exc))


def packed_clones(path, offsets_path, min_total_reads, absent_as_zero):
    kept = filter_clones(ingest(path, offsets_path), min_total_reads, absent_as_zero)
    return [
        (s.person_id, s.clone_id, s.times.tolist(), s.counts.tolist(), s.offsets.tolist())
        for s in kept
    ]


def write_inputs(root: Path, text: str, sidecar):
    path = root / "cohort.tsv"
    path.write_text(text, encoding="utf-8", newline="")
    offsets_path = None
    if sidecar is not None:
        offsets_path = root / "offsets.tsv"
        write_offsets(offsets_path, offset_columns(sidecar))
    return path, offsets_path


@SETTINGS
@given(
    cohorts(), st.integers(0, 60), st.booleans(), BLOCK_CHARS
)
def test_packed_ingest_and_filter_match_the_row_reference(
    cohort, min_total_reads, absent_as_zero, block_chars
):
    rows, _sampled, sidecar = cohort
    with tempfile.TemporaryDirectory() as root:
        path, offsets_path = write_inputs(Path(root), cohort_text(rows), sidecar)
        expected = outcome(
            lambda: row_filter(*row_ingest(path, offsets_path), min_total_reads, absent_as_zero)
        )
        with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
            actual = outcome(
                lambda: packed_clones(path, offsets_path, min_total_reads, absent_as_zero)
            )
    assert actual == expected


@settings(SETTINGS, max_examples=20)  # two CLI fits per example
@given(cohorts(), st.randoms(use_true_random=False), st.booleans())
def test_shuffled_rows_give_the_same_packed_cohort_and_fit(cohort, rnd, absent_as_zero):
    rows, _sampled, sidecar = cohort
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    flag = "--absent-as-zero" if absent_as_zero else "--no-absent-as-zero"
    results = []
    with tempfile.TemporaryDirectory() as root:
        for name, order in (("a", rows), ("b", shuffled)):
            base = Path(root) / name
            base.mkdir()
            path, offsets_path = write_inputs(base, cohort_text(order), sidecar)
            # an error may name another record when the rows come in another order
            packed = outcome(lambda: filter_clones(ingest(path, offsets_path), 0, absent_as_zero))
            if packed[0] == "ok":
                c = packed[1]
                packed = [c.person_id, c.clone_id, c.starts, c.counts, c.offsets, c.times]
            else:
                packed = packed[0]
            argv = ["fit", "--input", str(path), "--min-total-reads", "0", flag]
            if offsets_path is not None:
                argv += ["--offsets", str(offsets_path)]
            code = main(argv + ["--max-em-iters", "20", "--output-dir", str(base / "fit")])
            outputs = sorted(
                (f.name, f.read_bytes()) for f in (base / "fit").glob("*") if code == 0
            )
            results.append((packed, code, outputs))
    (packed_a, code_a, out_a), (packed_b, code_b, out_b) = results
    if isinstance(packed_a, list):
        assert all(np.array_equal(x, y) for x, y in zip(packed_a, packed_b))
    else:
        assert packed_a == packed_b
    assert (code_a, out_a) == (code_b, out_b)


@SETTINGS
@given(cohorts(), BLOCK_CHARS)
def test_write_cohort_then_ingest_round_trips(cohort, block_chars):
    rows, sampled, _sidecar = cohort
    by_clone = {}
    for p, t, c, n in sorted(rows):
        by_clone.setdefault((p, c), []).append((t, n))
    totals = {(p, t): 1000 for p, times in sampled.items() for t in times}
    series = [
        CloneSeries(
            clone_id=c,
            person_id=p,
            counts=[n for _t, n in obs],
            offsets=[totals[(p, t)] for t, _n in obs],
            times=[t for t, _n in obs],
        )
        for (p, c), obs in by_clone.items()
    ]
    random.Random(len(rows)).shuffle(series)
    with tempfile.TemporaryDirectory() as root:
        first, offsets_path = Path(root) / "first.tsv", Path(root) / "offsets.tsv"
        write_cohort(first, pack(series))
        write_offsets(offsets_path, offset_columns(totals))
        with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
            table = ingest(first, offsets_path)
        rebuilt = filter_clones(table, 0, absent_as_zero=False)
        second = Path(root) / "second.tsv"
        write_cohort(second, rebuilt)
        assert second.read_bytes() == first.read_bytes()
    assert sorted(table.rows) == sorted(rows)
    assert [s.key for s in rebuilt] == sorted(s.key for s in series)
    for s in rebuilt:
        original = next(o for o in series if o.key == s.key)
        assert np.array_equal(s.counts, original.counts)
        assert np.array_equal(s.offsets, original.offsets)
        assert np.array_equal(s.times, original.times)


MALFORMED = [
    "p\tx\tc\t1",  # non-integer time
    "p\t0\tc\t-4",  # negative count
    "p\t0\tc\t99999999999999999999",  # count beyond int64
    "p\t99999999999999999999\tc\t1",  # time beyond int64
    "p\t0\tc",  # too few fields
    "p\t0\tc\t1\t2",  # too many fields
    "",  # blank record: skipped, but counted in line numbers
    '"p"\t0\t"c"\t7',  # quoted fields: csv.reader unquotes them
    '"p\tq"\t0\tc\t7',  # a quoted tab: no table could be written with this id
    'p\t0\t"""c"\t7',  # an id starting with a quote: written back, it would read as quoted
    "p\t0\tc\r\t1",  # a lone carriage return ends a record
]


@SETTINGS
@given(
    cohorts(),
    st.lists(
        st.tuples(st.integers(0, 10_000), st.sampled_from(MALFORMED + ["duplicate"] * 4)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    BLOCK_CHARS,
)
def test_malformed_records_fail_on_the_same_line_as_the_row_reference(
    cohort, damage, crlf, block_chars
):
    rows, _sampled, sidecar = cohort
    lines = [f"{p}\t{t}\t{c}\t{n}" for p, t, c, n in rows]
    for position, record in damage:
        at = position % (len(lines) + 1)
        if record == "duplicate":
            record = lines[position % len(lines)]
        lines.insert(at, record)
    newline = "\r\n" if crlf else "\n"
    text = HEADER.replace("\n", newline) + "".join(line + newline for line in lines)
    with tempfile.TemporaryDirectory() as root:
        path, offsets_path = write_inputs(Path(root), text, sidecar)
        expected = outcome(lambda: row_filter(*row_ingest(path, offsets_path), 0, True))
        with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
            actual = outcome(lambda: packed_clones(path, offsets_path, 0, True))
    assert actual == expected


# ids that are byte-prefixes of one another (also ones that fill a word
# exactly), are empty, hold NUL, sort by code point beyond ASCII, or are
# wider than one word or than the fixed-width sort keys
EDGE_IDS = st.sampled_from(
    ["a", "ab", "a\x00", "a\x00b", "\x00", "", "é", "z", "😀", "zé"]
    + ["abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq"]
    + ["y" * 20, "y" * 20 + "\x00", "y" * 20 + "z", "x" * 70, "x" * 70 + "é", "x" * 71]
)
# a NUL-ended id right after the same id without it, as person and as
# clone, and two ids of one length that differ only in their third word
NEIGHBOURS = HEADER + "".join(
    f"{p}\t{t}\t{c}\t{n}\n"
    for p, t, c, n in [
        ("p", 0, "a", 1),
        ("p", 0, "a\x00", 2),
        ("p", 1, "a", 3),
        ("a", 0, "z", 1),
        ("a\x00", 0, "z", 2),
        ("p", 2, "y" * 20 + "\x00", 1),
        ("p", 2, "y" * 20 + "z", 2),
    ]
)


def word_prefixes(same_person_time):
    """An 8-byte id and its 9-byte extension, as clones at one person-time
    or at different ones, and a 16-byte person id with its 17-byte extension."""
    time = 0 if same_person_time else 1
    return HEADER + "".join(
        f"{p}\t{t}\t{c}\t{n}\n"
        for p, t, c, n in [
            ("p", 0, "clone_12", 1),
            ("p", time, "clone_123", 2),
            ("abcdefghijklmnop", 0, "clone_12", 3),
            ("abcdefghijklmnopq", 0, "clone_12", 4),
        ]
    )


# spellings int() accepts that are not plain ASCII digits, and the int64 edge
SPELLED = ["+7", " 7", "7 ", "0_7", "٧", "007", "9223372036854775807"]
EDGE_TIMES = st.one_of(st.integers(0, 40).map(str), st.sampled_from(SPELLED + ["0", "-0"]))
EDGE_COUNTS = st.one_of(st.integers(1, 40).map(str), st.sampled_from(SPELLED))
TOO_BIG = "9223372036854775808"


@st.composite
def edge_cohorts(draw):
    """Text of a cohort with edge-case ids and integer spellings, records in
    random order, with or without a final newline."""
    keys = draw(st.lists(st.tuples(EDGE_IDS, EDGE_TIMES, EDGE_IDS), min_size=1, max_size=12))
    records = [f"{p}\t{t}\t{c}\t{draw(EDGE_COUNTS)}" for p, t, c in keys]
    if draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), f"a\t0\tb\t{TOO_BIG}")
    text = HEADER + "\n".join(records)
    return text + "\n" if draw(st.booleans()) else text


@SETTINGS
@given(edge_cohorts(), st.booleans())
@example(NEIGHBOURS, False)
@example(word_prefixes(same_person_time=True), False)
@example(word_prefixes(same_person_time=False), True)
@example(HEADER + f"a\t0\tb\t{TOO_BIG}\n", True)
@example(HEADER + "a\t9223372036854775807\tb\t9223372036854775807", True)
def test_byte_path_edge_cases_match_the_row_reference_at_every_block_size(text, absent_as_zero):
    with tempfile.TemporaryDirectory() as root:
        path, _ = write_inputs(Path(root), text, None)
        expected = outcome(lambda: row_filter(*row_ingest(path), 0, absent_as_zero))
        for block_chars in BLOCK_SIZES:
            with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
                actual = outcome(lambda: packed_clones(path, None, 0, absent_as_zero))
            assert actual == expected, block_chars


def shuffled_series(rows, rnd, bumps=0):
    """One CloneSeries per clone of rows, in random order, with every offset
    1000 except at `bumps` random observations, each raised by one."""
    by_clone = {}
    for p, t, c, n in rows:
        by_clone.setdefault((p, c), []).append((t, n))
    series = [
        [p, c, [n for _t, n in sorted(obs)], [1000] * len(obs), [t for t, _n in sorted(obs)]]
        for (p, c), obs in by_clone.items()
    ]
    rnd.shuffle(series)
    for _ in range(bumps):
        offsets = rnd.choice(series)[3]
        offsets[rnd.randrange(len(offsets))] += 1
    return [CloneSeries(c, p, counts, offsets, times) for p, c, counts, offsets, times in series]


@SETTINGS
@given(cohorts(), st.randoms(use_true_random=False))
def test_columnar_writers_match_the_per_row_reference_on_shuffled_series(cohort, rnd):
    series = shuffled_series(cohort[0], rnd)
    packed = pack(series)
    with tempfile.TemporaryDirectory() as root:
        write_cohort(Path(root) / "cohort.tsv", packed)
        text = (Path(root) / "cohort.tsv").read_text(encoding="utf-8")
    assert text == cohort_text_by_sort(series)
    derived, walked = offsets_from_series(packed), offset_columns(offsets_by_walk(series))
    assert [c.tolist() for c in derived] == [c.tolist() for c in walked]


@SETTINGS
@given(cohorts(), st.randoms(use_true_random=False), st.integers(1, 3))
def test_conflicting_offsets_fail_as_the_per_row_reference_does(cohort, rnd, bumps):
    series = shuffled_series(cohort[0], rnd, bumps)
    expected = outcome(lambda: [c.tolist() for c in offset_columns(offsets_by_walk(series))])
    if expected[0] != "ok":  # two offsets at one person-time: no person-time table holds them
        expected = ("invalid", "person-time rows must increase in (person, time)")
    assert outcome(lambda: [c.tolist() for c in offsets_from_series(pack(series))]) == expected


# ids of 0 to 40 UTF-8 bytes: with NUL, two- and four-byte characters, and
# first words shared over 8 and 16 bytes
RANKED_IDS = st.tuples(
    st.sampled_from(["", "abcdefgh", "abcdefghijklmnop", "éééé", "😀😀"]),
    st.text(alphabet=["\x00", "a", "b", "z", "é", "😀"], max_size=6),
).map("".join)


@SETTINGS
@given(
    st.lists(st.tuples(RANKED_IDS, st.integers(1, 3)), max_size=40),
    st.lists(st.integers(0, 120), max_size=5),
)
@example(  # ids that end where a word ends, before longer ones with the same words
    [("abcdefghijklmnop", 1), ("abcdefghijklmnopa", 2), ("abcdefgh", 1), ("abcdefgh\x00", 1)],
    [],
)
def test_id_ranking_gives_the_sorted_distinct_ids_and_each_ones_rank(runs, cuts):
    ids = [i for i, repeats in runs for _ in range(repeats)]  # runs of repeats
    assert all(len(i.encode("utf-8")) <= 40 for i in ids)
    cuts = sorted(cut % (len(ids) + 1) for cut in cuts)
    column = cohort_module._IdColumn()
    for lo, hi in zip([0, *cuts], [*cuts, len(ids)]):  # random blocks, some empty
        fields = [i.encode("utf-8") for i in ids[lo:hi]]
        lengths = np.array([len(f) for f in fields], dtype=np.int64)
        raw = np.frombuffer(b"".join(fields) + bytes(8), np.uint8)
        column.add(raw, np.cumsum(lengths) - lengths, np.cumsum(lengths))
    distinct, rank = column.ranked()
    expected = sorted(set(ids))
    assert distinct.decode(np.arange(len(distinct))).tolist() == expected
    assert [expected[r] for r in rank.tolist()] == ids
