"""Property tests of the columnar sidecar readers and of vectorized slope signs.

responsibilities.tsv, calls.tsv, truth.tsv, offsets.tsv and strata.tsv
tables are made from random cohorts, written in canonical or shuffled
order, and damaged with malformed records; the columnar readers must
return what the per-row references in oracles.py return, or fail with
the same message on the same line.  Call directions of many series classified at once must equal
the sign of _ols_slope on each series alone.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clonedyn import CloneSeries, Direction, classify
from clonedyn.classify import _ols_slope
from clonedyn.cli import read_calls, read_responsibilities
from clonedyn.cohort import read_offsets, read_strata, read_truth_labels

from oracles import (
    pack,
    read_calls_by_row,
    read_offsets_by_row,
    read_responsibilities_by_row,
    read_strata_by_row,
    read_truth_labels_by_row,
)
from test_ingest_props import IDS, SETTINGS, cohorts, outcome

PROBS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.75, 5e-324, 1.0 - 2.0**-53])
)
CALL_TEXT = ["dynamic\texpanding", "dynamic\tcontracting", "static\tna"]


@st.composite
def tables(draw, kind: str):
    """(header, record lines, valid values) of a random responsibilities, calls
    or truth table, records in canonical or shuffled order."""
    rows, _sampled, _sidecar = draw(cohorts())
    n_times: dict[tuple[str, str], int] = {}
    for p, _t, c, _n in rows:
        n_times[(p, c)] = n_times.get((p, c), 0) + 1
    keys = sorted(n_times)
    if draw(st.booleans()):
        keys = draw(st.permutations(keys))
    if kind == "responsibilities":
        header = "person_id\tclone_id\tn_times\tprob_dynamic"
        lines = [f"{p}\t{c}\t{n_times[(p, c)]}\t{draw(PROBS)!r}" for p, c in keys]
    elif kind == "calls":
        header = "person_id\tclone_id\tprob_dynamic\tcall\tdirection"
        lines = [f"{p}\t{c}\t{draw(PROBS)!r}\t{draw(st.sampled_from(CALL_TEXT))}" for p, c in keys]
    else:
        header = "person_id\tclone_id\tdynamic"
        lines = [f"{p}\t{c}\t{draw(st.sampled_from('01'))}" for p, c in keys]
    return header, lines


MALFORMED = {
    "responsibilities": [
        "p\tc\t2\tabc",  # not a number
        "p\tc\t2\t",
        "p\tc\t2\tnan",  # outside [0, 1]
        "p\tc\t2\tinf",
        "p\tc\t2\t-0.5",
        "p\tc\t2\t1.5",
        "p\tc\t0\t0.5",  # n_times below 1
        "p\tc\t-3\t0.5",
        "p\tc\tx\t0.5",  # n_times not an integer
        "p\tc\t1.5\t0.5",
        "p\tc\t99999999999999999999\t0.5",  # n_times beyond int64
        "p\tc\tx\tabc",  # two faults: the first check's message wins
    ],
    "calls": [
        "p\tc\tabc\tstatic\tna",
        "p\tc\tnan\tstatic\tna",
        "p\tc\t-inf\tdynamic\texpanding",
        "p\tc\t1.0000001\tdynamic\tcontracting",
        "p\tc\t0.9\tdynamic\tna",  # a dynamic call needs a direction
        "p\tc\t0.1\tstatic\texpanding",  # a static call has none
        "p\tc\t0.1\tmaybe\tna",
        "p\tc\tabc\tdynamic\tna",
    ],
    "truth": [
        "p\tc\t2",
        "p\tc\t7",
        "p\tc\t-1",
        "p\tc\tx",
        "p\tc\t99999999999999999999",
    ],
}
READERS = {
    "responsibilities": (
        lambda path: [a.tolist() for a in vars(read_responsibilities(path)).values()],
        read_responsibilities_by_row,
    ),
    "calls": (lambda path: list(read_calls(path)), read_calls_by_row),
    "truth": (
        lambda path: [a.tolist() for a in vars(read_truth_labels(path)).values()],
        read_truth_labels_by_row,
    ),
}


def read_both(kind: str, header: str, lines: list[str]):
    columnar, by_row = READERS[kind]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "table.tsv"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return outcome(lambda: columnar(path)), outcome(lambda: by_row(path))


@SETTINGS
@given(st.sampled_from(sorted(READERS)), st.data())
def test_columnar_readers_match_the_row_references_on_valid_tables(kind, data):
    header, lines = data.draw(tables(kind))
    actual, expected = read_both(kind, header, lines)
    assert expected[0] == "ok"
    if kind == "responsibilities":
        expected = ("ok", [list(column) for column in expected[1]])
    assert actual == expected


@SETTINGS
@given(st.sampled_from(sorted(READERS)), st.data())
def test_malformed_records_fail_on_the_same_line_as_the_row_reference(kind, data):
    header, lines = data.draw(tables(kind))
    records = st.sampled_from(MALFORMED[kind] + ["duplicate"])
    damage = st.lists(st.tuples(st.integers(0, 10_000), records), min_size=1, max_size=3)
    for position, record in data.draw(damage):
        if record == "duplicate":
            record = lines[position % len(lines)]
        lines.insert(position % (len(lines) + 1), record)
    actual, expected = read_both(kind, header, lines)
    assert actual == expected


@st.composite
def person_tables(draw, kind: str):
    """(header, record lines) of a random offsets or strata table with at least
    two records, in canonical, reversed or shuffled order."""
    persons = draw(st.lists(IDS, min_size=2, max_size=5, unique=True))
    if kind == "offsets":
        header = "person_id\ttime_index\ttotal_reads"
        times = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)
        lines = [
            f"{p}\t{t}\t{draw(st.integers(1, 10**6))}" for p in persons for t in draw(times)
        ]
    else:
        header = "person_id\tstratum"
        lines = [f"{p}\t{draw(st.sampled_from('01'))}" for p in persons]
    lines.sort()
    order = draw(st.sampled_from(["canonical", "reversed", "shuffled"]))
    if order == "reversed":  # never canonical, however few the records
        lines.reverse()
    elif order == "shuffled":
        lines = draw(st.permutations(lines))
    return header, list(lines)


PERSON_MALFORMED = {
    "offsets": [
        "p\tx\t5",  # time not an integer
        "p\t-1\t5",
        "p\t99999999999999999999\t5",
        "p\t0\t0",  # total_reads below 1
        "p\t0\tx",
        "p\t0\t99999999999999999999",
        "p\tx\t0",  # two faults: the time's message wins
    ],
    "strata": ["p\t2", "p\t-1", "p\tx", "p\t99999999999999999999"],
}
def offsets_columns_by_row(path):
    """read_offsets_by_row as sorted person, time and total columns."""
    rows = sorted((p, t, n) for (p, t), n in read_offsets_by_row(path).items())
    return [[row[j] for row in rows] for j in range(3)]


PERSON_READERS = {
    "offsets": (lambda path: [a.tolist() for a in read_offsets(path)], offsets_columns_by_row),
    "strata": (
        lambda path: list(zip(*(column.tolist() for column in read_strata(path)))),
        lambda path: list(read_strata_by_row(path).items()),
    ),
}


@SETTINGS
@given(st.sampled_from(sorted(PERSON_READERS)), st.data(), st.booleans())
def test_offsets_and_strata_readers_match_the_row_references(kind, data, damaged):
    header, lines = data.draw(person_tables(kind))
    if damaged:
        records = st.sampled_from(PERSON_MALFORMED[kind] + ["duplicate"])
        damage = st.lists(st.tuples(st.integers(0, 10_000), records), min_size=1, max_size=3)
        for position, record in data.draw(damage):
            if record == "duplicate":
                record = lines[position % len(lines)]
            lines.insert(position % (len(lines) + 1), record)
    columnar, by_row = PERSON_READERS[kind]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "table.tsv"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        actual, expected = outcome(lambda: columnar(path)), outcome(lambda: by_row(path))
    assert damaged or expected[0] == "ok"
    assert actual == expected


@st.composite
def trend_series(draw):
    """Times, counts and offsets of one series: random, flat (every proportion
    exactly equal) or near-flat (counts one apart on large offsets)."""
    n = draw(st.integers(1, 12))
    start = draw(st.sampled_from([0, 3, 1000, 2**40]))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    times = (start + np.cumsum(gaps) - gaps[0]).tolist()
    shape = draw(st.sampled_from(["random", "flat", "near-flat"]))
    if shape == "random":
        offsets = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        counts = [draw(st.integers(0, o)) for o in offsets]
    elif shape == "flat":
        ratio = draw(st.tuples(st.integers(0, 50), st.integers(50, 10**4)))
        scale = draw(st.lists(st.integers(1, 10**5), min_size=n, max_size=n))
        counts = [ratio[0] * k for k in scale]
        offsets = [ratio[1] * k for k in scale]
    else:
        base = draw(st.integers(1, 10**6))
        offsets = [draw(st.sampled_from([10**12, 10**15, 2**53 + 2]))] * n
        counts = [base + draw(st.integers(0, 1)) for _ in range(n)]
    return times, counts, offsets


FLAT_WITH_A_GAP = ([0, 1, 2, 3, 4, 5, 6, 7, 9, 10], [1] * 10, [50] * 10)


@settings(SETTINGS, max_examples=200)
@given(st.lists(trend_series(), min_size=1, max_size=40))
@example([FLAT_WITH_A_GAP])  # _ols_slope gives +6e-35 here, not an exact zero
def test_directions_equal_the_sign_of_ols_slope_on_each_series(series):
    clones = [
        CloneSeries(f"c{i:03d}", f"p{i:03d}", counts, offsets, times)
        for i, (times, counts, offsets) in enumerate(series)
    ]
    calls = classify(np.ones(len(clones)), pack(clones), 0.5)
    for clone, call in zip(clones, calls):
        proportions = clone.counts / clone.offsets
        slope = _ols_slope(clone.times.astype(np.float64), proportions)
        assert call.direction is (
            Direction.CONTRACTING if slope < 0.0 else Direction.EXPANDING
        ), (clone, slope)
