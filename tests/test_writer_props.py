"""Property tests of the table writer and of the sidecar writer and reader pairs.

write_table formats whole columns, each distinct value once; its text must
equal the value-at-a-time reference in oracles.py for int64, float64, bool
and str columns, extremes included.  Each sidecar writer's file must read
back, through its reader, as the columns it was given.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from clonedyn import CallTable, TruthLabels, cohort
from clonedyn.cohort import (
    Responsibilities,
    format_column,
    read_calls,
    read_offsets,
    read_responsibilities,
    read_truth_labels,
    write_calls,
    write_offsets,
    write_responsibilities,
    write_table,
    write_truth,
)

from oracles import table_text_by_row
from test_ingest_props import IDS, SETTINGS

INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0, -1, 1])
)
FLOAT64 = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 0.1]),
)
TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n"))
KINDS = {
    "int64": (INT64, lambda values: np.array(values, dtype=np.int64)),
    "float64": (FLOAT64, lambda values: np.array(values, dtype=np.float64)),
    "bool": (st.booleans(), lambda values: np.array(values, dtype=bool)),
    "str": (TEXT, lambda values: np.array(values, dtype=object)),
    "text": (TEXT, list),  # format_column's output, written as it is
}


@st.composite
def tables(draw):
    """{name: column} of one to five columns of the same length, some values repeated."""
    n = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    columns = {}
    for j, kind in enumerate(kinds):
        values, build = KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=4))
        column = draw(st.lists(st.one_of(values, st.sampled_from(pool)), min_size=n, max_size=n))
        columns[f"{kind}{j}"] = build(column)
    return columns


def written(write) -> str:
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "table.tsv"
        write(path)
        return path.read_bytes().decode("utf-8")


@SETTINGS
@given(tables(), st.sampled_from([cohort.WRITE_RECORDS, 2]))
def test_write_table_formats_every_value_as_the_row_reference_does(columns, write_records):
    """At a block of 2 records, tables cross block boundaries, with a repeated
    value or a list column's text split over blocks."""
    with mock.patch.object(cohort, "WRITE_RECORDS", write_records):
        text = written(lambda path: write_table(path, columns))
    assert text == table_text_by_row(columns)


@st.composite
def clone_keys(draw):
    """Distinct (person_id, clone_id) keys in canonical order, as object arrays."""
    keys = sorted(draw(st.lists(st.tuples(IDS, IDS), min_size=1, max_size=12, unique=True)))
    return tuple(np.array(ids, dtype=object) for ids in zip(*keys))


PROBS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]))


def round_trip(write, read):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "table.tsv"
        write(path)
        return read(path)


def assert_same_columns(actual, expected):
    for a, e in zip(actual, expected, strict=True):
        assert a.dtype == e.dtype and np.array_equal(a, e), (a, e)


@SETTINGS
@given(clone_keys(), st.data())
def test_sidecar_writers_and_readers_round_trip_their_columns(keys, data):
    person, clone = keys
    n = person.size

    def column(values, dtype=np.int64):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    prob = column(PROBS, np.float64)

    # offsets: the keys as (person_id, time_index) pairs, sorted as read_offsets sorts them
    times = column(st.integers(0, 2**63 - 1))
    order = np.lexsort((times, person))
    if len(set(zip(person.tolist(), times.tolist()))) == n:
        offsets = (person[order], times[order], column(st.integers(1, 2**63 - 1)))
        assert_same_columns(round_trip(lambda p: write_offsets(p, offsets), read_offsets), offsets)

    truth = TruthLabels(person, clone, column(st.booleans(), bool))
    back = round_trip(lambda p: write_truth(p, truth), read_truth_labels)
    assert_same_columns(vars(back).values(), vars(truth).values())

    responsibilities = Responsibilities(person, clone, column(st.integers(1, 2**63 - 1)), prob)
    back = round_trip(
        lambda p: write_responsibilities(p, responsibilities), read_responsibilities
    )
    assert_same_columns(vars(back).values(), vars(responsibilities).values())

    calls = CallTable(person, clone, prob, column(st.integers(0, 2), np.int8))
    back = round_trip(lambda p: write_calls(p, calls, format_column(prob)), read_calls)
    assert_same_columns(vars(back).values(), vars(calls).values())
