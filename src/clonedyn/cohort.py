"""Every table format of the pipeline: ingestion, validation and file output.

Cohort files are UTF-8, tab-delimited, with a header row and long-format
records (person_id, time_index, clone_id, count).  Per-person-time
offsets are derived as the sum of counts over all clones at that
person-time, before any filtering, unless an explicit offsets sidecar is
supplied (simulated cohorts need one, because their counts are draws
around exogenous totals rather than a partition of them).

Every table is read block by block into one form: a block's UTF-8 bytes
and the start and end offset of each field, found with numpy at the tabs
and newlines, so no Python object is made per field.  A block with a
blank line, a wrong field count or an overlong line is parsed by
csv.reader instead, as is the rest of the file from the first quote or
lone carriage return on; either way the fields are what csv.reader gives,
and one no writer can write back (a quoted tab or line break, or a
leading quote) is rejected.

The cohort goes from those bytes straight into one packed table: integer
fields of plain ASCII digits are parsed by digit over whole columns, and
each distinct id is held once, as UTF-8 bytes; only filter_clones decodes
ids, and only those of the clones it keeps.  Validation runs once over
whole columns.  A reader lists its checks in order, and the earliest
record any check flags is reported, by line, with the message of the
first check that flags it.

Writers take columns, and write_table formats each by its kind
(format_column): a str as it is, an integer as str gives it, a float in
shortest round-trip form and a bool as true or false, each distinct value
once.  write_cohort emits canonical (person, time, clone) row order, the
other writers keep the order of their columns, and every target file is
replaced atomically and synced to disk.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from .classify import CONTRACTING, EXPANDING, NOT_APPLICABLE, Call, CallTable, Direction
from .em import FitResult
from .errors import ParseError, ValidationError
from .model import PackedCohort, segment_rows
from .simulate import TruthLabels

COHORT_COLUMNS = ("person_id", "time_index", "clone_id", "count")
OFFSETS_COLUMNS = ("person_id", "time_index", "total_reads")
STRATA_COLUMNS = ("person_id", "stratum")
TRUTH_COLUMNS = ("person_id", "clone_id", "dynamic")
RESPONSIBILITIES_COLUMNS = ("person_id", "clone_id", "n_times", "prob_dynamic")
CALLS_COLUMNS = ("person_id", "clone_id", "prob_dynamic", "call", "direction")

INT64_MAX = int(np.iinfo(np.int64).max)
BLOCK_CHARS = 1 << 20  # text read at a time on the fast path
BLOCK_RECORDS = 1 << 16  # records parsed at a time by csv.reader
DIGITS_MAX = 18  # any 18-digit integer fits in int64
# a mask over a table's records and the message of a flagged record, by index
_Check = tuple[np.ndarray, Callable[[int], str]]


class CohortRows:
    """(person_id, time_index, clone_id, count) records of a cohort table, in
    (person_id, clone_id, time_index) order; built only when iterated."""

    def __init__(self, table: CohortTable):
        self._table = table

    def __len__(self) -> int:
        return int(self._table.counts.size)

    def __iter__(self) -> Iterator[tuple[str, int, str, int]]:
        c = filter_clones(self._table, 0, absent_as_zero=False)
        return zip(
            np.repeat(c.person_id, c.n_times).tolist(),
            c.times.tolist(),
            np.repeat(c.clone_id, c.n_times).tolist(),
            c.counts.tolist(),
        )


class Ids:
    """Distinct ids held as UTF-8 bytes: id i is the first lengths[i] bytes
    of words[offsets[i]:], the words read as big-endian uint64."""

    def __init__(self, words: np.ndarray, offsets: np.ndarray, lengths: np.ndarray):
        self.words, self.offsets, self.lengths = words, offsets, lengths

    def __len__(self) -> int:
        return int(self.offsets.size)

    def decode(self, index) -> np.ndarray:
        """The ids at the given positions, as an object array of str."""
        lengths = self.lengths[index]
        n_words = _word_counts(lengths)
        words = self.words[segment_rows(self.offsets[index], n_words)]
        data = np.append(words.astype(">u8").view(np.uint8), np.uint8(0))
        starts = 8 * (np.cumsum(n_words) - n_words)
        return np.array(_strings(data, starts, starts + lengths), dtype=object)


@dataclass(frozen=True, eq=False)
class CohortTable:
    """Validated long-format cohort in columns, with its person-time totals.

    Clone i is (person_names[person[i]], clone_names[clone[i]]): ranks
    into the sorted distinct ids, the clone ids still UTF-8 bytes.  It
    owns the observations starts[i] up to starts[i + 1] of the flat
    columns counts and times, in (person_id, clone_id, time_index) order.
    obs_pt gives the row of the person-time table (pt_person, pt_time,
    pt_total, sorted by person then time) behind each observation.  The
    person-time table is the offsets sidecar when one was given, else the
    per person-time sums of the unfiltered rows.
    """

    person_names: np.ndarray
    clone_names: Ids
    person: np.ndarray
    clone: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    times: np.ndarray
    obs_pt: np.ndarray
    pt_person: np.ndarray
    pt_time: np.ndarray
    pt_total: np.ndarray

    @property
    def rows(self) -> CohortRows:
        return CohortRows(self)


class _Block:
    """Data records of a table, or of one block of it, and their line numbers:
    the UTF-8 bytes holding every field, and 8 bytes more, and the (records,
    width) offsets where each field starts and ends."""

    def __init__(self, lines: np.ndarray, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        self.lines, self.raw, self.starts, self.ends = lines, raw, starts, ends

    def text(self, i: int, j: int) -> str:
        """Field j of record i."""
        return self.raw[self.starts[i, j] : self.ends[i, j]].tobytes().decode("utf-8")

    def strs(self, j: int) -> np.ndarray:
        """Field j of every record, as an object array of str."""
        return np.array(_strings(self.raw, self.starts[:, j], self.ends[:, j]), dtype=object)

    def ints(self, j: int, what: str, minimum: int = 0) -> tuple[np.ndarray, _Check]:
        """Field j of every record as int64, and the check that flags a field
        that is not an integer in [minimum, INT64_MAX] (0 there)."""
        values, bad = _int_fields(self.raw, self.starts[:, j], self.ends[:, j], minimum)
        return values, (bad, lambda i: _int_message(self.text(i, j), what, minimum))

    def probabilities(self, j: int) -> tuple[np.ndarray, _Check, _Check]:
        """Field j of every record as float64, the check that flags a field that
        is not a number (nan there), and the check that flags one outside [0, 1]."""
        values, bad = _float_fields(self.raw, self.starts[:, j], self.ends[:, j])
        outside = ~((values >= 0.0) & (values <= 1.0))
        return (
            values,
            (bad, lambda i: f"prob_dynamic is not a number: {self.text(i, j)!r}"),
            (outside, lambda i: f"prob_dynamic must lie in [0, 1], got {self.text(i, j)!r}"),
        )

    def fault(self, checks: Sequence[_Check]) -> tuple[int, ParseError] | None:
        """The earliest record a check flags and its ParseError, with the
        message of the first check that flags it; None if none flags one."""
        flagged = np.logical_or.reduce([mask for mask, _ in checks])
        if flagged.any():
            i = int(np.argmax(flagged))
            message = next(message for mask, message in checks if mask[i])
            return i, ParseError(message(i), int(self.lines[i]))
        return None

    def check(self, checks: Sequence[_Check]) -> None:
        """Raise the ParseError fault finds, if any."""
        if fault := self.fault(checks):
            raise fault[1]


def _columns(records: list[list[str]], lines: np.ndarray, width: int, path: Path) -> _Block:
    """Block of the non-blank records, their fields laid end to end.

    The first record with a wrong field count, or with a field no table can
    be written with, is a ParseError.  Such a field holds a tab, CR or LF,
    or starts with a quote; only a quoted field can.
    """
    n = next((k for k, r in enumerate(records) if r and len(r) != width), len(records))
    kept = [k for k in range(n) if records[k]]
    flat = [f.encode("utf-8") for k in kept for f in records[k]]
    lengths = np.fromiter(map(len, flat), np.int64, len(flat)).reshape(-1, width)
    ends = np.cumsum(lengths).reshape(lengths.shape)
    raw = np.frombuffer(b"".join(flat) + bytes(8), np.uint8)
    block = _Block(lines[kept], raw, ends - lengths, ends)
    breaks = np.append(0, np.cumsum(np.isin(raw, (9, 10, 13))))
    bad = (breaks[ends] > breaks[block.starts]) | ((lengths > 0) & (raw[block.starts] == 34))
    unwritable = bad.any(axis=1), lambda i: (
        f"{path}: field {block.text(i, int(np.argmax(bad[i])))!r} cannot be written back "
        "to a table: it holds a tab or line break, or starts with a quote"
    )
    block.check([unwritable])
    if n < len(records):
        raise ParseError(f"{path}: expected {width} fields, got {len(records[n])}", int(lines[n]))
    return block


def _csv_records(reader, count: int, lineno: int, path: Path) -> list[list[str]]:
    """Up to count records of a csv.reader whose next record is line lineno;
    ParseError for a record csv.reader rejects (a field longer than
    csv.field_size_limit())."""
    records: list[list[str]] = []
    try:
        records.extend(itertools.islice(reader, count))  # keeps those before a failing one
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", lineno + len(records)) from None
    return records


def _csv_blocks(reader, lineno: int, width: int, path: Path):
    while records := _csv_records(reader, BLOCK_RECORDS, lineno, path):
        yield _columns(records, np.arange(lineno, lineno + len(records)), width, path)
        lineno += len(records)


def _blocks(handle, width: int, path: Path) -> Iterator[_Block]:
    """Every block of data records after the header, blank-only ones included."""
    limit = csv.field_size_limit()
    lineno = 2
    while text := handle.read(BLOCK_CHARS):
        if not text.endswith("\n"):
            text += handle.readline()
        if '"' not in text:
            text = text.replace("\r\n", "\n")  # unquoted CRLF records split as LF ones do
        if '"' in text or "\r" in text:
            # a quoted field may run past the block: csv.reader takes over
            rest = itertools.chain(io.StringIO(text, newline=""), handle)
            yield from _csv_blocks(csv.reader(rest, delimiter="\t"), lineno, width, path)
            return
        if not text.endswith("\n"):
            text += "\n"  # the last record of a file that does not end in a newline
        raw = np.frombuffer(text.encode("utf-8") + bytes(8), np.uint8)
        newline = raw == 10
        seps = np.flatnonzero(newline | (raw == 9))
        n = int(np.count_nonzero(newline))
        numbers = np.arange(lineno, lineno + n)
        # every record has width - 1 tabs exactly when every width-th
        # separator is a newline and there are width per newline
        line_ends = seps[width - 1 :: width]
        if (
            seps.size != n * width
            or not newline[line_ends].all()
            or np.diff(line_ends, prepend=-1).max() - 1 > limit  # bytes: at least the chars
        ):
            lines = text.split("\n")
            lines.pop()
            records = _csv_records(csv.reader(lines, delimiter="\t"), n, lineno, path)
            yield _columns(records, numbers, width, path)
        else:
            # a field starts after the separator that ends the one before it
            starts = np.append(0, seps[:-1] + 1).reshape(n, width)
            yield _Block(numbers, raw, starts, seps.reshape(n, width))
        lineno += n


def _read_blocks(path: str | Path, columns: Sequence[str]) -> Iterator[_Block]:
    """Data records of a TSV with a header, block by block.

    Fields are what csv.reader with a tab delimiter gives.  A block of
    text with no quote, lone carriage return, blank line, overlong line
    or wrong field count is split by the byte tokenizer, which gives the
    same fields without a Python object per field; from the first quote
    or lone carriage return on, csv.reader parses the rest of the file.
    Line numbers count records from 2, the header being 1, blank ones
    included.
    """
    path = Path(path)
    any_rows = False
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            header = _csv_records(csv.reader(handle, delimiter="\t"), 1, 1, path)
            if not header:
                raise ValidationError(f"{path}: file is empty")
            if header != [list(columns)]:
                raise ParseError(f"{path}: expected header {list(columns)}, got {header[0]}", 1)
            for block in _blocks(handle, len(columns), path):
                if len(block.lines):
                    any_rows = True
                    yield block
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not any_rows:
        raise ValidationError(f"{path}: no data rows")


def _read_table(path: str | Path, columns: Sequence[str]) -> _Block:
    """Every data record of a TSV with a header, as one block."""
    blocks = list(_read_blocks(path, columns))
    shifts = np.cumsum([0] + [b.raw.size for b in blocks[:-1]])
    return _Block(
        np.concatenate([b.lines for b in blocks]),
        np.concatenate([b.raw for b in blocks]),
        np.concatenate([b.starts + shift for b, shift in zip(blocks, shifts)]),
        np.concatenate([b.ends + shift for b, shift in zip(blocks, shifts)]),
    )


def _int_message(value: str, what: str, minimum: int = 0) -> str:
    """Why value, which _int_values flags, is not an integer in [minimum, INT64_MAX]."""
    try:
        parsed = int(value)
    except ValueError:
        return f"{what} is not an integer: {value!r}"
    if parsed < minimum:
        return f"{what} must be >= {minimum}, got {parsed}"
    return f"{what} does not fit in a 64-bit integer: {value!r}"


def _parse_each(parse, values: Sequence[str], dtype) -> tuple[np.ndarray, np.ndarray]:
    """parse of every value as dtype, and a mask of the values it rejects or
    dtype cannot hold (0 there)."""
    try:
        return np.fromiter(map(parse, values), dtype, len(values)), np.zeros(len(values), bool)
    except (ValueError, OverflowError):
        parsed, bad = np.zeros(len(values), dtype=dtype), np.zeros(len(values), dtype=bool)
        for i, value in enumerate(values):
            try:
                parsed[i] = parse(value)
            except (ValueError, OverflowError):
                bad[i] = True
        return parsed, bad


def _int_values(values: Sequence[str], minimum: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """int() of every value as int64, and a mask of the values that are not
    integers in [minimum, INT64_MAX] (0 there)."""
    parsed, bad = _parse_each(int, values, np.int64)
    bad |= parsed < minimum
    parsed[bad] = 0
    return parsed, bad


def _float_fields(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """float() of the fields raw[starts:ends], and a mask of the fields float()
    rejects (nan there)."""
    values, bad = _parse_each(float, _strings(raw, starts, ends), np.float64)
    values[bad] = np.nan
    return values, bad


def _strings(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The UTF-8 fields raw[starts:ends], decoded; raw holds a byte more after
    the last one."""
    fields: list[str] = []
    for k in range(0, starts.size, BLOCK_RECORDS):  # bounds the index arrays
        s, e = starts[k : k + BLOCK_RECORDS], ends[k : k + BLOCK_RECORDS]
        # each field and the byte after it, that byte made a newline: one
        # decode and one split give every field, unless one holds a newline
        joined = raw[segment_rows(s, e - s + 1)]
        joined[np.cumsum(e - s + 1) - 1] = 10
        text = joined.tobytes().decode("utf-8").split("\n")
        text.pop()
        if len(text) != s.size:
            text = [raw[i:j].tobytes().decode("utf-8") for i, j in zip(s.tolist(), e.tolist())]
        fields += text
    return fields


def _int_fields(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray, minimum: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """int() of the fields raw[starts:ends] as int64, and a mask of the fields
    that are not integers in [minimum, INT64_MAX] (0 there).

    A field of 1 to DIGITS_MAX ASCII digits is parsed here, digit by digit
    over all fields at once; only the others go through int().
    """
    lengths = ends - starts
    plain = (lengths > 0) & (lengths <= DIGITS_MAX)
    values = np.zeros(lengths.size, dtype=np.int64)
    for k in range(int(lengths[plain].max(initial=0)), 0, -1):  # k-th byte from a field's end
        in_field = lengths >= k
        digit = raw[np.maximum(ends - k, 0)] - np.uint8(48)
        plain &= ~in_field | (digit < 10)
        values = values * 10 + np.where(in_field, digit, 0)
    bad = plain & (values < minimum)
    values[bad] = 0
    if not plain.all():
        rest = np.flatnonzero(~plain)
        values[rest], bad[rest] = _int_values(_strings(raw, starts[rest], ends[rest]), minimum)
    return values, bad


# per count r of bytes kept, the mask of a word's first r bytes
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * r)) for r in range(9)], dtype=np.uint64)


def _words(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray, k: int) -> np.ndarray:
    """Bytes 8k to 8k + 8 of each field data[starts[i] : starts[i] + lengths[i]],
    zero-padded, as the big-endian uint64 they spell, which orders as the
    bytes do.  data holds 8 bytes more after its last field."""
    octets = np.lib.stride_tricks.sliding_window_view(data, 8)[starts + 8 * k]
    return octets.view(">u8")[:, 0] & _KEEP[np.clip(lengths - 8 * k, 0, 8)]


class _IdColumn:
    """The ids of one column, added block by block; each run of equal
    consecutive ids is kept once, as the words of its UTF-8 bytes."""

    def __init__(self):
        self._words: list[np.ndarray] = []
        self._lengths: list[np.ndarray] = []
        self._runs = 0

    def add(self, raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Per field raw[starts:ends], the index of its run among all runs added."""
        lengths = ends - starts
        first = _words(raw, starts, lengths, 0)
        same = np.zeros(lengths.size, dtype=bool)
        same[1:] = (lengths[1:] == lengths[:-1]) & (first[1:] == first[:-1])
        pending = np.flatnonzero(same & (lengths > 8))  # equal so far, with words to come
        k = 1
        while pending.size:
            here = _words(raw, starts[pending], lengths[pending], k)
            equal = here == _words(raw, starts[pending - 1], lengths[pending - 1], k)
            same[pending[~equal]] = False
            pending = pending[equal & (lengths[pending] > 8 * (k + 1))]
            k += 1
        heads = np.flatnonzero(~same)
        starts, lengths = starts[heads], lengths[heads]
        n_words = _word_counts(lengths)
        offsets = np.cumsum(n_words) - n_words
        words = np.zeros(int(n_words.sum()), dtype=np.uint64)
        words[offsets] = first[heads]
        for k in range(1, int(n_words.max(initial=0))):
            longer = np.flatnonzero(n_words > k)
            words[offsets[longer] + k] = _words(raw, starts[longer], lengths[longer], k)
        self._words.append(words)
        self._lengths.append(lengths)
        run = np.cumsum(~same) + (self._runs - 1)
        self._runs += heads.size
        return run

    def ranked(self) -> tuple[Ids, np.ndarray]:
        """The distinct ids in sorted order, and each run's position among them.

        Runs are sorted a word at a time, each round only those still tied
        with another run and longer than the words compared so far.  UTF-8
        byte order is code point order, so this is str order.
        """
        store = np.concatenate([np.zeros(0, np.uint64), *self._words])
        lengths = np.concatenate([np.zeros(0, np.int64), *self._lengths])
        n_words = _word_counts(lengths)
        offsets = np.cumsum(n_words) - n_words
        # each run's group of equal ids so far, as the group's first
        # position in sorted order; active: the runs still tied with another
        # that have words left to compare.  Word k of a run is keyed with
        # min(length, 8k + 9): an id that ends within the word sorts before
        # a longer one with the same bytes so far (they tie where the
        # shorter fills the word or NUL pads it).  The first round, over
        # every run, has one group and so needs no group key.
        order = np.lexsort((np.minimum(lengths, 9), store[offsets]))
        new = _changes(store[offsets[order]], np.minimum(lengths[order], 9))
        position = np.empty_like(order)
        position[order] = np.flatnonzero(new)[np.cumsum(new) - 1]
        tied = ~(new & np.append(new[1:], True))  # not alone among its equals
        active, k = order[tied & (lengths[order] > 8)], 1
        while active.size:
            words = store[offsets[active] + k]
            ended = np.minimum(lengths[active], 8 * k + 9)
            order = np.lexsort((ended, words, position[active]))
            run, group = active[order], position[active][order]
            new_group = _changes(group)
            new = new_group | _changes(words[order], ended[order])
            at = np.arange(run.size)
            first_in_group = np.maximum.accumulate(np.where(new_group, at, 0))
            first_in_new = np.maximum.accumulate(np.where(new, at, 0))
            position[run] = group + first_in_new - first_in_group
            tied = ~(new & np.append(new[1:], True))  # not alone among its equals
            active = run[tied & (lengths[run] > 8 * (k + 1))]
            k += 1
        leads = np.zeros(lengths.size, dtype=bool)
        leads[position] = True
        rank = (np.cumsum(leads) - 1)[position]
        first = np.zeros(int(rank.max(initial=-1)) + 1, dtype=np.int64)
        first[rank] = np.arange(rank.size)
        kept = np.zeros(lengths.size, dtype=bool)
        kept[first] = True  # one run per distinct id, whose words are kept
        n_kept = np.where(kept, n_words, 0)
        offsets = np.cumsum(n_kept) - n_kept
        return Ids(store[np.repeat(kept, n_words)], offsets[first], lengths[first]), rank


def _changes(*columns: np.ndarray) -> np.ndarray:
    """Mask of the records whose key, one value from each column, differs
    from the record before (the first record's always does)."""
    new = np.zeros(columns[0].size, dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def _word_counts(lengths: np.ndarray) -> np.ndarray:
    """Words of 8 bytes that hold ids of these lengths: at least one, so an
    empty id has a first word too."""
    return np.maximum((lengths + 7) // 8, 1)


def _repeats(*columns: np.ndarray) -> np.ndarray:
    """Mask of the records whose key, one value from each column, an earlier record has."""
    n = columns[0].size
    increasing, tied = np.zeros(max(n - 1, 0), dtype=bool), np.ones(max(n - 1, 0), dtype=bool)
    for column in columns:
        increasing |= tied & (column[1:] > column[:-1])
        tied &= column[1:] == column[:-1]
    if increasing.all():
        return np.zeros(n, dtype=bool)  # strictly increasing, as the writers write
    # setdefault gives each record the position of its key's first record
    first: dict[tuple, int] = {}
    positions = map(first.setdefault, zip(*(c.tolist() for c in columns)), range(n))
    return np.fromiter(positions, np.int64, n) != np.arange(n)


def _unique_clones(person: np.ndarray, clone: np.ndarray) -> _Check:
    """The check that flags a record repeating an earlier one's (person_id, clone_id)."""
    return _repeats(person, clone), lambda i: f"duplicate clone {(person[i], clone[i])}"


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment int64 sums of non-negative values, saturated at INT64_MAX, and
    a mask of the segments whose exact sum does not fit in int64."""
    sums = np.add.reduceat(values, starts)
    overflow = np.zeros(starts.size, dtype=bool)
    ends = np.append(starts[1:], values.size)
    # float sums flag the only segments that can have wrapped around
    for i in np.flatnonzero(np.add.reduceat(values.astype(np.float64), starts) >= 2.0**62):
        overflow[i] = sum(values[starts[i] : ends[i]].tolist()) > INT64_MAX
    sums[overflow] = INT64_MAX
    return sums, overflow


def read_strata(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """strata.tsv as (person_id, stratum) columns in file order, each person
    once and each stratum 0 or 1 (int64)."""
    table = _read_table(path, STRATA_COLUMNS)
    person = table.strs(0)
    stratum, is_int = table.ints(1, "stratum")
    binary = stratum > 1, lambda i: f"stratum must be 0 or 1, got {stratum[i]}"
    unique = _repeats(person), lambda i: f"duplicate person {person[i]!r}"
    table.check([is_int, binary, unique])
    return person, stratum


def read_offsets(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """offsets.tsv as (person_id, time_index, total_reads) columns, sorted by
    person then time."""
    table = _read_table(path, OFFSETS_COLUMNS)
    person = table.strs(0)
    time, time_is_int = table.ints(1, "time_index")
    total, total_is_int = table.ints(2, "total_reads", minimum=1)
    unique = _repeats(person, time), lambda i: f"duplicate person-time {(person[i], int(time[i]))}"
    table.check([time_is_int, unique, total_is_int])
    order = np.lexsort((time, person))
    return person[order], time[order], total[order]


def read_truth_labels(path: str | Path) -> TruthLabels:
    """truth.tsv: one row per clone, dynamic 0 or 1; columns in file order."""
    table = _read_table(path, TRUTH_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    dynamic, is_int = table.ints(2, "dynamic")
    binary = dynamic > 1, lambda i: f"dynamic must be 0 or 1, got {dynamic[i]}"
    table.check([_unique_clones(person, clone), is_int, binary])
    return TruthLabels(person, clone, dynamic == 1)


@dataclass(frozen=True, eq=False)
class Responsibilities:
    """The columns of responsibilities.tsv, in file order."""

    person_id: np.ndarray
    clone_id: np.ndarray
    n_times: np.ndarray
    prob_dynamic: np.ndarray

    def __len__(self) -> int:
        return int(self.person_id.size)


def read_responsibilities(path: str | Path) -> Responsibilities:
    """responsibilities.tsv: one row per clone, n_times an integer >= 1 and
    prob_dynamic in [0, 1]."""
    table = _read_table(path, RESPONSIBILITIES_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    n_times, n_times_is_int = table.ints(2, "n_times", minimum=1)
    prob, is_number, in_unit_interval = table.probabilities(3)
    table.check([_unique_clones(person, clone), is_number, n_times_is_int, in_unit_interval])
    return Responsibilities(person, clone, n_times, prob)


# the (call, direction) pairs classify writes, each with its direction code
CALL_KINDS = {
    (Call.DYNAMIC.value, Direction.EXPANDING.value): EXPANDING,
    (Call.DYNAMIC.value, Direction.CONTRACTING.value): CONTRACTING,
    (Call.STATIC.value, Direction.NOT_APPLICABLE.value): NOT_APPLICABLE,
}


def read_calls(path: str | Path) -> CallTable:
    """calls.tsv as classify writes it: one row per clone, a prob_dynamic in
    [0, 1], a direction on every dynamic call and none on a static one."""
    table = _read_table(path, CALLS_COLUMNS)
    person, clone = table.strs(0), table.strs(1)
    prob, is_number, in_unit_interval = table.probabilities(2)
    kinds = map(CALL_KINDS.get, zip(table.strs(3), table.strs(4)), itertools.repeat(-1))
    direction = np.fromiter(kinds, np.int8, person.size)
    known = direction < 0, lambda i: (
        f"call {table.text(i, 3)!r} with direction {table.text(i, 4)!r}: "
        "expected dynamic with expanding or contracting, or static with na"
    )
    table.check([_unique_clones(person, clone), known, is_number, in_unit_interval])
    return CallTable(person, clone, prob, direction != NOT_APPLICABLE, direction)


def _read_cohort_columns(path: Path):
    """Sorted distinct person and clone ids; person, clone, time, count and
    line columns of every parsable record, in file order, with each id as
    its position among the sorted ones; and the ParseError of the first
    unparsable record (or None).

    Each id is held once per run of records naming it, as bytes.  Records
    after an unparsable one are still read, so a wrong field count
    anywhere in the file is reported first, as a whole-file check would.
    """
    persons, clones = _IdColumn(), _IdColumn()
    parts: list[tuple[np.ndarray, ...]] = []
    error = None
    for block in _read_blocks(path, COHORT_COLUMNS):
        if error is not None:
            continue
        times, time_is_int = block.ints(1, "time_index")
        counts, count_is_int = block.ints(3, "count")
        n, error = block.fault([time_is_int, count_is_int]) or (block.lines.size, None)
        person = persons.add(block.raw, block.starts[:n, 0], block.ends[:n, 0])
        clone = clones.add(block.raw, block.starts[:n, 2], block.ends[:n, 2])
        parts.append((person, clone, times[:n], counts[:n], block.lines[:n]))
    person_ids, person_rank = persons.ranked()
    clone_ids, clone_rank = clones.ranked()
    person, clone, time, count, line = (np.concatenate(c) for c in zip(*parts))
    person_names = person_ids.decode(np.arange(len(person_ids)))
    return person_names, clone_ids, person_rank[person], clone_rank[clone], time, count, line, error


def _person_time_keys(person_names, person, time, pt_person, pt_time):
    """Integer keys that order like (person, time) pairs: of the rows, whose
    person is a position in person_names, and of the table (pt_person, pt_time)."""
    names = np.unique(np.concatenate([person_names, pt_person]))
    values = np.unique(np.concatenate([time, pt_time]))
    return (
        np.searchsorted(names, person_names)[person] * values.size + np.searchsorted(values, time),
        np.searchsorted(names, pt_person) * values.size + np.searchsorted(values, pt_time),
    )


def ingest(path: str | Path, offsets_path: str | Path | None = None) -> CohortTable:
    """Read and validate a cohort table.

    Offsets are computed from the full, unfiltered table so they reflect
    the whole repertoire; an explicit offsets file overrides the derived
    sums (it must cover every person-time and dominate every count).
    """
    person_names, clone_names, person, clone, time, count, line, error = _read_cohort_columns(
        Path(path)
    )

    order = np.lexsort((time, clone, person))  # stable: ties stay in file order
    person, clone, time, count, line = (a[order] for a in (person, clone, time, count, line))
    same_clone = (person[1:] == person[:-1]) & (clone[1:] == clone[:-1])
    repeats = np.flatnonzero(same_clone & (time[1:] == time[:-1])) + 1
    if repeats.size:
        # the earliest record that repeats a key seen before it; every record
        # read comes before the first unparsable one
        i = repeats[np.argmin(line[repeats])]
        clone_id = clone_names.decode([clone[i]])[0]
        dup_key = (person_names[person[i]], int(time[i]), clone_id)
        raise ParseError(f"duplicate (person_id, time_index, clone_id) {dup_key}", int(line[i]))
    if error is not None:
        raise error

    if offsets_path is not None:
        pt_person, pt_time, pt_total = read_offsets(offsets_path)
        row_key, pt_key = _person_time_keys(person_names, person, time, pt_person, pt_time)
        obs_pt = np.minimum(np.searchsorted(pt_key, row_key), pt_key.size - 1)
        covered = pt_key[obs_pt] == row_key
        bad = np.flatnonzero(~covered | (count > pt_total[obs_pt]))
        if bad.size:
            i = bad[np.argmin(line[bad])]
            pt = (person_names[person[i]], int(time[i]))
            if not covered[i]:
                raise ValidationError(f"offsets file does not cover person-time {pt}")
            raise ValidationError(
                f"count {int(count[i])} for clone {clone_names.decode([clone[i]])[0]!r} exceeds "
                f"the offset {int(pt_total[obs_pt[i]])} at {pt}"
            )
    else:
        row_key, _ = _person_time_keys(person_names, person, time, person_names[:0], time[:0])
        pt_key, obs_pt = np.unique(row_key, return_inverse=True)
        by_pt = np.argsort(obs_pt, kind="stable")
        pt_rows = np.flatnonzero(np.diff(obs_pt[by_pt], prepend=-1))
        pt_person, pt_time = person_names[person[by_pt[pt_rows]]], time[by_pt[pt_rows]]
        pt_total, overflow = _segment_sums(count[by_pt], pt_rows)
        # report the person-time whose first record comes first, as a row loop would
        for failing, message in (
            (overflow, "total reads do not fit in a 64-bit integer"),
            (pt_total <= 0, "has zero total reads; supply an explicit offsets file"),
        ):
            rows = np.flatnonzero(failing[obs_pt])
            if rows.size:
                i = rows[np.argmin(line[rows])]
                pt = (person_names[person[i]], int(time[i]))
                raise ValidationError(f"person-time {pt} {message}")

    starts = np.flatnonzero(np.concatenate([[True], ~same_clone]))
    return CohortTable(
        person_names, clone_names, person[starts], clone[starts], starts, count, time, obs_pt,
        pt_person, pt_time, pt_total,
    )  # fmt: skip


def filter_clones(
    table: CohortTable,
    min_total_reads: int,
    absent_as_zero: bool = True,
) -> PackedCohort:
    """Pack the clones whose recorded counts sum to at least min_total_reads,
    in canonical (person_id, clone_id) order.

    With absent_as_zero, a kept clone also gets an explicit zero count at
    every person-time where its person was sampled but the clone had no
    row, so contractions to zero stay in the model.  Offsets always come
    from the unfiltered table.  Only the kept clones' ids are decoded.
    """
    if min_total_reads < 0:
        raise ValidationError("min_total_reads must be >= 0")
    if min_total_reads > INT64_MAX:
        raise ValidationError("min_total_reads does not fit in a 64-bit integer")

    totals, _ = _segment_sums(table.counts, table.starts)
    keep = np.flatnonzero(totals >= min_total_reads)
    person_id = table.person_names[table.person[keep]]
    clone_id = table.clone_names.decode(table.clone[keep])
    first_obs = table.starts[keep]
    obs_n_times = np.diff(table.starts, append=table.counts.size)[keep]
    obs_rows = segment_rows(first_obs, obs_n_times)
    if not absent_as_zero:
        pt_rows = table.obs_pt[obs_rows]
        return PackedCohort(
            person_id,
            clone_id,
            np.cumsum(obs_n_times) - obs_n_times,
            table.counts[obs_rows],
            table.pt_total[pt_rows],
            table.times[obs_rows],
        )

    # each person's sampled times are one block of the person-time table
    new_person = np.concatenate([[True], table.pt_person[1:] != table.pt_person[:-1]])
    block_start = np.flatnonzero(new_person)
    block_len = np.diff(block_start, append=table.pt_person.size)
    block = (np.cumsum(new_person) - 1)[table.obs_pt[first_obs]]
    n_times = block_len[block]
    starts = np.cumsum(n_times) - n_times
    pt_rows = segment_rows(block_start[block], n_times)

    # scatter each kept clone's recorded counts to their person-times
    shift = np.repeat(starts - block_start[block], obs_n_times)
    counts = np.zeros(pt_rows.size, dtype=np.int64)
    counts[table.obs_pt[obs_rows] + shift] = table.counts[obs_rows]
    return PackedCohort(
        person_id,
        clone_id,
        starts,
        counts,
        table.pt_total[pt_rows],
        table.pt_time[pt_rows],
    )


@contextmanager
def _atomic_file(path: str | Path) -> Iterator[io.TextIOBase]:
    """A text handle on a temporary file that replaces path in one rename when
    the block completes, created as open() would: mode 0o666 less the process
    umask.  The file is synced to disk before the rename, and its directory
    after it, so a crash leaves either the old file or the whole new one."""
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace path with text in one rename."""
    with _atomic_file(path) as handle:
        handle.write(text)


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def format_column(values: np.ndarray) -> list[str]:
    """The text of each value as write_table writes it: a str as it is, an
    integer as str gives it, a float in shortest round-trip form and a bool
    as true or false.  Each distinct value (of a float, bit pattern) is
    formatted once, which pays where values repeat, as proportions do."""
    kind = values.dtype.kind
    if kind in "OU":
        return values.tolist()
    if kind == "b":
        return _BOOL_TEXT[values.astype(np.intp)].tolist()
    if kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        text = map(repr, distinct.view(np.float64).tolist())
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        text = map(str, distinct.tolist())
    return np.array(list(text), dtype=object)[inverse].tolist()


def write_table(path: str | Path, columns: Mapping[str, np.ndarray | list[str]]) -> None:
    """Replace path with a header of the column names and a tab-joined row per
    record, formatted and written BLOCK_RECORDS at a time.  An array column is
    formatted by format_column; a list is format_column's text already, so a
    column written to two tables is formatted once."""
    with _atomic_file(path) as handle:
        handle.write("\t".join(columns) + "\n")
        for k in range(0, max(map(len, columns.values()), default=0), BLOCK_RECORDS):
            block = (column[k : k + BLOCK_RECORDS] for column in columns.values())
            text = [c if isinstance(c, list) else format_column(c) for c in block]
            handle.write("\n".join(map("\t".join, zip(*text, strict=True))) + "\n")


def _person_ranks(cohort: PackedCohort) -> np.ndarray:
    """Per observation, the rank of its clone's person among the cohort's persons."""
    return np.repeat(np.unique(cohort.person_id, return_inverse=True)[1], cohort.n_times)


def write_cohort(path: str | Path, cohort: PackedCohort) -> None:
    """Write cohort rows in canonical (person, time, clone) order."""
    cohort = cohort.sorted()
    # stable: the clones are in (person, clone) order, which stays within a person-time
    order = np.lexsort((cohort.times, _person_ranks(cohort)))
    columns = (
        np.repeat(cohort.person_id, cohort.n_times)[order],
        cohort.times[order],
        np.repeat(cohort.clone_id, cohort.n_times)[order],
        cohort.counts[order],
    )
    write_table(path, dict(zip(COHORT_COLUMNS, columns)))


def write_offsets(path: str | Path, offsets: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write (person_id, time_index, total_reads) columns, as read_offsets and
    offsets_from_series give them, in their order."""
    write_table(path, dict(zip(OFFSETS_COLUMNS, offsets)))


def offsets_from_series(cohort: PackedCohort) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-person-time totals the cohort's offsets record, as the sorted
    (person_id, time_index, total_reads) columns read_offsets returns."""
    person = _person_ranks(cohort)
    order = np.lexsort((cohort.times, person))  # stable: series order within a person-time
    times, offsets = cohort.times[order], cohort.offsets[order]
    leads = (np.diff(person[order], prepend=-1) != 0) | (np.diff(times, prepend=-1) != 0)
    conflicts = order[offsets != offsets[leads][np.cumsum(leads) - 1]]
    person_ids = np.repeat(cohort.person_id, cohort.n_times)
    if conflicts.size:
        i = conflicts.min()  # the first disagreement in series order
        key = (person_ids[i], int(cohort.times[i]))
        raise ValidationError(f"conflicting offsets recorded for person-time {key}")
    return person_ids[order[leads]], times[leads], offsets[leads]


def write_truth(path: str | Path, truth: TruthLabels) -> None:
    """Write the labels in their order, dynamic as 0 or 1."""
    columns = (truth.person_id, truth.clone_id, truth.dynamic.astype(np.int8))
    write_table(path, dict(zip(TRUTH_COLUMNS, columns)))


def write_responsibilities(path: str | Path, result: FitResult) -> None:
    cohort = result.cohort
    columns = (cohort.person_id, cohort.clone_id, cohort.n_times, result.prob_dynamic)
    write_table(path, dict(zip(RESPONSIBILITIES_COLUMNS, columns)))


def write_calls(path: str | Path, calls: CallTable, prob_text: list[str]) -> None:
    """calls.tsv, with prob_text the format_column of calls.prob_dynamic."""
    columns = (
        calls.person_id, calls.clone_id, prob_text, calls.call_text(), calls.direction_text()
    )
    write_table(path, dict(zip(CALLS_COLUMNS, columns)))
